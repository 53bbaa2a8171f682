"""Print one sha256 over the paper's Monte Carlo cells and a fixed set of
single-series estimates.

The cells are those pinned by tests/test_paper_cells.py, run in full: every
field of every row, the per-lag arrays included.  The single-series part
evaluates each estimator kind, a fixed-order and a truncated-ARMA source on
four simulated paths over a Fourier and a uniform grid, and hashes each
estimate's values, kind and meta.  Two checkouts that print the same digest
give the same tables and estimates bit for bit; the digest is of the
package under src/ next to this file.

Usage: python tools/table_digest.py [seed [replications]]
       (defaults: the cells' seed and B = 5000)
"""
from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))

import predspec as ps  # noqa: E402


def _paper_cells():
    spec = importlib.util.spec_from_file_location("test_paper_cells", _ROOT / "tests" / "test_paper_cells.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._CELLS, module.SEED


def _single_estimates(seed: int):
    m1, m2 = ps.builtin_models("m1", 0.9), ps.builtin_models("m2")
    specs = [ps.EstimatorSpec(kind) for kind in ps.ESTIMATOR_KINDS if kind != "complete-true"]
    specs += [
        ps.EstimatorSpec("complete-true", source=ps.Explicit(m1)),
        ps.EstimatorSpec("complete", source=ps.FixedOrder(2)),
        ps.EstimatorSpec("tapered-complete", source=ps.TruncatedInfinite(ps.arma_expand(m2).ar_inf), taper_d=3),
    ]
    for i, (model, n) in enumerate(((m1, 20), (m1, 300), (m2, 50), (m2, 1000))):
        ts = ps.simulate_arma(model, n, seed + i)
        for grid in (ps.FrequencyGrid.fourier(n), ps.FrequencyGrid.uniform(64)):
            for spec in specs:
                yield ps.evaluate_estimator(ts, spec, grid)


def digest(seed: int | None = None, replications: int = 5000) -> str:
    """The sha256 hex digest of the cells at B = `replications` and the
    single-series estimates, all drawn from `seed` (default: the cells' seed)."""
    cells, cell_seed = _paper_cells()
    seed = cell_seed if seed is None else seed
    h = hashlib.sha256()

    def add(*items):
        for item in items:
            h.update(item.encode() if isinstance(item, str) else np.asarray(item).tobytes())

    for name in sorted(cells):
        table = ps.run_experiment(ps.ExperimentSpec(replications=replications, seed=seed, **cells[name]))
        add(name, table.mode)
        for row in table.rows:
            add(row.estimator, row.imse, row.ibias, row.imse_se, row.ibias_se)
            if row.per_lag_mse is not None:
                add(row.per_lag_mse, row.per_lag_bias)
    for pg in _single_estimates(seed):
        add(pg.values, pg.kind, repr(pg.meta))
    return h.hexdigest()


def main(argv: list) -> int:
    seed = int(argv[1]) if len(argv) > 1 else None
    replications = int(argv[2]) if len(argv) > 2 else 5000
    print(digest(seed, replications))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
