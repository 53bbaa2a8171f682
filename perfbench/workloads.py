"""The benchmark's workloads: inputs made from the seed, operations, and checks.

A workload hands out rounds of jobs.  Every round holds the same operations
(same cells and chunk sizes, or the same length classes), so each run
attempts whole rounds of one mix whatever its seed and length.  A job is one
call into predspec's public API; `ops` says how many operations it
completes.  Run jobs are handed back through `record`, and `check` compares
the recorded outputs with `reference`, which never calls predspec, and with
properties the method must have.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import predspec as ps
from predspec import oracle

import reference as R

COMPLETE_KINDS = ("complete-true", "complete", "tapered-complete")
ACF_POINTS = 500  # midpoint cells of the ACF grid
ACF_LAGS = 10
RTOL = 1e-9  # program vs reference, relative to the reference's max-norm
FEJER_Z = 6.0  # per-frequency z bound for the regular periodogram's bias


def derived_seed(*parts: int) -> int:
    """A nonnegative 63-bit seed from the run seed and a position in the run."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0] >> 1)


@dataclass
class Job:
    ops: int
    call: object  # () -> output
    round: int | None  # None for the warm-up
    item: object  # the Monte Carlo cell, or the long series
    spec: object = None  # the ExperimentSpec of a Monte Carlo chunk
    output: object = None


@dataclass
class Failures:
    messages: list = field(default_factory=list)  # failed output checks
    errors: list = field(default_factory=list)  # operations that raised

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.messages.append(message)
        return ok


def _scalar_close(got: float, want: float, rtol: float = 1e-8) -> bool:
    return abs(got - want) <= rtol * abs(want) + 1e-300


# --- Monte Carlo cells ------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    label: str
    model: str
    lam: float | None
    n: int
    kinds: tuple
    chunk: int  # replications per run_experiment call
    group: int  # cells of one group share each round's seed
    smoothing: tuple | None = None
    acf_lags: int | None = None

    def spec(self, seed: int, replications: int):
        return ps.ExperimentSpec(
            model=ps.builtin_models(self.model, self.lam),
            n=self.n,
            replications=replications,
            estimators=tuple(ps.EstimatorSpec(k) for k in self.kinds),
            seed=seed,
            smoothing=self.smoothing,
            acf_lags=self.acf_lags,
        )

    def density(self, w):
        return R.m1_density(self.lam, w) if self.model == "m1" else R.m2_density(w)

    def target(self) -> np.ndarray:
        """True autocorrelations (ACF cells) or densities on the Fourier grid."""
        if self.acf_lags is not None:
            return R.m1_acf(self.lam, self.acf_lags)
        return self.density(R.grid_frequencies(self.n, 0.0))


class MonteCarlo:
    """Cells run serially through `run_experiment`, one chunk per cell per round."""

    def __init__(self, cells: list, seed: int):
        self.cells = cells
        self.seed = seed
        self.jobs: list = []

    def record(self, jobs: list) -> None:
        self.jobs += jobs  # tables are small: keep them all

    def warmup(self) -> list:
        return [self._job(c, derived_seed(self.seed, 1 << 20, c.group), 1, None) for c in self.cells]

    def round(self, r: int) -> list:
        return [self._job(c, derived_seed(self.seed, r, c.group), c.chunk, r) for c in self.cells]

    def _job(self, cell, seed, reps, r):
        spec = cell.spec(seed, reps)
        return Job(ops=reps, call=lambda: ps.run_experiment(spec), round=r, item=cell, spec=spec)

    # --- checks -----------------------------------------------------------
    def check(self, fail: Failures) -> None:
        """Reference-check one seeded chunk per cell, then the method's properties."""
        timed = [j for j in self.jobs if j.round is not None and j.output is not None]
        rounds = sorted({j.round for j in timed})
        if not rounds:
            return
        pick = rounds[np.random.default_rng([self.seed, 0xC0FFEE]).integers(len(rounds))]
        chosen = {
            j.item.label: (j.item, j.output, self._reference_chunk(j.item, j.spec, j.output, fail))
            for j in timed
            if j.round == pick
        }
        for j in timed:
            self.table_properties(j.item, j.output, fail)
        self.chunk_properties(chosen, fail)
        self.cross_cell_properties(timed, fail)

    def _reference_chunk(self, cell: Cell, spec, table, fail: Failures) -> dict:
        """Recompute the chunk's table from scratch; returns per-kind per-rep values."""
        model = spec.model
        xs = [R.simulate(model.ar, model.ma, cell.n, R.splitmix_seed(spec.seed, b)) for b in range(spec.replications)]
        true_ar = model.ar
        target = cell.target()
        rows = {row.estimator: row for row in table.rows}
        values = {}
        for kind in cell.kinds:
            per_rep = []
            for x in xs:
                if cell.acf_lags is not None:
                    if kind == "regular":
                        c = R.biased_autocov(x, cell.acf_lags)  # equals the Riemann ACF exactly
                    else:
                        v, _ = R.estimate(kind, x, ACF_POINTS, 0.5, true_ar)
                        c = R.riemann_autocov(R.thresholded(v), cell.acf_lags)
                    per_rep.append(c[1:] / c[0])
                    continue
                v, _ = R.estimate(kind, x, cell.n, 0.0, true_ar)
                vals = R.thresholded(v) if kind in COMPLETE_KINDS else v.real
                if cell.smoothing is not None:
                    vals = R.smooth_wrap(vals, R.window_weights(*cell.smoothing))
                per_rep.append(vals)
            values[kind] = np.array(per_rep)
            ref = (R.acf_summary if cell.acf_lags is not None else R.density_summary)(values[kind], target)
            row = rows.get(kind)
            if not fail.expect(row is not None, f"{cell.label}: no row for {kind}"):
                continue
            for name in ("imse", "ibias", "imse_se"):
                fail.expect(
                    _scalar_close(getattr(row, name), ref[name]),
                    f"{cell.label} seed {spec.seed}: {kind} {name} {getattr(row, name)!r} != reference {ref[name]!r}",
                )
            if cell.acf_lags is not None:
                fail.expect(
                    R.close(row.per_lag_mse, ref["per_lag_mse"], 1e-8),
                    f"{cell.label} seed {spec.seed}: {kind} per-lag MSE differs from the reference",
                )
        return values

    def table_properties(self, cell: Cell, table, fail: Failures) -> None:
        fail.expect(
            [row.estimator for row in table.rows] == list(cell.kinds),
            f"{cell.label}: rows {[row.estimator for row in table.rows]} != {list(cell.kinds)}",
        )
        for row in table.rows:
            fail.expect(
                all(math.isfinite(getattr(row, f)) and getattr(row, f) >= 0.0 for f in ("imse", "ibias", "imse_se", "ibias_se")),
                f"{cell.label}: {row.estimator} has a negative or non-finite figure",
            )

    def chunk_properties(self, chosen: dict, fail: Failures) -> None:
        for label, (cell, table, values) in chosen.items():
            rows = {row.estimator: row for row in table.rows}
            if cell.acf_lags is None and cell.smoothing is None and "regular" in values:
                self._fejer(cell, values["regular"], fail)
            if cell.model == "m1" and cell.n == 20 and "complete-true" in rows and cell.acf_lags is None:
                fail.expect(
                    rows["complete-true"].ibias < rows["regular"].ibias,
                    f"{label}: complete-true IBIAS {rows['complete-true'].ibias} not below regular {rows['regular'].ibias}",
                )
            if cell.smoothing is not None:
                fail.expect(
                    rows["regular"].imse > 10.0 * rows["tapered-complete"].imse,
                    f"{label}: smoothed tapered-complete IMSE {rows['tapered-complete'].imse} not 10x below regular {rows['regular'].imse}",
                )
            if cell.acf_lags is not None:
                fail.expect(
                    rows["complete"].ibias < rows["regular"].ibias,
                    f"{label}: ACF complete bias {rows['complete'].ibias} not below regular {rows['regular'].ibias}",
                )

    def _fejer(self, cell: Cell, regular: np.ndarray, fail: Failures) -> None:
        """Per-frequency mean relative bias agrees with the Fejer expectation."""
        w = R.grid_frequencies(cell.n, 0.0)
        f = cell.density(w)
        expected = np.array([oracle.fejer_expected_periodogram(cell.density, cell.n, wk) for wk in w]) / f
        rel = regular / f[None, :]
        se = rel.std(axis=0, ddof=1) / math.sqrt(rel.shape[0])
        z = np.max(np.abs(rel.mean(axis=0) - expected) / se)
        fail.expect(z < FEJER_Z, f"{cell.label}: regular relative bias departs from the Fejer expectation (max |z| = {z:.2f})")

    def cross_cell_properties(self, timed: list, fail: Failures) -> None:
        """Bartlett and Hann windows coincide at m = 2, so their rows must match."""
        by_round: dict = {}
        for j in timed:
            if j.item.smoothing is not None:
                by_round.setdefault(j.round, {})[j.item.smoothing[0]] = j.output
        for r, tables in by_round.items():
            if len(tables) != 2:
                continue
            for a, b in zip(tables["bartlett"].rows, tables["hann"].rows):
                for name in ("imse", "ibias"):
                    x, y = getattr(a, name), getattr(b, name)
                    fail.expect(abs(x - y) <= 1e-12 * max(1.0, abs(x)), f"round {r}: Bartlett and Hann {a.estimator} {name} differ")


def mc_density(seed: int) -> MonteCarlo:
    kinds = ("regular", "complete-true", "complete")
    return MonteCarlo([
        Cell("m1-0.9-n20", "m1", 0.9, 20, kinds, chunk=250, group=0),
        Cell("m1-0.7-n300", "m1", 0.7, 300, kinds, chunk=250, group=1),
    ], seed)


def mc_smooth_acf(seed: int) -> MonteCarlo:
    kinds = ("regular", "tapered", "complete", "tapered-complete")
    return MonteCarlo([
        Cell("m2-n50-bartlett", "m2", None, 50, kinds, chunk=150, group=0, smoothing=("bartlett", 2)),
        Cell("m2-n50-hann", "m2", None, 50, kinds, chunk=150, group=0, smoothing=("hann", 2)),
        Cell("m1-0.9-n20-acf", "m1", 0.9, 20, ("regular", "complete"), chunk=150, group=1, acf_lags=ACF_LAGS),
    ], seed)


# --- single long series -----------------------------------------------------

# Length classes of one round.  Class k takes lengths base_k - 100 ..
# base_k + 99, starting from the top and visiting each once in 200 rounds.
# So a length comes back only after 800 other series, which no cache of
# phase matrices could hold, and the largest lengths (which set the peak
# resident set) come in the first round whatever the seed.
#
# Lengths stay below 1400 (phase matrices of 31 MB at most).  With lengths
# up to 4000 every series mapped and faulted in hundreds of MB afresh,
# system time was 16% of the run, and whole runs went twice as slow while
# other tenants of the machine loaded its memory.
LENGTH_BASES = (1300, 1000, 700, 400)
LENGTH_BAND = 200
WARMUP_LENGTH = 128
CHECKED_ROUNDS = 8  # rounds kept, by seeded reservoir sampling, for the checks


class LongSeries:
    """Whole analyses of single series of assorted, distinct lengths."""

    def __init__(self, seed: int):
        self.seed = seed
        self.kept: list = []  # the warm-up, then sampled rounds
        self._rounds = 0
        self._rng = np.random.default_rng([seed, 0x5A])

    def record(self, jobs: list) -> None:
        """Keep the warm-up and a uniform seeded sample of CHECKED_ROUNDS rounds."""
        if jobs[0].round is None:
            self.kept.append(jobs)
            return
        self._rounds += 1
        if len(self.kept) <= CHECKED_ROUNDS:
            self.kept.append(jobs)
            return
        slot = self._rng.integers(self._rounds)
        if slot < CHECKED_ROUNDS:
            self.kept[1 + slot] = jobs

    def _series(self, n: int, *where: int):
        rng = np.random.default_rng([self.seed, *where])
        lam = rng.uniform(0.5, 0.9)
        mean = rng.uniform(-5.0, 5.0)
        return R.simulate([0.0, -lam * lam], [], n, derived_seed(self.seed, *where)) + mean

    def warmup(self) -> list:
        return [self._job(self._series(WARMUP_LENGTH, 1 << 20), None)]

    def round(self, r: int) -> list:
        offset = LENGTH_BAND // 2 - 1 - (73 * r) % LENGTH_BAND
        return [self._job(self._series(base + offset, r, k), r) for k, base in enumerate(LENGTH_BASES)]

    def _job(self, x, r):
        return Job(ops=1, call=lambda: analyse(x), round=r, item=x)

    def check(self, fail: Failures) -> None:
        for jobs in self.kept:
            for j in jobs:
                if j.output is not None:
                    check_analysis(j.item, j.output, fail)


def analyse(x: np.ndarray) -> dict:
    """What a user does with one series: two completed periodograms, ACF, Whittle AR(2)."""
    ts = ps.TimeSeries(x).center()
    grid = ps.FrequencyGrid.fourier(ts.n)
    complete = ps.evaluate_estimator(ts, ps.EstimatorSpec("complete"), grid)
    tapered = ps.evaluate_estimator(ts, ps.EstimatorSpec("tapered-complete"), grid)
    cfg = ps.SpectralMeanConfig(threshold=R.THRESHOLD)
    autocov, rho = ps.acf_estimate(ts, ACF_LAGS, ps.EstimatorSpec("complete"), cfg)
    fit = ps.whittle_fit(ts, ps.ar_family(2), ps.EstimatorSpec("complete"), [0.1, 0.1], cfg)
    return {
        "complete": complete.values,
        "order": complete.meta.order,
        "tapered": tapered.values,
        "autocov": autocov,
        "rho": rho,
        "theta": fit.theta,
    }


def check_analysis(raw: np.ndarray, out: dict, fail: Failures) -> None:
    n = raw.size
    x = raw - raw.mean()
    v, order = R.estimate("complete", x, n, 0.0)
    fail.expect(out["order"] == order, f"n={n}: AIC order {out['order']} != reference {order}")
    fail.expect(R.close(out["complete"], v, RTOL), f"n={n}: complete periodogram differs from the reference")
    vt, _ = R.estimate("tapered-complete", x, n, 0.0)
    fail.expect(R.close(out["tapered"], vt, RTOL), f"n={n}: tapered-complete periodogram differs from the reference")
    vu, _ = R.estimate("complete", x, ACF_POINTS, 0.5)
    c = R.riemann_autocov(R.thresholded(vu), ACF_LAGS)
    fail.expect(R.close(out["autocov"], c, RTOL), f"n={n}: autocovariances differ from the reference")
    fail.expect(R.close(out["rho"], c / c[0], RTOL), f"n={n}: autocorrelations differ from the reference")
    # On causal AR(2) parameters the Whittle objective is the quadratic whose
    # minimizer is the Yule-Walker solution on the estimate's autocovariances.
    theta = R.yule_walker2(c)
    fail.expect(
        bool(np.max(np.abs(out["theta"] - theta)) < 1e-5),
        f"n={n}: Whittle AR(2) fit {out['theta']} != Yule-Walker minimizer {theta}",
    )


WORKLOADS = {"mc-density": mc_density, "mc-smooth-acf": mc_smooth_acf, "long-series": LongSeries}
