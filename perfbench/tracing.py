"""Spans around predspec's public functions, recorded from outside the program.

`Tracer.install()` rebinds each traced function, in every loaded predspec
module that holds it, to a wrapper that records a span (name, start, end,
parent span, job) and a few computed counts; `uninstall()` restores
the originals, so untraced rounds run the program untouched.  Spans stay in
memory until `write()`.  Work inside pool workers is not seen.
"""
from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time

# (module, attribute, span name).  `_simulate_values` is the simulation step
# `run_experiment` calls per replication, `_phase_matrix` the cache behind
# `dft`, and `_Prep.evaluate` the runner's own smoothing/ACF reduction; they
# are traced only while they exist.
TARGETS = [
    ("simulation", "simulate_arma", "simulation.simulate_arma"),
    ("simulation", "_simulate_values", "simulation.simulate"),
    ("simulation", "split_seed", "simulation.split_seed"),
    ("simulation", "run_experiment", "simulation.run_experiment"),
    ("simulation", "_Prep.evaluate", "simulation.reduce"),
    ("core", "dft", "core.dft"),
    ("core", "_phase_matrix", "core.phase_matrix"),
    ("core", "raw_periodogram", "core.raw_periodogram"),
    ("core", "sample_autocov", "core.sample_autocov"),
    ("core", "tukey_taper", "core.tukey_taper"),
    ("arfit", "aic_select", "arfit.aic_select"),
    ("arfit", "yule_walker_fit", "arfit.yule_walker_fit"),
    ("arfit", "levinson_durbin", "arfit.levinson_durbin"),
    ("arfit", "arma_expand", "arfit.arma_expand"),
    ("complete", "predictive_dft", "complete.predictive_dft"),
    ("complete", "predictive_dft_truncated_infinite", "complete.predictive_dft_truncated"),
    ("complete", "complete_periodogram", "complete.complete_periodogram"),
    ("complete", "threshold_real", "complete.threshold_real"),
    ("estimators", "evaluate_estimator", "estimators.evaluate_estimator"),
    ("integrated", "smooth_periodogram", "integrated.smooth_periodogram"),
    ("integrated", "acf_estimate", "integrated.acf_estimate"),
    ("integrated", "spectral_mean", "integrated.spectral_mean"),
    ("integrated", "whittle_fit", "integrated.whittle_fit"),
]

LAYERS = ("simulation", "core", "arfit", "complete", "estimators", "integrated")
ESTIMATOR_KINDS = ("regular", "tapered", "complete-true", "complete", "tapered-complete")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _phase_counts(args, kwargs):
    n, freqs = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "freqs")
    miss = (n, freqs.tobytes()) not in getattr(sys.modules["predspec.core"], "_PHASE_CACHE", {})
    return {"bytes": 16 * n * freqs.size, "miss": int(miss)}


def _dense_correction_bytes(args, kwargs, out):
    """Size of the dense n x |grid| complex correction matrix the call builds."""
    ts, grid = _arg(args, kwargs, 0, "ts"), _arg(args, kwargs, 2, "grid")
    return {"bytes": 16 * ts.n * grid.size}


# Counts taken at a span: `pre` runs before the call, `post` after it; both
# run outside the span's own interval.
PRE = {"core.phase_matrix": _phase_counts}
POST = {
    "core.dft": lambda a, k, out: {"grid": _arg(a, k, 1, "grid").kind},
    "arfit.aic_select": lambda a, k, out: {"k_n": out.k_n, "order": out.chosen_p},
    "complete.predictive_dft": _dense_correction_bytes,
    "complete.threshold_real": lambda a, k, out: {
        "clipped": float((_arg(a, k, 0, "pg").values.real < _arg(a, k, 1, "delta")).mean())
    },
    "estimators.evaluate_estimator": lambda a, k, out: {"kind": _arg(a, k, 1, "spec").kind},
    "integrated.whittle_fit": lambda a, k, out: {"evals": len(out.trace)},
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, job, counts]
        self._stack: list = []
        self.job = -1
        self._patches: list = []  # (owner, attribute, original)

    # --- recording ---------------------------------------------------------
    def _wrap(self, name, fn):
        pre, post, spans, stack = PRE.get(name), POST.get(name), self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = pre(args, kwargs) if pre else None
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, counts]
            spans.append(record)
            stack.append(idx)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if post:
                record[5] = {**(counts or {}), **post(args, kwargs, out)}
            return out

        return wrapper

    def install(self):
        pkg = sys.modules["predspec"]
        modules = [m for k, m in sys.modules.items() if k == "predspec" or k.startswith("predspec.")]
        for mod_name, attr, name in TARGETS:
            owner = getattr(pkg, mod_name)
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                orig = vars(cls)[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[s[0]], round((s[1] - t0) * 1e6, 1), round((s[2] - t0) * 1e6, 1), s[3], s[4]]
            for s in self.spans
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": names, "columns": ["name", "start_us", "end_us", "parent", "job"], "spans": rows}, fh)

    # --- per-layer metrics --------------------------------------------------
    def metrics(self, ops: int) -> dict:
        """Per-layer figures over the recorded spans of `ops` operations.

        `<function>_ms` is inclusive time in the function per operation, except
        `simulation.simulate_ms` (median per simulated series); the `_s`
        figures are medians per `run_experiment` call; `_bytes` and
        `orders_fitted` are computed sums per operation; `self_ms_per_op` is a
        layer's time minus the time of the spans it called.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        by_name: dict = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(spans):
            dur = s[2] - s[1]
            by_name.setdefault(s[0], []).append((dur, dur - child_time[i], s[5] or {}))
            layer = s[0].split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += dur - child_time[i]

        per_op = 1.0 / max(ops, 1)

        def med(name, pick=lambda d, self_, c: d):
            vals = [pick(*r) for r in by_name.get(name, [])]
            return statistics.median(vals) if vals else 0.0

        def ms_per_op(name, where=lambda c: True, pick=lambda d, self_, c: d):
            return 1e3 * per_op * sum(pick(*r) for r in by_name.get(name, []) if where(r[2]))

        def total(name, key):
            return sum(r[2].get(key, 0) for r in by_name.get(name, []))

        def mean(name, key):
            vals = [r[2][key] for r in by_name.get(name, []) if key in r[2]]
            return statistics.fmean(vals) if vals else 0.0

        phase_calls = len(by_name.get("core.phase_matrix", []))
        out = {
            "simulation.simulate_ms": 1e3 * med("simulation.simulate"),
            "simulation.run_experiment_s": med("simulation.run_experiment"),
            "simulation.unaccounted_s": med("simulation.run_experiment", lambda d, s, c: s),
            "simulation.reduce_ms": ms_per_op("simulation.reduce", pick=lambda d, s, c: s),
            "core.dft_fourier_ms": ms_per_op("core.dft", lambda c: c.get("grid") == "fourier"),
            "core.dft_uniform_ms": ms_per_op("core.dft", lambda c: c.get("grid") == "uniform"),
            "core.dft_bytes": total("core.phase_matrix", "bytes") * per_op,
            "core.phase_cache_miss_share": total("core.phase_matrix", "miss") / phase_calls if phase_calls else 0.0,
            "core.raw_periodogram_ms": ms_per_op("core.raw_periodogram"),
            "core.sample_autocov_ms": ms_per_op("core.sample_autocov"),
            "arfit.aic_select_ms": ms_per_op("arfit.aic_select"),
            "arfit.orders_fitted": total("arfit.aic_select", "k_n") * per_op,
            "arfit.chosen_order_mean": mean("arfit.aic_select", "order"),
            "complete.predictive_dft_ms": ms_per_op("complete.predictive_dft"),
            "complete.correction_bytes": total("complete.predictive_dft", "bytes") * per_op,
            "complete.threshold_ms": ms_per_op("complete.threshold_real"),
            "complete.clipped_share": mean("complete.threshold_real", "clipped"),
        }
        for kind in ESTIMATOR_KINDS:
            out[f"estimators.{kind}_ms"] = ms_per_op(
                "estimators.evaluate_estimator", lambda c, k=kind: c.get("kind") == k
            )
        out.update({
            "integrated.smooth_ms": ms_per_op("integrated.smooth_periodogram"),
            "integrated.acf_ms": ms_per_op("integrated.acf_estimate"),
            "integrated.whittle_ms": ms_per_op("integrated.whittle_fit"),
            "integrated.whittle_evals": mean("integrated.whittle_fit", "evals"),
        })
        for layer in LAYERS:
            out[f"{layer}.self_ms_per_op"] = layer_self[layer] * 1e3 * per_op
        return out
