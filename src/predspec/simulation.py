"""Model simulation and Monte Carlo experiment harness.

Reproducibility contract: every replication b draws its innovations from a
generator seeded with ``split_seed(seed, b)``, a SplitMix64-style 64-bit
mix.  The runner simulates replications in blocks of a fixed size and
evaluates all estimators on a whole block in one pass, through the same row
kernels the single-series functions use; per-replication outputs land in
preallocated slots and are reduced in a fixed order, so the same spec gives
bit-identical tables on every run.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .arfit import ArmaModel, _arma, _arma_autocov, _filter, _polynomials
from .complete import Explicit, _estimate_block
from .core import FrequencyGrid, TimeSeries, _integer, _positive
from .estimators import EstimatorSpec, _plans
from .exceptions import DomainError
from .integrated import (
    SpectralMeanConfig,
    _check_window_fits,
    _cosine_moments,
    _cosine_table,
    _smooth_rows,
    spectral_window,
)

__all__ = [
    "split_seed",
    "simulate_arma",
    "builtin_models",
    "ExperimentSpec",
    "MetricRow",
    "MetricTable",
    "run_experiment",
]

# Seeds are the integers in [0, 2**64): SplitMix64 works modulo 2**64, so a
# wider range would give two seeds one stream.
_SEEDS = 1 << 64
_MASK64 = _SEEDS - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def split_seed(seed: int, index: int) -> int:
    """Derive a 64-bit stream seed for replication `index` from a base seed.

    SplitMix64 finalizer over ``seed + (index + 1) * golden_gamma``; the
    constants are the standard ones, fixed here so any reimplementation can
    reproduce the same stream assignment.  The seed must lie in [0, 2**64),
    the range on which ``seed -> split_seed(seed, index)`` is one-to-one.
    """
    index = _integer(index, "replication index", 0)
    z = (_integer(seed, "seed", 0, below=_SEEDS) + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _simulate_rows(model: ArmaModel, n: int, seeds) -> np.ndarray:
    """One sample path of length n per seed, each from its own generator."""
    burn = max(1000, 50 * (model.p + model.q))
    eps = np.array([np.random.default_rng(seed).standard_normal(n + burn) for seed in seeds])
    if model.sigma2 != 1.0:
        eps *= np.sqrt(model.sigma2)
    phi, psi = _polynomials(model)
    return _filter(psi, phi, eps)[:, burn:]


def simulate_arma(model: ArmaModel, n: int, seed: int) -> TimeSeries:
    """Gaussian ARMA sample path of length n.

    The recursion starts from zeros and discards a burn-in of
    max(1000, 50*(P+Q)) steps; by then initialization effects are below
    float precision for any model admissible under the causality margin.
    Identical (model, n, seed) inputs give bit-identical output.
    """
    n, seed = _integer(n, "sample length", 1), _integer(seed, "seed", 0)
    return TimeSeries(_simulate_rows(_arma(model), n, [seed])[0])


def builtin_models(which: str, lam: float | None = None) -> ArmaModel:
    """The two reference processes used by the shipped experiments.

    "m1": AR(2) with conjugate roots of modulus `lam` at angles +-pi/2,
    i.e. x[t] = -lam**2 * x[t-2] + e[t]; its density peaks at pi/2.
    "m2": ARMA(3, 2) with AR roots from factors (1 - 0.7z) and a conjugate
    pair 0.9*exp(+-1j), MA part 1 + 0.5z + 0.5z**2, unit innovation variance.
    """
    if which == "m1":
        if lam is None or not _positive(lam, "m1 root modulus lambda") < 1.0:
            raise DomainError("m1 needs a root modulus lambda in (0, 1)")
        return ArmaModel(ar=[0.0, -lam * lam], ma=[], sigma2=1.0)
    if which == "m2":
        if lam is not None:
            raise DomainError("m2 takes no parameter")
        phi = np.array([1.0, -0.7])
        for root in (0.9 * np.exp(1j), 0.9 * np.exp(-1j)):
            phi = np.convolve(phi, np.array([1.0, -root]))
        ar = -phi.real[1:]
        return ArmaModel(ar=ar, ma=[0.5, 0.5], sigma2=1.0)
    raise DomainError(f"unknown builtin model {which!r} (use m1 or m2)")


@dataclass(frozen=True)
class ExperimentSpec:
    """A full description of one Monte Carlo experiment.

    Modes: plain periodogram metrics on the Fourier grid; smoothed metrics
    when `smoothing` = (window kind, m); autocorrelation metrics when
    `acf_lags` is set (estimates recovered by the midpoint rule over
    `acf_points` cells).  `threshold` floors the real part of completed
    estimates; the raw kinds are never thresholded.  Replications use the
    process mean (zero) rather than re-centering each draw, matching the
    reference tables.  A "complete-true" estimator always uses the
    generating model, so it may not carry a source of its own.  `seed` lies
    in [0, 2**64), as in `split_seed`, and `acf_lags` below n.
    """

    model: ArmaModel
    n: int
    replications: int
    estimators: tuple
    seed: int
    threshold: float = 1e-3
    smoothing: tuple | None = None
    acf_lags: int | None = None
    acf_points: int = 500

    def __post_init__(self):
        _arma(self.model)
        try:
            object.__setattr__(self, "estimators", tuple(self.estimators))
        except TypeError:
            raise DomainError("estimators must be a sequence of EstimatorSpec instances") from None
        object.__setattr__(self, "n", _integer(self.n, "n", 4))
        for name, least, below in (("replications", 1, None), ("seed", 0, _SEEDS), ("acf_lags", 1, self.n)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _integer(getattr(self, name), name, least, below))
        # a midpoint cell count; None, which names the Fourier sum, is not one
        points = SpectralMeanConfig(self.acf_points).points
        object.__setattr__(self, "acf_points", _integer(points, "Riemann cell count"))
        object.__setattr__(self, "threshold", _positive(self.threshold, "threshold"))
        if not self.estimators:
            raise DomainError("need at least one estimator")
        for est in self.estimators:
            if not isinstance(est, EstimatorSpec):
                raise DomainError("estimators must be EstimatorSpec instances")
            if est.kind == "complete-true" and est.source is not None:
                raise DomainError("complete-true uses the generating model; give it no source")
        if self.smoothing is not None:
            try:
                kind, m = self.smoothing
            except (TypeError, ValueError):
                raise DomainError("smoothing must be a (window kind, m) pair") from None
            window = spectral_window(kind, m)
            _check_window_fits(window, self.n)
            object.__setattr__(self, "smoothing", (kind, window.m))
            if self.acf_lags is not None:
                raise DomainError("smoothing and ACF modes are mutually exclusive")


@dataclass(frozen=True, eq=False)
class MetricRow:
    """Accuracy summary for one estimator.

    For the periodogram modes `imse`/`ibias` are the relative integrated
    mean squared error and integrated squared bias over the Fourier grid;
    in ACF mode the same fields carry the lag-averaged MSE and squared bias
    of the autocorrelations (per-lag breakdowns included).  `*_se` are
    Monte Carlo standard errors (delta method for the bias terms).
    """

    estimator: str
    imse: float
    ibias: float
    imse_se: float
    ibias_se: float
    per_lag_mse: np.ndarray | None = None
    per_lag_bias: np.ndarray | None = None


@dataclass(frozen=True)
class MetricTable:
    """The rows of an experiment, its wall time, and that time's share per
    stage: "simulate", "estimate", "reduce" (threshold, smooth or ACF) and
    "summarize", in seconds."""

    mode: str
    rows: tuple
    runtime_seconds: float
    stage_seconds: dict


class _Prep:
    """Shared per-experiment state for evaluating blocks of replications.

    `plans` are the (taper, source) plans of the spec's estimators, with the
    generating model as the source of every "complete-true" estimator; the
    smoothing window and the ACF cosine table are built once here too.
    """

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        n = spec.n
        if spec.acf_lags is not None:
            self.mode = "acf"
            self.grid = FrequencyGrid.uniform(spec.acf_points)
            c = _arma_autocov(spec.model, spec.acf_lags)
            self.true_target = c[1:] / c[0]
            self.dim = spec.acf_lags
            self.cosines = _cosine_table(self.grid.frequencies, spec.acf_lags)
        else:
            self.mode = "smoothed" if spec.smoothing is not None else "periodogram"
            self.grid = FrequencyGrid.fourier(n)
            self.true_target = spec.model.density(self.grid.frequencies)
            self.dim = n
            self.window = None if spec.smoothing is None else spectral_window(*spec.smoothing)
        truth = None
        if any(est.kind == "complete-true" for est in spec.estimators):
            truth = Explicit(spec.model)
        self.plans = _plans(spec.estimators, n, truth)

    def reduce(self, est: EstimatorSpec, block: np.ndarray) -> np.ndarray:
        """Per-replication metric inputs from an estimator's block of evaluated
        rows: the completed kinds floored at the threshold, then smoothed or
        reduced to autocorrelations."""
        if est.completed:
            block = np.maximum(block.real, self.spec.threshold)
        if self.mode == "acf":
            autocov = _cosine_moments(block, self.cosines)
            return autocov[:, 1:] / autocov[:, :1]
        if self.mode == "smoothed":
            return _smooth_rows(block, self.window)
        return block


# Replications simulated and estimated together.  On a 2-core machine blocks
# of 64 ran the benchmark workloads no faster and raised their peak resident
# set by a further 2 MB, through the per-block (rows x grid) arrays.
_BLOCK = 32


def _summarize(spec: ExperimentSpec, prep: _Prep, slots) -> tuple:
    rows = []
    B = spec.replications
    acf = prep.mode == "acf"
    scale = 1.0 if acf else prep.true_target  # absolute errors for autocorrelations, relative for densities
    goal = prep.true_target / scale
    for est, values in zip(spec.estimators, slots):
        rel = values / scale
        err = rel - goal
        bias_vec = rel.mean(axis=0) - goal
        per_rep = np.mean(err**2, axis=1)
        mse = float(per_rep.mean())
        bias = float(np.mean(bias_vec**2))
        if B > 1:
            mse_se = float(per_rep.std(ddof=1) / np.sqrt(B))
            proj = rel @ (2.0 * bias_vec / bias_vec.size)
            bias_se = float(proj.std(ddof=1) / np.sqrt(B))
        else:
            mse_se = bias_se = float("nan")
        rows.append(
            MetricRow(
                estimator=est.label,
                imse=mse,
                ibias=bias,
                imse_se=mse_se,
                ibias_se=bias_se,
                per_lag_mse=np.mean(err**2, axis=0) if acf else None,
                per_lag_bias=bias_vec**2 if acf else None,
            )
        )
    return tuple(rows)


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> MetricTable:
    """Run the Monte Carlo experiment and summarize accuracy per estimator.

    Replications are simulated in blocks of a fixed size, each from its own
    `split_seed` stream.  All estimators are evaluated on the whole block in
    one pass that shares the DFTs and model fits they have in common, the
    completed kinds are floored at the spec's threshold, and the rows are
    smoothed or reduced to autocorrelations before they are summarized in
    index order.  A row of the table does not depend on the other
    estimators of the experiment.  `threads` (>= 1) is accepted for
    compatibility and has no effect: the table does not depend on it.
    """
    _integer(threads, "threads", 1)
    start = time.perf_counter()
    prep = _Prep(spec)  # validates estimator/model compatibility up front
    B = spec.replications
    slots = [np.empty((B, prep.dim)) for _ in spec.estimators]
    stages = dict.fromkeys(("simulate", "estimate", "reduce", "summarize"), 0.0)

    def timed(stage, fn):
        t0 = time.perf_counter()
        out = fn()
        stages[stage] += time.perf_counter() - t0
        return out

    for b0 in range(0, B, _BLOCK):
        b1 = min(b0 + _BLOCK, B)
        seeds = (split_seed(spec.seed, b) for b in range(b0, b1))  # derived within the simulate stage
        x = timed("simulate", lambda: _simulate_rows(spec.model, spec.n, seeds))
        block = timed("estimate", lambda: _estimate_block(prep.plans, x, prep.grid))
        for slot, est, values in zip(slots, spec.estimators, block.values):
            slot[b0:b1] = timed("reduce", lambda: prep.reduce(est, values))
    rows = timed("summarize", lambda: _summarize(spec, prep, slots))
    runtime = time.perf_counter() - start
    return MetricTable(mode=prep.mode, rows=rows, runtime_seconds=runtime, stage_seconds=stages)
