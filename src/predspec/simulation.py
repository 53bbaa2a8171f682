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
from dataclasses import dataclass, replace

import numpy as np
import scipy.signal

from .arfit import ArmaModel, arma_expand
from .complete import Explicit
from .core import FrequencyGrid, TimeSeries
from .estimators import EstimatorSpec, _estimate_block, _plans
from .exceptions import DomainError
from .integrated import _cosine_moments, _cosine_table, _smooth_rows, spectral_window

__all__ = [
    "split_seed",
    "simulate_arma",
    "builtin_models",
    "ExperimentSpec",
    "MetricRow",
    "MetricTable",
    "run_experiment",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def split_seed(seed: int, index: int) -> int:
    """Derive a 64-bit stream seed for replication `index` from a base seed.

    SplitMix64 finalizer over ``seed + (index + 1) * golden_gamma``; the
    constants are the standard ones, fixed here so any reimplementation can
    reproduce the same stream assignment.
    """
    if index < 0:
        raise DomainError("replication index must be nonnegative")
    z = (int(seed) + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _simulate_rows(model: ArmaModel, n: int, seeds) -> np.ndarray:
    """One sample path of length n per seed, each from its own generator."""
    burn = max(1000, 50 * (model.p + model.q))
    eps = np.array([np.random.default_rng(seed).standard_normal(n + burn) for seed in seeds])
    if model.sigma2 != 1.0:
        eps *= np.sqrt(model.sigma2)
    b = np.concatenate(([1.0], model.ma))
    a = np.concatenate(([1.0], -model.ar))
    return scipy.signal.lfilter(b, a, eps, axis=1)[:, burn:]


def simulate_arma(model: ArmaModel, n: int, seed: int) -> TimeSeries:
    """Gaussian ARMA sample path of length n.

    The recursion starts from zeros and discards a burn-in of
    max(1000, 50*(P+Q)) steps; by then initialization effects are below
    float precision for any model admissible under the causality margin.
    Identical (model, n, seed) inputs give bit-identical output.
    """
    if n < 1:
        raise DomainError("sample length must be >= 1")
    if seed < 0:
        raise DomainError("seed must be a nonnegative integer")
    return TimeSeries(_simulate_rows(model, n, [seed])[0])


def builtin_models(which: str, lam: float | None = None) -> ArmaModel:
    """The two reference processes used by the shipped experiments.

    "m1": AR(2) with conjugate roots of modulus `lam` at angles +-pi/2,
    i.e. x[t] = -lam**2 * x[t-2] + e[t]; its density peaks at pi/2.
    "m2": ARMA(3, 2) with AR roots from factors (1 - 0.7z) and a conjugate
    pair 0.9*exp(+-1j), MA part 1 + 0.5z + 0.5z**2, unit innovation variance.
    """
    if which == "m1":
        if lam is None or not 0.0 < lam < 1.0:
            raise DomainError("m1 needs a root modulus lam in (0, 1)")
        return ArmaModel(ar=[0.0, -lam * lam], ma=[], sigma2=1.0)
    if which == "m2":
        if lam is not None:
            raise DomainError("m2 takes no parameter")
        phi = np.array([1.0, -0.7])
        for root in (0.9 * np.exp(1j), 0.9 * np.exp(-1j)):
            phi = np.convolve(phi, np.array([1.0, -root]))
        ar = -phi.real[1:]
        return ArmaModel(ar=ar, ma=[0.5, 0.5], sigma2=1.0)
    raise DomainError(f"unknown builtin model {which!r}")


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
    generating model, so it may not carry a source of its own.
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
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.n < 4:
            raise DomainError("experiments need n >= 4")
        if self.replications < 1:
            raise DomainError("need at least one replication")
        if not self.estimators:
            raise DomainError("need at least one estimator")
        for est in self.estimators:
            if not isinstance(est, EstimatorSpec):
                raise DomainError("estimators must be EstimatorSpec instances")
            if est.kind == "complete-true" and est.source is not None:
                raise DomainError("complete-true uses the generating model; give it no source")
        if self.seed < 0:
            raise DomainError("seed must be a nonnegative integer")
        if not (np.isfinite(self.threshold) and self.threshold > 0.0):
            raise DomainError("threshold must be positive")
        if self.smoothing is not None:
            kind, m = self.smoothing
            spectral_window(kind, m)  # validates
            object.__setattr__(self, "smoothing", (kind, int(m)))
            if 2 * self.smoothing[1] + 1 > self.n:
                raise DomainError("window wider than the frequency grid")
            if self.acf_lags is not None:
                raise DomainError("smoothing and ACF modes are mutually exclusive")
        if self.acf_lags is not None:
            if not 1 <= self.acf_lags < self.n:
                raise DomainError("acf_lags must satisfy 1 <= lags < n")
            if self.acf_points < 8:
                raise DomainError("acf_points must be >= 8")


@dataclass(frozen=True)
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
            expansion = arma_expand(spec.model, M=max(spec.acf_lags, 1))
            c = expansion.autocov.lags
            self.true_target = c[1 : spec.acf_lags + 1] / c[0]
            self.dim = spec.acf_lags
            self.cosines = _cosine_table(self.grid.frequencies, spec.acf_lags)
        else:
            self.mode = "smoothed" if spec.smoothing is not None else "periodogram"
            self.grid = FrequencyGrid.fourier(n)
            self.true_target = spec.model.density(self.grid.frequencies)
            self.dim = n
            self.window = None if spec.smoothing is None else spectral_window(*spec.smoothing)
        estimators = spec.estimators
        if any(est.kind == "complete-true" for est in spec.estimators):
            if spec.model.q != 0:
                raise DomainError(
                    "complete-true estimator is undefined for models with a moving-average part"
                )
            truth = Explicit(spec.model.pure_ar())
            estimators = [replace(e, source=truth) if e.kind == "complete-true" else e for e in estimators]
        self.plans = _plans(estimators, n)

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
    target = prep.true_target
    for est, values in zip(spec.estimators, slots):
        if prep.mode == "acf":
            rel = values  # absolute errors for autocorrelations
            err = values - target[None, :]
            bias_vec = values.mean(axis=0) - target
            per_lag_mse = np.mean(err**2, axis=0)
            per_lag_bias = bias_vec**2
        else:
            rel = values / target[None, :]  # relative errors for densities
            err = rel - 1.0
            bias_vec = rel.mean(axis=0) - 1.0
            per_lag_mse = None
            per_lag_bias = None
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
                per_lag_mse=per_lag_mse,
                per_lag_bias=per_lag_bias,
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
    if threads < 1:
        raise DomainError("threads must be >= 1")
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
        for slot, est, values in zip(slots, spec.estimators, block):
            slot[b0:b1] = timed("reduce", lambda: prep.reduce(est, values))
    rows = timed("summarize", lambda: _summarize(spec, prep, slots))
    runtime = time.perf_counter() - start
    return MetricTable(mode=prep.mode, rows=rows, runtime_seconds=runtime, stage_seconds=stages)
