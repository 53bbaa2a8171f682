"""Integrated spectral statistics: weighted means, autocovariance recovery,
smoothing, and Whittle-type fitting.

A spectral mean is (2*pi)**-1 * integral of g(w) * f(w) dw with f replaced
by a periodogram-type estimate; two quadratures are supported, a midpoint
Riemann rule over uniform cells and the plain average over the Fourier grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence, Union

import numpy as np
import scipy.optimize

from .arfit import _ar_phases
from .core import FrequencyGrid, PeriodogramEstimate, TimeSeries, _frozen_array, _integer
from .complete import threshold_real
from .estimators import EstimatorSpec, evaluate_estimator
from .exceptions import DomainError, NumericalError

__all__ = [
    "SpectralWindow",
    "spectral_window",
    "RiemannIntegral",
    "FourierSum",
    "SpectralMeanConfig",
    "spectral_mean",
    "acf_estimate",
    "smooth_periodogram",
    "SpectralFamily",
    "ar_family",
    "WhittleResult",
    "whittle_fit",
]


@dataclass(frozen=True)
class SpectralWindow:
    """Normalized smoothing weights W(-m..m), summing to 1."""

    kind: str
    m: int
    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self, "weights", self.weights, float)
        if w.size != 2 * self.m + 1:
            raise DomainError("window must hold 2m+1 weights")
        if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError("window weights must be nonnegative and sum to 1")


def spectral_window(kind: str, m: int) -> SpectralWindow:
    """Daniell, Bartlett, or Hann smoothing weights on offsets -m..m.

    Shapes before normalization: Daniell is flat; Bartlett is 1 - |j|/m;
    Hann is 0.5*(1 - cos(pi*(j+m)/m)).  At m = 2 Bartlett and Hann coincide
    after normalization.
    """
    m = _integer(m, "window half-width m")
    if m < 1:
        raise DomainError("window half-width m must be >= 1")
    j = np.arange(-m, m + 1, dtype=float)
    if kind == "daniell":
        raw = np.ones(2 * m + 1)
    elif kind == "bartlett":
        raw = 1.0 - np.abs(j) / m
    elif kind == "hann":
        raw = 0.5 * (1.0 - np.cos(np.pi * (j + m) / m))
    else:
        raise DomainError(f"unknown window kind {kind!r}")
    return SpectralWindow(kind=kind, m=m, weights=raw / raw.sum())


@dataclass(frozen=True)
class RiemannIntegral:
    """Midpoint rule over `points` uniform cells of [0, 2*pi]."""

    points: int = 500

    def __post_init__(self):
        if self.points < 8:
            raise DomainError("Riemann rule needs at least 8 cells")


@dataclass(frozen=True)
class FourierSum:
    """Average over the Fourier grid 2*pi*k/n, k = 1..n."""


@dataclass(frozen=True)
class SpectralMeanConfig:
    mode: Union[RiemannIntegral, FourierSum] = field(default_factory=RiemannIntegral)
    threshold: float | None = None

    def grid_for(self, n: int) -> FrequencyGrid:
        """The evaluation grid this quadrature expects for a length-n series."""
        if isinstance(self.mode, RiemannIntegral):
            return FrequencyGrid.uniform(self.mode.points)
        return FrequencyGrid.fourier(n)


def _prepared_values(pg: PeriodogramEstimate, cfg: SpectralMeanConfig) -> np.ndarray:
    if cfg.threshold is not None:
        pg = threshold_real(pg, cfg.threshold)
    return pg.values


def spectral_mean(
    g: Callable[[np.ndarray], np.ndarray],
    pg: PeriodogramEstimate,
    cfg: SpectralMeanConfig,
) -> complex:
    """(2*pi)**-1 * integral g * estimate, by the configured quadrature.

    Riemann mode requires the estimate on the matching uniform midpoint grid;
    Fourier mode requires the Fourier grid, where the rule reduces to the
    plain average of g times the estimate.  `g` must accept a frequency
    array.  The optional threshold floors the real part first.
    """
    vals = _prepared_values(pg, cfg)
    w = pg.grid.frequencies
    if isinstance(cfg.mode, RiemannIntegral):
        if pg.grid.kind != "uniform" or pg.grid.size != cfg.mode.points:
            raise DomainError(
                "Riemann quadrature needs the estimate on its uniform midpoint grid"
            )
    elif isinstance(cfg.mode, FourierSum):
        if pg.grid.kind != "fourier":
            raise DomainError("Fourier-sum quadrature needs the estimate on the Fourier grid")
    else:
        raise DomainError(f"unknown quadrature mode {cfg.mode!r}")
    gw = np.asarray(g(w))
    if gw.shape != w.shape:
        raise DomainError("g must evaluate elementwise on the frequency array")
    return complex(np.mean(gw * vals))


def _cosine_table(freqs: np.ndarray, lags: int) -> np.ndarray:
    """cos(r*w) on the grid (|grid|, lags + 1), for r = 0..lags."""
    return np.cos(np.outer(freqs, np.arange(lags + 1)))


def _cosine_moments(vals: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Grid means of cos(r*w) * vals along the last axis, from `_cosine_table`."""
    return vals @ table / table.shape[0]


def _smooth_rows(vals: np.ndarray, window: SpectralWindow) -> np.ndarray:
    """Circular moving average sum_j W(j) * vals[..., (k + j) mod n] along the last axis.

    Needs m <= n: the rows are padded circularly by m on each side once, and
    each offset is a view of the padded rows.
    """
    m, n = window.m, vals.shape[-1]
    padded = np.concatenate((vals[..., n - m :], vals, vals[..., :m]), axis=-1)
    out = np.zeros(vals.shape)
    for i, weight in enumerate(window.weights):  # offset j = i - m
        out += weight * padded[..., i : i + n]
    return out


def acf_estimate(
    ts: TimeSeries,
    lags: int,
    estimator: EstimatorSpec,
    cfg: SpectralMeanConfig,
):
    """Autocovariances and autocorrelations recovered from a periodogram.

    c(r) = (2*pi)**-1 * integral cos(r*w) * estimate(w) dw for r = 0..lags,
    with the estimate evaluated on the quadrature grid of `cfg`;
    autocorrelations divide by c(0).  For the regular periodogram under the
    Fourier sum this reproduces the circularized sample autocovariances; the
    Riemann rule approximates the plain biased ones.  Thresholding (set it
    in `cfg` for completed kinds) guarantees a positive c(0).
    """
    if lags < 0:
        raise DomainError("lag count must be nonnegative")
    if lags >= ts.n:
        raise DomainError("lag range must stay below the series length")
    grid = cfg.grid_for(ts.n)
    pg = evaluate_estimator(ts, estimator, grid)
    autocov = _cosine_moments(_prepared_values(pg, cfg).real, _cosine_table(grid.frequencies, lags))
    if autocov[0] <= 0.0:
        raise NumericalError(
            "nonpositive variance estimate; use a thresholded estimate (set cfg.threshold)"
        )
    return autocov, autocov / autocov[0]


def smooth_periodogram(pg: PeriodogramEstimate, window: SpectralWindow) -> PeriodogramEstimate:
    """Circular moving average of the real part over the Fourier grid.

    out[k] = sum_{|j| <= m} W(j) * Re in[(k + j) mod n].  The estimate's kind
    is preserved; the applied window is recorded in meta.
    """
    if pg.grid.kind != "fourier":
        raise DomainError("smoothing is defined over the Fourier grid")
    n = pg.grid.size
    if 2 * window.m + 1 > n:
        raise DomainError("window wider than the frequency grid")
    out = _smooth_rows(pg.values.real, window)
    meta = replace(pg.meta, window=f"{window.kind}(m={window.m})")
    return PeriodogramEstimate(pg.grid, out.astype(complex), kind=pg.kind, meta=meta)


@dataclass(frozen=True)
class SpectralFamily:
    """Parametric spectral density family with box constraints.

    `on_grid(w)` binds the family to a frequency array and returns the
    density on it, theta -> f_theta(w), an array shaped like `w` and
    positive for admissible theta.  Work that depends only on the grid
    (phase tables, say) belongs in `on_grid`, which `whittle_fit` calls once
    per fit, not in the returned function, which it calls per evaluation.
    `bounds` holds an inclusive (lo, hi) box per parameter, lo < hi; either
    end may be infinite.
    """

    on_grid: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]
    bounds: tuple
    name: str = ""

    def __post_init__(self):
        try:
            box = np.asarray(self.bounds, dtype=float)
        except (TypeError, ValueError):
            box = np.empty(0)
        if box.ndim != 2 or box.shape[0] < 1 or box.shape[1] != 2 or not np.all(box[:, 0] < box[:, 1]):
            raise DomainError("bounds must be a non-empty tuple of (lo, hi) pairs with lo < hi")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def density(self, theta: np.ndarray, w: np.ndarray) -> np.ndarray:
        """f_theta(w) for one theta; binds the grid afresh on every call."""
        return self.on_grid(w)(theta)


def ar_family(p: int, limit: float = 0.99) -> SpectralFamily:
    """AR(p) family with unit innovation variance: f = 1/|a_theta(w)|**2.

    The Whittle objective's minimizer over the coefficients does not depend
    on the innovation variance (the log term integrates to its logarithm),
    so the variance is profiled out rather than fitted.  `on_grid` builds
    the (|w|, p) phase table exp(-1j*j*w) once; each evaluation is then one
    contraction 1 - theta . table, the same bits as the AR transfer
    polynomial.
    """
    if p < 1:
        raise DomainError("family order must be >= 1")

    def on_grid(w: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        phases = _ar_phases(w, p)

        def density(theta: np.ndarray) -> np.ndarray:
            aw = 1.0 - np.inner(np.asarray(theta, dtype=float), phases)
            return 1.0 / (aw.real**2 + aw.imag**2)

        return density

    return SpectralFamily(on_grid=on_grid, bounds=((-limit, limit),) * p, name=f"ar({p})")


@dataclass(frozen=True)
class WhittleResult:
    theta: np.ndarray
    value: float
    trace: tuple
    converged: bool


def whittle_fit(
    ts: TimeSeries,
    family: SpectralFamily,
    estimator: EstimatorSpec,
    init: Sequence[float],
    cfg: SpectralMeanConfig | None = None,
) -> WhittleResult:
    """Minimize the spectral-divergence objective over the family box.

    K(theta) = quadrature mean of estimate/f_theta + quadrature mean of
    log f_theta (the latter approximating (2*pi)**-1 * integral log f_theta).
    The family is bound to the quadrature grid once per fit, through
    `family.on_grid`; a bound density whose shape is not the grid's raises
    DomainError.  Derivative-free simplex search with restarts on stalls;
    convergence is a simplex diameter below 1e-8 within a budget of 500*dim
    evaluations.  Non-convergence flags the result instead of raising.
    """
    if cfg is None:
        cfg = SpectralMeanConfig()
    theta0 = np.asarray(init, dtype=float)
    if theta0.ndim != 1 or theta0.size != family.dim:
        raise DomainError("init length must match the family dimension")
    for val, (lo, hi) in zip(theta0, family.bounds):
        if not lo <= val <= hi:
            raise DomainError("init must lie inside the family's box constraints")

    grid = cfg.grid_for(ts.n)
    pg = evaluate_estimator(ts, estimator, grid)
    vals = _prepared_values(pg, cfg).real
    w = grid.frequencies
    density = family.on_grid(w)
    trace: list = []

    def objective(theta: np.ndarray) -> float:
        f = np.asarray(density(theta), dtype=float)
        if f.shape != w.shape:
            raise DomainError("the family density must evaluate elementwise on the frequency array")
        if np.isfinite(f).all() and (f > 0.0).all():
            # sum/size is np.mean's arithmetic without its dispatch overhead
            value = float((vals / f).sum() / f.size + np.log(f).sum() / f.size)
        else:
            value = np.inf
        trace.append((theta.copy(), value))
        return value

    if not np.isfinite(objective(theta0)):
        raise DomainError("objective is not finite at the initial point")

    budget = 500 * family.dim
    best_x, best_val = theta0, trace[-1][1]
    converged = False
    while len(trace) < budget:
        res = scipy.optimize.minimize(
            objective,
            best_x,
            method="Nelder-Mead",
            bounds=family.bounds,
            options={
                "xatol": 1e-8,
                "fatol": 1e-12,
                "maxfev": budget - len(trace),
                "initial_simplex": None,
            },
        )
        if res.fun <= best_val:
            best_x, best_val = np.asarray(res.x, dtype=float), float(res.fun)
        if res.status == 0:
            converged = True
            break
        # stalled on the evaluation budget of this inner run: restart from the
        # incumbent with a fresh simplex unless the overall budget is spent
        if len(trace) >= budget:
            break
    return WhittleResult(
        theta=best_x, value=best_val, trace=tuple(trace), converged=converged
    )
