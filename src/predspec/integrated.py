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

from .arfit import _ar_phases
from .core import FrequencyGrid, PeriodogramEstimate, TimeSeries, _integer, _positive, _vector
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
        w = _vector(self, "weights", "window weights")
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
    m = _integer(m, "window half-width m", 1)
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
        object.__setattr__(self, "points", _integer(self.points, "Riemann cell count", 8))


@dataclass(frozen=True)
class FourierSum:
    """Average over the Fourier grid 2*pi*k/n, k = 1..n."""


@dataclass(frozen=True)
class SpectralMeanConfig:
    mode: Union[RiemannIntegral, FourierSum] = field(default_factory=RiemannIntegral)
    threshold: float | None = None

    def __post_init__(self):
        if not isinstance(self.mode, (RiemannIntegral, FourierSum)):
            raise DomainError(f"unknown quadrature mode {self.mode!r}")
        if self.threshold is not None:
            object.__setattr__(self, "threshold", _positive(self.threshold, "threshold"))

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
    elif pg.grid.kind != "fourier":
        raise DomainError("Fourier-sum quadrature needs the estimate on the Fourier grid")
    gw = np.asarray(g(w))
    if gw.shape != w.shape:
        raise DomainError("g must evaluate elementwise on the frequency array")
    return complex(np.mean(gw * vals))


def _cosine_table(freqs: np.ndarray, lags: int) -> np.ndarray:
    """cos(r*w) on the grid (|grid|, lags + 1), for r = 0..lags."""
    return np.cos(np.outer(freqs, np.arange(lags + 1)))


def _cosine_moments(vals: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Grid means of cos(r*w) * vals along the last axis, from `_cosine_table`."""
    # one row-by-table product per row, the same bits for one series as for a block
    return (vals[..., None, :] @ table)[..., 0, :] / table.shape[0]


def _check_window_fits(window: SpectralWindow, n: int) -> None:
    """DomainError unless the window's 2m+1 offsets fit on an n-point grid."""
    if 2 * window.m + 1 > n:
        raise DomainError("window wider than the frequency grid")


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
    if _integer(lags, "lag count", 0) >= ts.n:
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
    _check_window_fits(window, pg.grid.size)
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


_AR_LIMIT = 0.99


def ar_family(p: int) -> SpectralFamily:
    """AR(p) family with unit innovation variance: f = 1/|a_theta(w)|**2.

    The Whittle objective's minimizer over the coefficients does not depend
    on the innovation variance (the log term integrates to its logarithm),
    so the variance is profiled out rather than fitted.  `on_grid` builds
    the (|w|, p) phase table exp(-1j*j*w) once; each evaluation is then one
    contraction 1 - theta . table, the same bits as the AR transfer
    polynomial.  Every coefficient is boxed to [-0.99, 0.99].
    """
    p = _integer(p, "family order", 1)

    def on_grid(w: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        phases = _ar_phases(w, p)

        def density(theta: np.ndarray) -> np.ndarray:
            aw = 1.0 - np.inner(np.asarray(theta, dtype=float), phases)
            return 1.0 / (aw.real**2 + aw.imag**2)

        return density

    return SpectralFamily(on_grid=on_grid, bounds=((-_AR_LIMIT, _AR_LIMIT),) * p, name=f"ar({p})")


@dataclass(frozen=True)
class WhittleResult:
    theta: np.ndarray
    value: float
    trace: tuple
    converged: bool


class _BudgetSpent(Exception):
    """A simplex step asked for an evaluation past the budget."""


def _simplex(fun, x0, box, maxfev: int):
    """Bounded Nelder-Mead minimization of `fun` from `x0`: (x, fun(x), converged).

    Follows scipy.optimize's non-adaptive bounded Nelder-Mead step for step,
    so it returns the same bits: the same initial simplex, vertex arithmetic,
    clipping to the (lo, hi) pairs of `box`, `np.argsort` order and budget
    rule (an evaluation past `maxfev` aborts the step, and the vertices are
    still re-sorted).  The simplex is an (n+1, n) array, reduced by numpy as
    scipy does; a new vertex is computed on Python floats, which is faster
    for the few coordinates of a spectral family.  `fun` takes a fresh float
    array and returns a float.  Convergence is every vertex within 1e-8 of
    the best one and every value within 1e-12 of its value, before the
    budget ends.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    n = len(box)
    calls = 0

    def clip(x):  # np.clip's comparisons, NaN passing through
        out = []
        for v, (lo, hi) in zip(x, box):
            if v == v:
                v = v if v > lo else lo
                v = v if v < hi else hi
            out.append(v)
        return out

    def evaluate(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return fun(np.array(x))

    def by_value(sim, fsim):  # scipy's np.argsort order, which need not be stable
        order = np.array(fsim).argsort()
        return sim.take(order, 0), [fsim[i] for i in order.tolist()]

    start = clip([float(v) for v in x0])
    sim = [start]
    for k in range(n):
        y = list(start)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    # a vertex pushed past an upper bound is reflected back into the box
    sim = np.array([clip([2 * hi - v if v > hi else v for v, (_, hi) in zip(y, box)]) for y in sim])
    fsim = [np.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = by_value(*by_value(sim, fsim))  # scipy sorts twice here

    converged = False
    while calls < maxfev:
        try:
            # scipy's test, with its two pure halves swapped: the cheap one,
            # on values, fails first on almost every step
            if all(abs(fsim[0] - g) <= 1e-12 for g in fsim[1:]) and (
                np.abs(sim[1:] - sim[0]).max() <= 1e-8
            ):
                converged = True
                break
            xbar = (np.add.reduce(sim[:-1], 0) / n).tolist()
            worst = sim[-1].tolist()

            def toward(p, q):  # p*xbar + q*worst, clipped
                return clip([p * c + q * v for c, v in zip(xbar, worst)])

            xr = toward(2, -1)
            fxr = evaluate(xr)
            if fxr < fsim[0]:  # reflected to a new best: try expanding
                xe = toward(3, -2)
                fxe = evaluate(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside; keep unless worse than xr
                    xc = toward(1.5, -0.5)
                    fxc = evaluate(xc)
                    keep = fxc <= fxr
                else:  # contract inside; keep if better than the worst vertex
                    xc = toward(0.5, 0.5)
                    fxc = evaluate(xc)
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    best = sim[0].tolist()
                    for j in range(1, n + 1):
                        sim[j] = clip([b + 0.5 * (v - b) for v, b in zip(sim[j].tolist(), best)])
                        fsim[j] = evaluate(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = by_value(sim, fsim)
    return sim[0].copy(), float(np.min(fsim)), converged


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
    DomainError, and so does a family of dimension n or more for a length-n
    series.  The search is predspec's own bounded Nelder-Mead simplex, which
    follows scipy.optimize's steps exactly; convergence is a simplex
    diameter below 1e-8 within a budget of 500*dim evaluations.
    Non-convergence flags the result instead of raising.  The simplex is the
    non-adaptive one, which stalls in high dimension: on a centred m2 path
    (n = 600, "regular", threshold 1e-3, start at 0) AR(3) and AR(6)
    converge after 398 and 1714 evaluations, while AR(8) and AR(10) spend
    the whole budget and return converged=False.
    """
    if cfg is None:
        cfg = SpectralMeanConfig()
    if family.dim >= ts.n:
        raise DomainError("the family dimension must stay below the series length")
    try:
        theta0 = np.asarray(init, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"init must be a sequence of numbers, got {init!r}") from None
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
        if 0.0 < f.min() and f.max() < np.inf:
            # sum/size is np.mean's arithmetic without its dispatch overhead
            value = float((vals / f).sum() / f.size + np.log(f).sum() / f.size)
        else:
            value = np.inf
        trace.append((theta.copy(), value))
        return value

    start = objective(theta0)
    if not np.isfinite(start):
        raise DomainError("objective is not finite at the initial point")
    # the start point's evaluation above counts against the budget
    theta, value, converged = _simplex(objective, theta0, family.bounds, 500 * family.dim - 1)
    if not value <= start:  # a NaN objective value in the final simplex
        theta, value = theta0, start
    return WhittleResult(theta=theta, value=value, trace=tuple(trace), converged=converged)
