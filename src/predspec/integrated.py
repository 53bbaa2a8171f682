"""Integrated spectral statistics: weighted means, autocovariance recovery,
smoothing, and Whittle-type fitting.

A spectral mean is (2*pi)**-1 * integral of g(w) * f(w) dw with f replaced
by a periodogram-type estimate.  `SpectralMeanConfig.points` names the
quadrature: a cell count is the midpoint rule over that many uniform cells,
and None is the plain average over the series' Fourier grid.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .arfit import _ar_phases, _causal, _levinson_rows, _step_up
from .core import FrequencyGrid, PeriodogramEstimate, TimeSeries, _integer, _positive, _toeplitz, _vector
from .complete import threshold_real
from .estimators import EstimatorSpec, evaluate_estimator
from .exceptions import DomainError, NumericalError

__all__ = [
    "SpectralWindow",
    "spectral_window",
    "SpectralMeanConfig",
    "spectral_mean",
    "acf_estimate",
    "smooth_periodogram",
    "ar_family",
    "WhittleResult",
    "whittle_fit",
]


@dataclass(frozen=True, eq=False)
class SpectralWindow:
    """Normalized smoothing weights W(-m..m), summing to 1."""

    kind: str
    m: int
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "window half-width m", 1))
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
class SpectralMeanConfig:
    """The quadrature of a spectral mean and an optional threshold.

    `points` is the number of midpoint cells of [0, 2*pi] (at least 8), or
    None for the average over the series' Fourier grid 2*pi*k/n.  The
    threshold, when set, floors the estimate's real part first.
    """

    points: int | None = 500
    threshold: float | None = None

    def __post_init__(self):
        if self.points is not None:
            object.__setattr__(self, "points", _integer(self.points, "Riemann cell count", 8))
        if self.threshold is not None:
            object.__setattr__(self, "threshold", _positive(self.threshold, "threshold"))

    def grid_for(self, n: int) -> FrequencyGrid:
        """The evaluation grid this quadrature expects for a length-n series."""
        return FrequencyGrid.fourier(n) if self.points is None else FrequencyGrid.uniform(self.points)


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

    The estimate must lie on the quadrature's grid: the uniform midpoint
    grid of `cfg.points` cells, or the Fourier grid when `points` is None.
    Either rule is the plain average of g times the estimate.  `g` must
    accept a frequency array.  The optional threshold floors the real part
    first.
    """
    vals = _prepared_values(pg, cfg)
    w = pg.grid.frequencies
    want = ("fourier", w.size) if cfg.points is None else ("uniform", cfg.points)
    if (pg.grid.kind, w.size) != want:
        raise DomainError("the estimate is not on the quadrature grid of cfg")
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


def _window_fits(m, n: int) -> int:
    """The half-width m of a window whose 2m+1 offsets fit on an n-point grid,
    checked before any weights are built: an integer in 1..(n-1)/2."""
    return _integer(m, "window half-width m", 1, below=(n + 1) // 2)


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


def _spectral_values(ts: TimeSeries, lags: int, estimator: EstimatorSpec, cfg: SpectralMeanConfig):
    """(frequencies, values, cosine table): the estimate's thresholded real
    values on the quadrature grid of `cfg`, and `_cosine_table` for lags 0..lags."""
    grid = cfg.grid_for(ts.n)
    vals = _prepared_values(evaluate_estimator(ts, estimator, grid), cfg).real
    return grid.frequencies, vals, _cosine_table(grid.frequencies, lags)


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
    lags = _integer(lags, "lag count", 0, below=ts.n)
    _, vals, table = _spectral_values(ts, lags, estimator, cfg)
    autocov = _cosine_moments(vals, table)
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
    _window_fits(window.m, pg.grid.size)
    out = _smooth_rows(pg.values.real, window)
    meta = replace(pg.meta, window=f"{window.kind}(m={window.m})")
    return PeriodogramEstimate(pg.grid, out.astype(complex), kind=pg.kind, meta=meta)


def ar_family(p: int) -> int:
    """The order p of the AR(p) family f = 1/|a_theta(w)|**2, checked (p >= 1).

    The family has unit innovation variance: the Whittle objective's
    minimizer over the coefficients does not depend on the variance (the log
    term integrates to its logarithm), so the variance is profiled out
    rather than fitted.
    """
    return _integer(p, "family order", 1)


@dataclass(frozen=True, eq=False)
class WhittleResult:
    theta: np.ndarray
    value: float
    trace: tuple
    converged: bool


# Newton's stopping tolerance on the step, its iteration cap, the step
# halvings tried per iteration, and the bound |kappa| <= 1 - 1e-8 that keeps
# each reflection coefficient inside the causal box.
_STEP_TOL = 1e-10
_NEWTON_CAP = 50
_HALVINGS = 60
_KAPPA_BOUND = 1.0 - 1e-8


def whittle_fit(
    ts: TimeSeries,
    p: int,
    estimator: EstimatorSpec,
    init: Sequence[float] | None = None,
    cfg: SpectralMeanConfig | None = None,
) -> WhittleResult:
    """Minimize the spectral-divergence objective over the causal AR(p) region.

    p is the AR order: `ar_family` checks it is an integer >= 1, and an
    order of n or more for a length-n series raises DomainError.
    K(theta) = quadrature mean of estimate/f_theta + quadrature mean of
    log f_theta (the latter approximating (2*pi)**-1 * integral log f_theta,
    which is 0 for causal theta), the quadrature of `cfg` (default: 500
    midpoint cells, no threshold).  So up to that quadrature error the
    minimizer is the Yule-Walker solution on the estimate's cosine moments
    c(0..p), the fit's start; moments that are not positive definite raise
    NumericalError.

    Newton steps on the discretized K follow, taken in the reflection
    coefficients kappa of theta (Levinson's step-up map, `_step_up`), where
    the causal region is the box |kappa_j| < 1.  The gradient and the
    Hessian in theta come from the `_ar_phases` table, the Hessian's
    eigenvalues are floored to positive, and the step-up's Jacobian J carries
    them to kappa.  A coefficient at the bound |kappa_j| = 1 - 1e-8 whose
    descent direction points out of the box is held; the Newton system is
    solved over the others, and each halving of the step is clipped onto the
    box, so a step that leaves the box turns along its face.  A trial is
    accepted when it is causal (the root rule of `ArmaModel`'s AR part) and
    lowers K; its change in K is summed from its change in |a_theta|**2, so
    rounding in K does not decide it.  The fit converges when the Newton
    step in theta (J times the step in kappa when none is held) is below
    1e-10 in every coordinate.  It returns converged=False when the step
    over the free coordinates is that small with a coefficient held, when no
    halving lowers K, or after 50 steps; such a fit ends with a coefficient
    on the face of the box, at a boundary infimum of the discretized K (in
    every fit measured, on the Fourier grids of n = 20 and 30 up to p = 4).
    `trace` holds (theta, K) at the start and after each accepted step.

    `init`, when given, is checked (p finite numbers) and has no effect: the
    start is the Yule-Walker solution.  It stays in the signature for the
    callers that pass it.
    """
    if cfg is None:
        cfg = SpectralMeanConfig()
    p = _integer(ar_family(p), "family order", below=ts.n)
    if init is not None:
        try:
            start = np.asarray(init, dtype=float)
        except (TypeError, ValueError):
            raise DomainError(f"init must be a sequence of numbers, got {init!r}") from None
        if start.shape != (p,) or not np.all(np.isfinite(start)):
            raise DomainError("init must hold one finite number per family parameter")

    w, vals, table = _spectral_values(ts, p, estimator, cfg)
    try:
        coeffs, _ = _levinson_rows(_cosine_moments(vals, table)[None], p)
    except NumericalError as err:
        raise NumericalError(f"{err}; use a thresholded estimate (set cfg.threshold)") from None
    kappa = coeffs[0, 1:].diagonal()  # the reflection coefficients coeffs[0, m, m-1]
    theta = coeffs[0, p].copy()  # their step-up
    if not _causal(theta):
        raise NumericalError("the Yule-Walker start is not causal: a root within 1e-10 of the unit circle")
    phases = _ar_phases(w, p)
    trace: list = []

    def at(theta: np.ndarray):
        """a_theta and |a_theta|**2 on the grid; records (theta, K(theta))."""
        aw = 1.0 - np.inner(theta, phases)
        g = aw.real**2 + aw.imag**2
        f = 1.0 / g
        trace.append((theta, float(np.mean(vals / f) + np.mean(np.log(f)))))
        return aw, g

    aw, g = at(theta)
    converged = False
    for _ in range(_NEWTON_CAP):
        r = (aw.conj()[:, None] * phases).real  # -dg/dtheta / 2
        resid = vals - 1.0 / g
        grad = -2.0 * (resid @ r) / w.size
        rg = r / g[:, None]
        hess = 2.0 * _toeplitz(_cosine_moments(resid, table), p) + 4.0 * (rg.T @ rg) / w.size
        eig, vec = np.linalg.eigh(hess)
        eig = np.maximum(np.abs(eig), 1e-8 * np.abs(eig).max())
        if np.abs(vec @ ((grad @ vec) / eig)).max() <= _STEP_TOL:
            converged = True
            break
        _, jac = _step_up(kappa)
        grad_k = grad @ jac
        free = ~((np.abs(kappa) >= _KAPPA_BOUND) & (kappa * grad_k < 0.0))
        # J_F' H J_F step_F = J_F' grad as least squares in H = L L', which
        # does not square J's conditioning near the face of the box
        root = np.sqrt(eig)
        step = np.zeros(p)
        step[free] = np.linalg.lstsq(root[:, None] * (vec.T @ jac[:, free]), (grad @ vec) / root, rcond=None)[0]
        if np.abs(jac @ step).max() <= _STEP_TOL:
            break
        for t in 0.5 ** np.arange(_HALVINGS):
            trial_k = np.clip(kappa - t * step, -_KAPPA_BOUND, _KAPPA_BOUND)
            trial = _step_up(trial_k)[0]
            if not _causal(trial):
                continue
            # K(trial) - K(theta) summed from the change in g: near the
            # minimum it is below the rounding of K itself
            da = np.inner(theta - trial, phases)
            dg = 2.0 * (aw.conj() * da).real + da.real**2 + da.imag**2
            with np.errstate(divide="ignore", invalid="ignore"):
                lower = np.mean(vals * dg) < np.mean(np.log1p(dg / g))
            if lower:
                theta, kappa = trial, trial_k
                aw, g = at(theta)
                break
        else:
            break
    return WhittleResult(theta=theta, value=trace[-1][1], trace=tuple(trace), converged=converged)
