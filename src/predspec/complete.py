"""Boundary-corrected (completed) periodograms.

The regular DFT treats the sample as if nothing existed outside t = 1..n.
Completing it means forecasting and backcasting the series with the best
linear predictors of an autoregressive model, transforming the infinite
extension, and adding that correction to the DFT.  For an AR(p) model with
p <= n both extension sums collapse to closed forms involving only the first
and last p observations, which is what `predictive_dft` evaluates.

Multiplying the completed DFT by the conjugate of the regular (or tapered)
DFT yields an estimate whose expectation under the model is exactly the
spectral density, removing the O(1/n) boundary bias of |DFT|^2.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np
import scipy.linalg

from .arfit import ArModel, _transfer_polynomial, aic_select, yule_walker_fit
from .core import (
    FrequencyGrid,
    PeriodogramEstimate,
    PgMeta,
    Taper,
    TimeSeries,
    dft,
)
from .exceptions import DomainError, NumericalError

__all__ = [
    "Explicit",
    "TruncatedInfinite",
    "AutoAIC",
    "FixedOrder",
    "ModelSource",
    "predictive_dft",
    "predictive_dft_matrix",
    "predictive_dft_truncated_infinite",
    "complete_periodogram",
    "threshold_real",
]


@dataclass(frozen=True)
class Explicit:
    """Use a known AR model (the no-estimation, true-model variant)."""

    model: ArModel


@dataclass(frozen=True)
class TruncatedInfinite:
    """Use a long AR coefficient sequence (e.g. an expanded ARMA model)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 1 or c.size < 1:
            raise DomainError("coefficient sequence must be a non-empty 1-d array")
        if not np.all(np.isfinite(c)):
            raise DomainError("coefficient sequence must be finite")


@dataclass(frozen=True)
class AutoAIC:
    """Fit the AR order per series by the information criterion."""

    max_order: int | None = None


@dataclass(frozen=True)
class FixedOrder:
    """Fit AR(p) per series at a fixed order."""

    p: int


ModelSource = Union[Explicit, TruncatedInfinite, AutoAIC, FixedOrder]


def _boundary_weights(a: np.ndarray, n: int, freqs: np.ndarray):
    """Backcast and forecast weight blocks of the closed-form correction.

    For coefficients a[1..m], taken as zero beyond m, row l of the first
    block weighs x[1 + l] and row l of the second weighs x[n - l]; each has
    min(n, m) rows, so the correction reads only the first and last min(n, m)
    observations.  The weights divide by a(w), so a transfer polynomial with
    |a(w)| < 1e-8 anywhere on the grid raises NumericalError.
    """
    aw = _transfer_polynomial(a, freqs)
    if np.min(np.abs(aw)) < 1e-8:
        raise NumericalError("AR transfer function vanishes on the grid (|a(w)| < 1e-8)")
    m = a.size
    C = scipy.linalg.hankel(a, np.zeros(m))[: min(n, m)]  # C[l, s] = a[l + s + 1]
    s = np.arange(m)
    root_n = np.sqrt(n)
    back = (C @ np.exp(-1j * np.outer(s, freqs))) / (root_n * aw)
    fwd = (C @ np.exp(1j * np.outer(s + 1, freqs))) * np.exp(1j * n * freqs) / (root_n * np.conj(aw))
    return back, fwd


def _extension_transform(x: np.ndarray, a: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    back, fwd = _boundary_weights(a, x.size, grid.frequencies)
    r = back.shape[0]
    return x[:r] @ back + x[::-1][:r] @ fwd


def _check_order(p: int, n: int) -> None:
    if n < 1:
        raise DomainError("series length must be >= 1")
    if p > n:
        raise DomainError(f"closed form needs order p <= n (p={p}, n={n})")


def predictive_dft_matrix(model: ArModel, n: int, grid: FrequencyGrid) -> np.ndarray:
    """Coefficient matrix D (n x grid.size) with predictive DFT = x @ D.

    Exposing the linear form lets exact-expectation checks treat the
    correction as a vector of weights on the observations; only the first
    and last p rows are nonzero.
    """
    _check_order(model.p, n)
    back, fwd = _boundary_weights(model.coeffs, n, grid.frequencies)
    r = back.shape[0]
    D = np.zeros((n, grid.size), dtype=complex)
    D[:r] += back
    D[n - r :] += fwd[::-1]
    return D


def predictive_dft(ts: TimeSeries, model: ArModel, grid: FrequencyGrid) -> np.ndarray:
    """Closed-form DFT of the best-linear-predictor extension under an AR(p).

    Equals n**-0.5 times the two extension sums (backcasts at t <= 0,
    forecasts at t > n) transformed at each grid frequency.  Requires
    p <= n; an order-0 model yields zero correction.
    """
    _check_order(model.p, ts.n)
    return _extension_transform(ts.values, model.coeffs, grid)


def predictive_dft_truncated_infinite(
    ts: TimeSeries, ar_coeffs: np.ndarray, grid: FrequencyGrid
) -> np.ndarray:
    """Predictive DFT driven by a truncated AR-series coefficient sequence.

    The same two-sided closed form as `predictive_dft`, written against a
    long coefficient vector a[1..M] (an expanded ARMA model, say) treated as
    zero beyond M.  All n observations can contribute when M > n.
    """
    return _extension_transform(ts.values, TruncatedInfinite(ar_coeffs).coeffs, grid)


def _resolve_source(ts: TimeSeries, source: ModelSource):
    """Materialize the AR description an estimate should be built from."""
    if isinstance(source, Explicit):
        return source.model, "complete-true-ar", source.model.p
    if isinstance(source, FixedOrder):
        model = yule_walker_fit(ts, source.p)
        return model, "complete", model.p
    if isinstance(source, AutoAIC):
        sel = aic_select(ts, source.max_order)
        return sel.model, "complete", sel.chosen_p
    if isinstance(source, TruncatedInfinite):
        return source, "complete", None
    raise DomainError(f"unknown model source {source!r}")


def complete_periodogram(
    ts: TimeSeries,
    source: ModelSource,
    grid: FrequencyGrid,
    taper: Taper | None = None,
) -> PeriodogramEstimate:
    """(DFT + predictive DFT) times the conjugated (possibly tapered) DFT.

    The taper only ever enters the conjugated factor; the completed factor is
    always built from the plain DFT plus its predictive correction.  Values
    are complex; callers wanting a real estimate take the real part (see
    `threshold_real`).
    """
    resolved, kind, order = _resolve_source(ts, source)
    if isinstance(resolved, TruncatedInfinite):
        correction = predictive_dft_truncated_infinite(ts, resolved.coeffs, grid)
    else:
        correction = predictive_dft(ts, resolved, grid)
    j = dft(ts, grid)
    completed = j + correction
    if taper is None:
        conj_factor = j
        meta = PgMeta(order=order)
    else:
        conj_factor = dft(ts, grid, taper)
        kind = "tapered-complete"
        meta = PgMeta(order=order, taper=taper.description)
    return PeriodogramEstimate(grid, completed * np.conj(conj_factor), kind=kind, meta=meta)


def threshold_real(pg: PeriodogramEstimate, delta: float) -> PeriodogramEstimate:
    """max(Re value, delta) at every frequency; keeps provenance in meta.

    A small positive floor (1e-3 in the reference experiments) makes the
    real part usable wherever positivity is required: integrated means,
    autocovariance estimates, division by the estimate.
    """
    if not (np.isfinite(delta) and delta > 0.0):
        raise DomainError("threshold must be positive and finite")
    vals = np.maximum(pg.values.real, delta).astype(complex)
    meta = replace(pg.meta, threshold=delta)
    return PeriodogramEstimate(pg.grid, vals, kind="thresholded-real", meta=meta)
