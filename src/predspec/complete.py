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

from .arfit import ArModel, _aic_rows, _yule_walker_rows
from .core import (
    FrequencyGrid,
    PeriodogramEstimate,
    PgMeta,
    Taper,
    TimeSeries,
    _dft_rows,
    _phase_sums,
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


def _correction_rows(x: np.ndarray, a: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Predictive DFT of each row of x (rows, n) under AR coefficients a.

    `a` is a (rows, m) block, or (1, m) for one model shared by every row;
    coefficients are taken as zero beyond m.  With the Hankel block
    C[l, s] = a[l + s + 1], the backcasts weigh the first r = min(n, m)
    observations and the forecasts the last r:

        backcast sum = sum_s u[s] * exp(-1j*s*w) / a(w),        u = x[:r] @ C
        forecast sum = exp(1j*n*w) * sum_s v[s] * exp(1j*(s+1)*w) / conj(a(w)),
                       v = x[::-1][:r] @ C

    and the correction is their total over sqrt(n).  Each end is contracted
    to a length-m vector, and the coefficient rows ride along with u and v
    through one phase sum over the grid (one FFT on Fourier and uniform
    grids), which yields both boundary sums and
    a(w) = 1 - conj(sum_j a[j] * exp(1j*j*w)).  The sums divide by a(w), so
    |a(w)| < 1e-8 anywhere on the grid raises NumericalError.
    """
    rows, n = x.shape
    m = a.shape[-1]
    w = grid.frequencies
    r = min(n, m)
    a_pad = np.concatenate((a, np.zeros((a.shape[0], r))), axis=1)
    ends = np.array((x[:, :r], x[:, ::-1][:, :r]))  # (2, rows, r): x[1 + l] and x[n - l]
    uv = np.zeros((2, rows, m))
    for l in range(r):
        uv += ends[:, :, l, None] * a_pad[:, l : l + m]
    sums = _phase_sums(np.concatenate((uv.reshape(2 * rows, m), a)), grid)  # sum_s (.)[s] e^{i(s+1)w}
    aw = 1.0 - np.conj(sums[2 * rows :])
    if np.min(np.abs(aw)) < 1e-8:
        raise NumericalError("AR transfer function vanishes on the grid (|a(w)| < 1e-8)")
    back, fwd = sums[: 2 * rows].reshape(2, rows, -1)
    back = np.exp(1j * w) * np.conj(back) / aw
    return (back + np.exp(1j * n * w) * fwd / np.conj(aw)) / np.sqrt(n)


def _check_order(p: int, n: int) -> None:
    if n < 1:
        raise DomainError("series length must be >= 1")
    if p > n:
        raise DomainError(f"closed form needs order p <= n (p={p}, n={n})")


def predictive_dft_matrix(model: ArModel, n: int, grid: FrequencyGrid) -> np.ndarray:
    """Coefficient matrix D (n x grid.size) with predictive DFT = x @ D.

    Exposing the linear form lets exact-expectation checks treat the
    correction as a vector of weights on the observations; only the first
    and last p rows are nonzero.  Row i is the correction of the i-th unit
    vector.
    """
    _check_order(model.p, n)
    return _correction_rows(np.eye(n), model.coeffs[None], grid)


def predictive_dft(ts: TimeSeries, model: ArModel, grid: FrequencyGrid) -> np.ndarray:
    """Closed-form DFT of the best-linear-predictor extension under an AR(p).

    Equals n**-0.5 times the two extension sums (backcasts at t <= 0,
    forecasts at t > n) transformed at each grid frequency.  Requires
    p <= n; an order-0 model yields zero correction.
    """
    _check_order(model.p, ts.n)
    return _correction_rows(ts.values[None], model.coeffs[None], grid)[0]


def predictive_dft_truncated_infinite(
    ts: TimeSeries, ar_coeffs: np.ndarray, grid: FrequencyGrid
) -> np.ndarray:
    """Predictive DFT driven by a truncated AR-series coefficient sequence.

    The same two-sided closed form as `predictive_dft`, written against a
    long coefficient vector a[1..M] (an expanded ARMA model, say) treated as
    zero beyond M.  All n observations can contribute when M > n.
    """
    return _correction_rows(ts.values[None], TruncatedInfinite(ar_coeffs).coeffs[None], grid)[0]


def _source_rows(x: np.ndarray, source: ModelSource):
    """The AR coefficients a source gives each row of x (rows, n).

    Returns (coeffs, orders, kind): a (rows, m) block, or (1, m) for a known
    model; the per-row orders (None for a truncated sequence); and the kind
    of the resulting estimate.
    """
    rows, n = x.shape
    if isinstance(source, Explicit):
        _check_order(source.model.p, n)
        return source.model.coeffs[None], np.full(rows, source.model.p), "complete-true-ar"
    if isinstance(source, FixedOrder):
        coeffs, _ = _yule_walker_rows(x, source.p)
        return coeffs[:, source.p, : source.p], np.full(rows, source.p), "complete"
    if isinstance(source, AutoAIC):
        orders, coeffs, _, _ = _aic_rows(x, source.max_order)
        return coeffs[:, : orders.max()], orders, "complete"
    if isinstance(source, TruncatedInfinite):
        return source.coeffs[None], None, "complete"
    raise DomainError(f"unknown model source {source!r}")


def _completed_dft_rows(x: np.ndarray, source: ModelSource, grid: FrequencyGrid, j: np.ndarray):
    """The completed DFT J + correction of each row of x (rows, n), given its DFT rows j.

    Returns (completed, orders, kind), with the orders and kind as `_source_rows` gives them.
    """
    a, orders, kind = _source_rows(x, source)
    return j + _correction_rows(x, a, grid), orders, kind


def _complete_rows(completed: np.ndarray, conj_factor: np.ndarray) -> np.ndarray:
    """Completed periodogram rows: the completed DFT times the conjugated (possibly tapered) DFT."""
    return completed * np.conj(conj_factor)


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
    `threshold_real`).  Values too large to multiply raise NumericalError.
    """
    x = ts.values[None]
    with np.errstate(over="ignore", invalid="ignore"):
        j = _dft_rows(x, grid)
        completed, orders, kind = _completed_dft_rows(x, source, grid, j)
        values = _complete_rows(completed, j if taper is None else _dft_rows(x, grid, taper))[0]
    if not np.all(np.isfinite(values)):
        raise NumericalError("completed periodogram overflows: the series is too large")
    meta = PgMeta(
        order=None if orders is None else int(orders[0]),
        taper=None if taper is None else taper.description,
    )
    kind = kind if taper is None else "tapered-complete"
    return PeriodogramEstimate(grid, values, kind=kind, meta=meta)


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
