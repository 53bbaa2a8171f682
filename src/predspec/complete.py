"""Boundary-corrected (completed) periodograms.

The regular DFT treats the sample as if nothing existed outside t = 1..n.
Completing it means forecasting and backcasting the series with the best
linear predictors of an autoregressive model, transforming the infinite
extension, and adding that correction to the DFT.  For an AR(p) model with
p <= n both extension sums collapse to closed forms involving only the first
and last p observations, which is what `predictive_dft` evaluates.

Multiplying the completed DFT by the conjugate of the regular (or tapered)
DFT yields an estimate whose expectation under the model is exactly the
spectral density, removing the O(1/n) boundary bias of |DFT|^2.  The raw
(regular and tapered) periodograms are the case with no correction, so
every single-series estimate is built by one function, `_estimate`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .arfit import ArmaModel, _aic_rows, _arma, _yule_walker_rows
from .core import (
    FrequencyGrid,
    PeriodogramEstimate,
    PgMeta,
    Taper,
    TimeSeries,
    _dft_rows,
    _finite,
    _integer,
    _periodogram_rows,
    _phase_sums,
    _positive,
    _vector,
)
from .exceptions import DomainError, NumericalError

__all__ = [
    "Explicit",
    "TruncatedInfinite",
    "AutoAIC",
    "FixedOrder",
    "predictive_dft",
    "predictive_dft_matrix",
    "complete_periodogram",
    "raw_periodogram",
    "threshold_real",
]


@dataclass(frozen=True)
class Explicit:
    """Use a known AR model (the no-estimation, true-model variant): an
    `ArmaModel` with no moving-average part."""

    model: ArmaModel

    def __post_init__(self):
        if _arma(self.model).q:
            raise DomainError("model has a moving-average part")


@dataclass(frozen=True, eq=False)
class TruncatedInfinite:
    """Use a long AR coefficient sequence (e.g. an expanded ARMA model)."""

    coeffs: np.ndarray

    def __post_init__(self):
        _vector(self, "coeffs", "coefficient sequence")


@dataclass(frozen=True)
class AutoAIC:
    """Fit the AR order per series by the information criterion."""

    max_order: int | None = None

    def __post_init__(self):
        if self.max_order is not None:
            object.__setattr__(self, "max_order", _integer(self.max_order, "max_order", 1))


@dataclass(frozen=True)
class FixedOrder:
    """Fit AR(p) per series at a fixed order."""

    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", _integer(self.p, "order", 0))


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


def _known(source):
    """The source, or DomainError unless it is a `ModelSource` (checked before
    it keys a dict, so that a list, say, is not reported as unhashable)."""
    if isinstance(source, ModelSource):
        return source
    raise DomainError(f"unknown model source {source!r}; a known AR model is passed as Explicit(model)")


def _source_rows(x: np.ndarray, source: ModelSource, fits: dict | None = None):
    """The fit record a `_known` source gives the rows of x (rows, n): (coeffs, orders).

    `coeffs` is a (rows, m) block, or (1, m) for a known model or a truncated
    sequence, and `orders` the per-row AR orders (None for a truncated
    sequence).  A known AR(p) needs p <= n for the closed form.  A fitted
    source (`AutoAIC`, `FixedOrder`) takes its record from `fits`, the
    records already fitted to these rows keyed by source, and is fitted and
    stored there only when missing, so equal sources share one fit; the
    other sources need no `fits`.
    """
    rows, n = x.shape
    if isinstance(source, Explicit):
        if source.model.p > n:
            raise DomainError(f"closed form needs order p <= n (p={source.model.p}, n={n})")
        return source.model.ar[None], np.full(rows, source.model.p)
    if isinstance(source, TruncatedInfinite):
        return source.coeffs[None], None
    if source not in fits:
        if isinstance(source, FixedOrder):
            coeffs, _ = _yule_walker_rows(x, source.p)
            fits[source] = coeffs[:, source.p, : source.p], np.full(rows, source.p)
        else:
            orders, coeffs, _, _ = _aic_rows(x, source.max_order)
            fits[source] = coeffs[:, : orders.max()], orders
    return fits[source]


def predictive_dft_matrix(model: ArmaModel, n: int, grid: FrequencyGrid) -> np.ndarray:
    """Coefficient matrix D (n x grid.size) with predictive DFT = x @ D,
    under a known AR model (an `ArmaModel` with no moving-average part).

    Exposing the linear form lets exact-expectation checks treat the
    correction as a vector of weights on the observations; only the first
    and last p rows are nonzero.  Row i is the correction of the i-th unit
    vector.
    """
    x = np.eye(_integer(n, "series length", 1))
    return _correction_rows(x, _source_rows(x, Explicit(model))[0], grid)


def predictive_dft(ts: TimeSeries, source: ModelSource, grid: FrequencyGrid) -> np.ndarray:
    """Closed-form DFT of the best-linear-predictor extension, J-hat.

    Equals n**-0.5 times the two extension sums (backcasts at t <= 0,
    forecasts at t > n) transformed at each grid frequency, under the AR
    model the source gives: a known AR(p) with p <= n (`Explicit`), a long
    coefficient sequence treated as zero beyond its end
    (`TruncatedInfinite`, through which all n observations can contribute),
    or one fitted to the series (`AutoAIC`, `FixedOrder`), which the series
    keeps as `complete_periodogram` does.  An order-0 model yields zero
    correction.  Values that overflow raise NumericalError.
    """
    x = ts.values[None]
    return _finite(lambda: _correction_rows(x, _source_rows(x, _known(source), ts._fits)[0], grid)[0],
                   "predictive DFT overflows")


@dataclass(frozen=True, eq=False)
class _PassRecord:
    """What one estimate pass returns: the (rows, |grid|) values of each plan,
    and the per-row AR orders of each distinct source (None for a truncated
    sequence)."""

    values: list
    orders: dict


def _estimate_block(plans, x: np.ndarray, grid: FrequencyGrid, fits: dict | None = None) -> _PassRecord:
    """Each (taper, source) plan's estimator on every row of x (rows, n).

    A plan's source is None for the raw periodograms.  The pass runs in four
    stages, each over distinct objects: distinct by the objects' own
    equality, which is by value for `AutoAIC` and `FixedOrder` and by
    identity for `TruncatedInfinite`, `Taper` and the model of an `Explicit`.
    The stages are the DFT of each taper a plan reads (None is the plain
    DFT, which every completed plan reads), each source's fit record
    (`_source_rows`), each source's completed DFT (plain DFT +
    `_correction_rows`), and each plan's product.  A fitted source's record comes from `fits`: `_estimate` passes
    the series' own store; by default the store is new and lives for this
    call, as in the runner's blocks.  The values are real for the raw kinds
    and complex for the completed ones.  A plan's rows do not depend on the
    other plans or rows, nor on whether their fit came from the store.
    """
    fits = {} if fits is None else fits
    sources = dict.fromkeys(_known(source) for _, source in plans if source is not None)
    tapers = dict.fromkeys([taper for taper, _ in plans] + ([None] if sources else []))
    dfts = {taper: _dft_rows(x, grid, taper) for taper in tapers}
    records = {source: _source_rows(x, source, fits) for source in sources}
    completed = {source: dfts[None] + _correction_rows(x, a, grid) for source, (a, _) in records.items()}
    # np.multiply, not `*`: numpy computes `completed * <temporary>` of
    # 256 KiB or more in place with the operands swapped, which moves the
    # last bit of the imaginary part, so rows would depend on the block size
    values = [_periodogram_rows(dfts[taper], taper) if source is None
              else np.multiply(completed[source], np.conj(dfts[taper])) for taper, source in plans]
    return _PassRecord(values, {source: orders for source, (_, orders) in records.items()})


def _estimate(
    ts: TimeSeries, grid: FrequencyGrid, taper: Taper | None = None, source: ModelSource | None = None
) -> PeriodogramEstimate:
    """The (taper, source) estimate of one series: a one-row `_estimate_block`.

    Every single-series periodogram, raw (no source) or completed, is built
    here, with the series' own fit store, so its rows equal the runner's
    block rows bit for bit; `PgMeta.order` is the pass record's order of the
    source.  Values that overflow raise NumericalError.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # `_finite` raises below
        record = _estimate_block([(taper, source)], ts.values[None], grid, ts._fits)
    values = _finite(lambda: record.values[0][0], "periodogram overflows")
    orders = record.orders.get(source)
    if source is None:
        kind = "regular" if taper is None else "tapered"
    elif taper is not None:
        kind = "tapered-complete"
    else:
        kind = "complete-true-ar" if isinstance(source, Explicit) else "complete"
    meta = PgMeta(
        order=None if orders is None else int(orders[0]),
        taper=None if taper is None else taper.description,
    )
    return PeriodogramEstimate(grid, values, kind=kind, meta=meta)


def raw_periodogram(
    ts: TimeSeries, grid: FrequencyGrid, taper: Taper | None = None
) -> PeriodogramEstimate:
    """Squared-modulus periodogram, untapered or shape-tapered.

    Untapered: |dft|**2.  Tapered: |sum_t h(t/n) x[t] exp(1j*t*w)|**2 / h2,
    the raw taper shape with its own second-moment normalizer; since the
    tapered DFT weights the data by h(t/n) * n / h1, that is its squared
    modulus times h1**2 / (n * h2).  It is the completed periodogram with no
    correction.  Values that overflow raise NumericalError.
    """
    return _estimate(ts, grid, taper)


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
    The series keeps the fit of a fitted source, so a later call with an
    equal source, on any grid or taper, fits nothing again.
    """
    if source is None:
        raise DomainError("a completed periodogram needs a model source, got None")
    return _estimate(ts, grid, taper, source)


def threshold_real(pg: PeriodogramEstimate, delta: float) -> PeriodogramEstimate:
    """max(Re value, delta) at every frequency; keeps provenance in meta.

    A small positive floor (1e-3 in the reference experiments) makes the
    real part usable wherever positivity is required: integrated means,
    autocovariance estimates, division by the estimate.
    """
    delta = _positive(delta, "threshold")
    vals = np.maximum(pg.values.real, delta).astype(complex)
    meta = replace(pg.meta, threshold=delta)
    return PeriodogramEstimate(pg.grid, vals, kind="thresholded-real", meta=meta)
