"""A small shared vocabulary for naming periodogram estimators.

Experiment runners, integrated statistics, and the CLI all need to say
"the tapered completed periodogram with AIC-selected order" as data; this
module holds that description and evaluates it on a series, or on a block
of series for the experiment runner.  It is the one place that knows which
kinds taper and where each kind's AR model comes from.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complete import AutoAIC, Explicit, ModelSource, complete_periodogram
from .complete import _complete_rows, _completed_dft_rows
from .core import FrequencyGrid, PeriodogramEstimate, TimeSeries, raw_periodogram, tukey_taper
from .core import _dft_rows, _periodogram_rows
from .exceptions import DomainError

__all__ = ["ESTIMATOR_KINDS", "EstimatorSpec", "evaluate_estimator", "default_rise"]

# kind -> (tapers the conjugated DFT, where the AR model comes from: None for
# the raw periodograms, "known" for an Explicit model, "fitted" per series)
_KINDS = {
    "regular": (False, None),
    "tapered": (True, None),
    "complete-true": (False, "known"),
    "complete": (False, "fitted"),
    "tapered-complete": (True, "fitted"),
}
ESTIMATOR_KINDS = tuple(_KINDS)


def default_rise(n: int) -> int:
    """Taper rise length used when none is given: ceil(n/10)."""
    return max(1, math.ceil(n / 10))


@dataclass(frozen=True)
class EstimatorSpec:
    """Which periodogram to compute.

    kind "complete-true" plugs in a known model, given as
    `source=Explicit(model)` (the experiment runner supplies the generating
    model); "complete" and "tapered-complete" estimate one per series
    (`source`, defaulting to AIC order selection).  `taper_d` is the
    cosine-bell rise length for the tapered kinds, defaulting to ceil(n/10).
    A `taper_d` or `source` that the kind cannot use is rejected.
    """

    kind: str
    source: ModelSource | None = None
    taper_d: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown estimator kind {self.kind!r}")
        if self.taper_d is not None and not self.tapered:
            raise DomainError(f"the {self.kind} estimator takes no taper rise length")
        model = _KINDS[self.kind][1]
        if self.source is not None:
            if model is None:
                raise DomainError(f"the {self.kind} estimator takes no AR model source")
            if model == "known" and not isinstance(self.source, Explicit):
                raise DomainError(f"the {self.kind} estimator needs its model as source=Explicit(model)")

    @property
    def tapered(self) -> bool:
        """Whether the conjugated DFT is tapered."""
        return _KINDS[self.kind][0]

    @property
    def completed(self) -> bool:
        """Whether the DFT is completed by an AR predictive correction."""
        return _KINDS[self.kind][1] is not None

    @property
    def label(self) -> str:
        """Row name in experiment tables: the kind, plus an explicit rise length."""
        return self.kind if self.taper_d is None else f"{self.kind}(d={self.taper_d})"


def _plans(specs, n: int) -> list:
    """The (taper, source) plan of each spec at length n; the source is None for the raw kinds.

    Specs with the same rise length get one Taper object and the fitted
    kinds without a source one AutoAIC, so the block kernel takes each
    tapered DFT and each fit once.
    """
    tapers, fitted, plans = {}, AutoAIC(), []
    for spec in specs:
        d = spec.taper_d if spec.taper_d is not None else default_rise(n)
        if spec.tapered and d not in tapers:
            tapers[d] = tukey_taper(n, d)
        if spec.source is None and spec.kind == "complete-true":
            raise DomainError("complete-true estimator needs the generating AR model as source=Explicit(model)")
        source = (spec.source or fitted) if spec.completed else None
        plans.append((tapers[d] if spec.tapered else None, source))
    return plans


def _estimate_block(plans, x: np.ndarray, grid: FrequencyGrid) -> list:
    """Each (taper, source) plan's estimator on every row of x (rows, n).

    One pass over the block: the plain DFT once, each distinct taper's DFT
    once and each distinct source's completed DFT once, whatever the number
    of estimators that use them.  Returns one (rows, |grid|) array per plan,
    real for the raw kinds and complex for the completed ones; a plan's rows
    do not depend on the other plans.
    """
    j = _dft_rows(x, grid)
    shared = {}

    def once(obj, make):
        """make() for the first plan with this taper or source; equal hashable
        sources share, and the array-holding ones (Explicit, TruncatedInfinite,
        Taper) share by identity."""
        try:
            hash(obj)
            key = obj
        except TypeError:
            key = id(obj)
        if key not in shared:
            shared[key] = make()
        return shared[key]

    out = []
    for taper, source in plans:
        jt = j if taper is None else once(taper, lambda: _dft_rows(x, grid, taper))
        if source is None:
            out.append(_periodogram_rows(jt, taper))
        else:
            completed = once(source, lambda: _completed_dft_rows(x, source, grid, j)[0])
            out.append(_complete_rows(completed, jt))
    return out


def evaluate_estimator(ts: TimeSeries, spec: EstimatorSpec, grid: FrequencyGrid) -> PeriodogramEstimate:
    """Evaluate the described estimator on a series over a grid."""
    [(taper, source)] = _plans([spec], ts.n)
    if source is None:
        return raw_periodogram(ts, grid, taper)
    return complete_periodogram(ts, source, grid, taper=taper)
