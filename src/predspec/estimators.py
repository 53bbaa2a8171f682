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

from .complete import AutoAIC, Explicit, ModelSource, _complete_rows, complete_periodogram
from .core import FrequencyGrid, PeriodogramEstimate, Taper, TimeSeries, raw_periodogram, tukey_taper
from .core import _periodogram_rows
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

    def taper_for(self, n: int) -> Taper:
        return tukey_taper(n, self.taper_d if self.taper_d is not None else default_rise(n))


def _plan(spec: EstimatorSpec, n: int):
    """The taper and the AR model source (None for the raw kinds) of a spec at length n."""
    taper = spec.taper_for(n) if spec.tapered else None
    if not spec.completed:
        return taper, None
    if spec.source is None and spec.kind == "complete-true":
        raise DomainError("complete-true estimator needs the generating AR model as source=Explicit(model)")
    return taper, spec.source if spec.source is not None else AutoAIC()


def _estimate_rows(spec: EstimatorSpec, x: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """The estimator on each row of x (rows, n): real values for the raw
    kinds, complex ones for the completed kinds."""
    taper, source = _plan(spec, x.shape[-1])
    if source is None:
        return _periodogram_rows(x, grid, taper)
    return _complete_rows(x, source, grid, taper)[0]


def evaluate_estimator(ts: TimeSeries, spec: EstimatorSpec, grid: FrequencyGrid) -> PeriodogramEstimate:
    """Evaluate the described estimator on a series over a grid."""
    taper, source = _plan(spec, ts.n)
    if source is None:
        return raw_periodogram(ts, grid, taper)
    return complete_periodogram(ts, source, grid, taper=taper)
