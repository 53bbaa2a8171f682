"""A small shared vocabulary for naming periodogram estimators.

Experiment runners, integrated statistics, and the CLI all need to say
"the tapered completed periodogram with AIC-selected order" as data; this
module holds that description, resolves it to the (taper, source) plan that
`complete._estimate_block` evaluates on a block of series, and evaluates it
on one series.  It is the one place that knows which kinds taper and where
each kind's AR model comes from.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .complete import AutoAIC, Explicit, ModelSource, _estimate, _known
from .core import FrequencyGrid, PeriodogramEstimate, TimeSeries, _integer, tukey_taper
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
        if self.taper_d is not None:
            if not self.tapered:
                raise DomainError(f"the {self.kind} estimator takes no taper rise length")
            object.__setattr__(self, "taper_d", _integer(self.taper_d, "rise length d", 1))
        model = _KINDS[self.kind][1]
        if self.source is not None:
            if model is None:
                raise DomainError(f"the {self.kind} estimator takes no AR model source")
            _known(self.source)
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


def _plans(specs, n: int, truth: Explicit | None = None) -> list:
    """The (taper, source) plan of each spec at length n; the source is None for the raw kinds.

    A "complete-true" spec without a source of its own takes `truth`, and a
    fitted kind without one `AutoAIC()`.  Specs with the same rise length get
    one Taper object: tapers compare by identity, and the block pass takes
    one DFT per distinct taper.
    """
    tapers, plans = {}, []
    for spec in specs:
        d = spec.taper_d if spec.taper_d is not None else default_rise(n)
        if spec.tapered and d not in tapers:
            tapers[d] = tukey_taper(n, d)
        default = truth if spec.kind == "complete-true" else AutoAIC()
        source = default if spec.source is None else spec.source
        if source is None:
            raise DomainError("complete-true estimator needs the generating AR model as source=Explicit(model)")
        plans.append((tapers[d] if spec.tapered else None, source if spec.completed else None))
    return plans


def evaluate_estimator(ts: TimeSeries, spec: EstimatorSpec, grid: FrequencyGrid) -> PeriodogramEstimate:
    """Evaluate the described estimator on a series over a grid."""
    return _estimate(ts, grid, *_plans([spec], ts.n)[0])
