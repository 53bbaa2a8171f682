"""Boundary-corrected spectral estimation via predictive DFT completion.

The regular periodogram treats the observed stretch as the whole story and
pays for it with an O(1/n) boundary bias.  This package completes the DFT
with best-linear-predictor forecasts and backcasts of the unobserved past
and future, which removes that bias exactly when the predictor matches the
process, and in practice when the predictor is fitted by AIC-selected
autoregression.  Downstream consumers (smoothed spectral estimates,
autocovariance via spectral means, Whittle fitting, Monte Carlo tooling)
accept every periodogram variant interchangeably.
"""
from . import arfit, complete, core, estimators, exceptions, integrated, oracle, simulation
from .arfit import *
from .complete import *
from .core import *
from .estimators import *
from .exceptions import *
from .integrated import *
from .oracle import *
from .simulation import *

__version__ = "0.1.0"

__all__ = []
__all__ += arfit.__all__
__all__ += complete.__all__
__all__ += core.__all__
__all__ += estimators.__all__
__all__ += exceptions.__all__
__all__ += integrated.__all__
__all__ += oracle.__all__
__all__ += simulation.__all__
