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
from .arfit import (
    ArmaExpansion,
    ArmaModel,
    ArModel,
    OrderSelection,
    aic_select,
    arma_expand,
    levinson_durbin,
    yule_walker_fit,
)
from .complete import (
    AutoAIC,
    Explicit,
    FixedOrder,
    TruncatedInfinite,
    complete_periodogram,
    predictive_dft,
    predictive_dft_matrix,
    predictive_dft_truncated_infinite,
    raw_periodogram,
    threshold_real,
)
from .core import (
    CovarianceSequence,
    FrequencyGrid,
    PeriodogramEstimate,
    PgMeta,
    Taper,
    TimeSeries,
    dft,
    sample_autocov,
    tukey_taper,
)
from .estimators import ESTIMATOR_KINDS, EstimatorSpec, default_rise, evaluate_estimator
from .exceptions import DomainError, NumericalError, PredspecError
from .integrated import (
    FourierSum,
    RiemannIntegral,
    SpectralFamily,
    SpectralMeanConfig,
    SpectralWindow,
    WhittleResult,
    acf_estimate,
    ar_family,
    smooth_periodogram,
    spectral_mean,
    spectral_window,
    whittle_fit,
)
from .oracle import (
    expected_quadratic,
    fejer_expected_periodogram,
    finite_predictor_coeffs,
    predictive_dft_bruteforce,
)
from .simulation import (
    ExperimentSpec,
    MetricRow,
    MetricTable,
    builtin_models,
    run_experiment,
    simulate_arma,
    split_seed,
)

__version__ = "0.1.0"

__all__ = [
    "ArmaExpansion",
    "ArmaModel",
    "ArModel",
    "AutoAIC",
    "CovarianceSequence",
    "DomainError",
    "ESTIMATOR_KINDS",
    "EstimatorSpec",
    "Explicit",
    "ExperimentSpec",
    "FixedOrder",
    "FourierSum",
    "FrequencyGrid",
    "MetricRow",
    "MetricTable",
    "NumericalError",
    "OrderSelection",
    "PeriodogramEstimate",
    "PgMeta",
    "PredspecError",
    "RiemannIntegral",
    "SpectralFamily",
    "SpectralMeanConfig",
    "SpectralWindow",
    "Taper",
    "TimeSeries",
    "TruncatedInfinite",
    "WhittleResult",
    "acf_estimate",
    "aic_select",
    "ar_family",
    "arma_expand",
    "builtin_models",
    "complete_periodogram",
    "default_rise",
    "dft",
    "evaluate_estimator",
    "expected_quadratic",
    "fejer_expected_periodogram",
    "finite_predictor_coeffs",
    "levinson_durbin",
    "predictive_dft",
    "predictive_dft_bruteforce",
    "predictive_dft_matrix",
    "predictive_dft_truncated_infinite",
    "raw_periodogram",
    "run_experiment",
    "sample_autocov",
    "simulate_arma",
    "smooth_periodogram",
    "spectral_mean",
    "spectral_window",
    "split_seed",
    "threshold_real",
    "tukey_taper",
    "whittle_fit",
    "yule_walker_fit",
]
