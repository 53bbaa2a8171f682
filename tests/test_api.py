"""The public surface: adding or removing a public name is a deliberate edit here."""
import importlib

import predspec

_PUBLIC = [
    "ArModel", "ArmaExpansion", "ArmaModel", "AutoAIC", "CovarianceSequence",
    "DomainError", "ESTIMATOR_KINDS", "EstimatorSpec", "ExperimentSpec", "Explicit",
    "FixedOrder", "FourierSum", "FrequencyGrid", "MetricRow", "MetricTable",
    "NumericalError", "OrderSelection", "PeriodogramEstimate", "PgMeta", "PredspecError",
    "RiemannIntegral", "SpectralFamily", "SpectralMeanConfig", "SpectralWindow", "Taper",
    "TimeSeries", "TruncatedInfinite", "WhittleResult", "acf_estimate", "aic_select",
    "ar_family", "arma_expand", "builtin_models", "complete_periodogram", "default_rise",
    "dft", "evaluate_estimator", "expected_quadratic", "fejer_expected_periodogram",
    "finite_predictor_coeffs", "levinson_durbin", "predictive_dft",
    "predictive_dft_bruteforce", "predictive_dft_matrix",
    "predictive_dft_truncated_infinite", "raw_periodogram", "run_experiment",
    "sample_autocov", "simulate_arma", "smooth_periodogram", "spectral_mean",
    "spectral_window", "split_seed", "threshold_real", "tukey_taper", "whittle_fit",
    "yule_walker_fit",
]

_SUBMODULES = ("arfit", "complete", "core", "estimators", "integrated", "oracle", "simulation", "verify")


def test_public_names_are_pinned_and_resolve():
    assert sorted(predspec.__all__) == _PUBLIC
    for name in ("predspec",) + tuple(f"predspec.{sub}" for sub in _SUBMODULES):
        module = importlib.import_module(name)
        assert len(set(module.__all__)) == len(module.__all__), name
        for attr in module.__all__:
            assert hasattr(module, attr), f"{name}.{attr}"
