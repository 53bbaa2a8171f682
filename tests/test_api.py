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

# the modules the package re-exports, in the order their names are appended
_EXPORTED = ("arfit", "complete", "core", "estimators", "exceptions", "integrated", "oracle", "simulation")
_SUBMODULES = _EXPORTED + ("verify",)


def test_public_names_are_pinned_and_resolve():
    assert sorted(predspec.__all__) == _PUBLIC
    for name in ("predspec",) + tuple(f"predspec.{sub}" for sub in _SUBMODULES):
        module = importlib.import_module(name)
        assert len(set(module.__all__)) == len(module.__all__), name
        for attr in module.__all__:
            assert hasattr(module, attr), f"{name}.{attr}"


def test_package_names_are_the_submodules_names():
    # each name is declared once, in its module: none is exported by two
    # modules, so no star import can shadow another module's name
    exported = [name for sub in _EXPORTED for name in importlib.import_module(f"predspec.{sub}").__all__]
    assert predspec.__all__ == exported


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from predspec import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == _PUBLIC
