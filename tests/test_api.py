"""The public surface: adding or removing a public name is a deliberate edit here."""
import importlib

import numpy as np
import pytest

import predspec
from predspec import (
    ArModel, ArmaModel, AutoAIC, CovarianceSequence, EstimatorSpec, Explicit, FixedOrder,
    FrequencyGrid, MetricRow, TimeSeries, TruncatedInfinite, aic_select, ar_family,
    arma_expand, raw_periodogram, spectral_window, tukey_taper, whittle_fit,
)

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
    "predictive_dft_bruteforce", "predictive_dft_matrix", "raw_periodogram", "run_experiment",
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


_SERIES = np.sin(np.arange(24.0)) + np.cos(0.3 * np.arange(24.0) ** 2)

# each builds a new, equal instance of a public type that holds an array
_ARRAY_HOLDERS = {
    "TimeSeries": lambda: TimeSeries(_SERIES),
    "FrequencyGrid": lambda: FrequencyGrid.fourier(8),
    "CovarianceSequence": lambda: CovarianceSequence([1.0, 0.5]),
    "Taper": lambda: tukey_taper(8, 2),
    "PeriodogramEstimate": lambda: raw_periodogram(TimeSeries(_SERIES), FrequencyGrid.fourier(24)),
    "ArModel": lambda: ArModel([0.5, 0.2], 1.0),
    "ArmaModel": lambda: ArmaModel([0.5], [0.2], 1.0),
    "OrderSelection": lambda: aic_select(TimeSeries(_SERIES)),
    "ArmaExpansion": lambda: arma_expand(ArmaModel([0.5], [0.2], 1.0)),
    "TruncatedInfinite": lambda: TruncatedInfinite([0.5, 0.2]),
    "SpectralWindow": lambda: spectral_window("daniell", 2),
    "WhittleResult": lambda: whittle_fit(TimeSeries(_SERIES), ar_family(1), EstimatorSpec("regular"), [0.1]),
    "MetricRow": lambda: MetricRow("regular", 1.0, 0.5, 0.1, 0.1, np.zeros(2), np.zeros(2)),
    "Explicit": lambda: Explicit(ArModel([0.5, 0.2], 1.0)),
    "EstimatorSpec": lambda: EstimatorSpec("complete-true", source=Explicit(ArModel([0.5], 1.0))),
}


@pytest.mark.parametrize("make", list(_ARRAY_HOLDERS.values()), ids=list(_ARRAY_HOLDERS))
def test_equality_of_array_holders_is_a_bool(make):
    # an elementwise array comparison inside a generated __eq__ would raise
    # ValueError here, or return an array; these types compare by identity
    a, b = make(), make()
    assert (a == a) is True and (a != a) is False
    assert (a == b) is False and (a != b) is True
    assert isinstance(hash(a), int)


def test_fitted_sources_and_specs_compare_by_value():
    # the fits a series keeps are keyed by these values
    assert AutoAIC() == AutoAIC() and AutoAIC(3) != AutoAIC(4)
    assert FixedOrder(2) == FixedOrder(2) and hash(FixedOrder(2)) == hash(FixedOrder(2))
    assert EstimatorSpec("complete", source=AutoAIC()) == EstimatorSpec("complete", source=AutoAIC())
