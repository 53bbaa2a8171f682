import numpy as np
import pytest

from predspec import (
    ESTIMATOR_KINDS,
    ArmaModel,
    AutoAIC,
    DomainError,
    EstimatorSpec,
    Explicit,
    FixedOrder,
    FrequencyGrid,
    builtin_models,
    complete_periodogram,
    default_rise,
    evaluate_estimator,
    raw_periodogram,
    simulate_arma,
    tukey_taper,
)


def test_estimator_spec_validation():
    truth = Explicit(ArmaModel([0.0, -0.81], [], 1.0))
    for bad in (
        lambda: EstimatorSpec("bogus"),
        lambda: EstimatorSpec("regular", taper_d=3),
        lambda: EstimatorSpec("complete", taper_d=3),
        lambda: EstimatorSpec("complete-true", taper_d=3, source=truth),
        lambda: EstimatorSpec("regular", source=truth),
        lambda: EstimatorSpec("tapered", source=FixedOrder(2)),
        lambda: EstimatorSpec("complete-true", source=FixedOrder(2)),
        lambda: EstimatorSpec("complete-true", source=AutoAIC()),
        # falsy non-sources are not read as "no source"
        lambda: EstimatorSpec("complete", source=[]),
        lambda: EstimatorSpec("complete", source=0),
        lambda: EstimatorSpec("tapered-complete", source=""),
        # a rise length is checked when the spec is built, not when it is run
        lambda: EstimatorSpec("tapered", taper_d="3"),
        lambda: EstimatorSpec("tapered", taper_d=0),
        lambda: EstimatorSpec("tapered", taper_d=2.5),
        lambda: EstimatorSpec("tapered", taper_d=True),
        lambda: EstimatorSpec("tapered-complete", taper_d=-1),
    ):
        with pytest.raises(DomainError):
            bad()
    EstimatorSpec("complete-true", source=truth)
    EstimatorSpec("complete", source=truth)
    EstimatorSpec("tapered-complete", source=FixedOrder(2), taper_d=3)
    assert [k for k in ESTIMATOR_KINDS if EstimatorSpec(k).tapered] == ["tapered", "tapered-complete"]
    assert [k for k in ESTIMATOR_KINDS if not EstimatorSpec(k).completed] == ["regular", "tapered"]
    assert EstimatorSpec("tapered", taper_d=3).label == "tapered(d=3)"
    assert EstimatorSpec("complete-true", source=truth).label == "complete-true"
    # complete-true has no model to fall back on
    ts = simulate_arma(builtin_models("m1", 0.9), 20, 1)
    with pytest.raises(DomainError):
        evaluate_estimator(ts, EstimatorSpec("complete-true"), FrequencyGrid.fourier(20))


def test_evaluate_estimator_matches_direct_calls():
    model = builtin_models("m1", 0.9)
    truth = Explicit(model)
    ts = simulate_arma(model, 30, 4)
    default_taper = tukey_taper(30, default_rise(30))
    for grid in (FrequencyGrid.fourier(30), FrequencyGrid.uniform(64)):
        cases = {
            "regular": (EstimatorSpec("regular"), lambda: raw_periodogram(ts, grid)),
            "tapered": (
                EstimatorSpec("tapered", taper_d=3),
                lambda: raw_periodogram(ts, grid, tukey_taper(30, 3)),
            ),
            "complete-true": (
                EstimatorSpec("complete-true", source=truth),
                lambda: complete_periodogram(ts, truth, grid),
            ),
            "complete": (EstimatorSpec("complete"), lambda: complete_periodogram(ts, AutoAIC(), grid)),
            "tapered-complete": (
                EstimatorSpec("tapered-complete", source=FixedOrder(2)),
                lambda: complete_periodogram(ts, FixedOrder(2), grid, taper=default_taper),
            ),
        }
        assert set(cases) == set(ESTIMATOR_KINDS)
        for kind, (spec, direct) in cases.items():
            got, want = evaluate_estimator(ts, spec, grid), direct()
            np.testing.assert_array_equal(got.values, want.values, err_msg=kind)
            assert got.kind == want.kind, kind
            assert got.meta == want.meta, kind
