"""The row kernels the experiment runner evaluates blocks of series with,
against the single-series functions that call them on one row."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from predspec import (
    ESTIMATOR_KINDS,
    ArmaModel,
    ArModel,
    AutoAIC,
    EstimatorSpec,
    Explicit,
    FixedOrder,
    FrequencyGrid,
    TimeSeries,
    evaluate_estimator,
)
from predspec.arfit import _aic_rows
from predspec.estimators import _estimate_block, _plans
from predspec.simulation import _simulate_rows


def _reflection_ar(ks) -> np.ndarray:
    a = np.zeros(0)
    for k in ks:
        a = np.concatenate((a - k * a[::-1], [k]))
    return a


@st.composite
def _ar_block(draw, kmax):
    """A causal AR(0..4) model, a block of 1 to 70 of its sample paths of
    length 4 to 400, and a Fourier or uniform grid."""
    a = _reflection_ar(draw(st.lists(st.floats(-kmax, kmax), max_size=4)))
    n = draw(st.integers(4, 400))
    seed = draw(st.integers(0, 2**32))
    x = _simulate_rows(ArmaModel(a, [], 1.0), n, range(seed, seed + draw(st.integers(1, 70))))
    if draw(st.booleans()):
        grid = FrequencyGrid.fourier(n)
    else:
        grid = FrequencyGrid.uniform(draw(st.integers(1, 300)))
    return a, x, grid


def _assert_block_matches_single(specs, x, grid):
    """Each spec's rows of one shared block pass equal `evaluate_estimator`
    on each series bit for bit."""
    block = _estimate_block(_plans(specs, x.shape[-1]), x, grid)
    assert len(block) == len(specs)
    for spec, values in zip(specs, block):
        assert values.shape == (x.shape[0], grid.size)
        for row, got in zip(x, values):
            single = evaluate_estimator(TimeSeries(row), spec, grid).values
            np.testing.assert_array_equal(got, single, err_msg=spec.label)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_ar_block(kmax=0.95))
def test_block_rows_match_single_series(case):
    """Every kind evaluated on a block equals `evaluate_estimator` on each of
    its series bit for bit: a row's values do not depend on the block it is
    evaluated in."""
    a, x, grid = case
    specs = [
        EstimatorSpec("regular"),
        EstimatorSpec("tapered"),
        EstimatorSpec("complete-true", source=Explicit(ArModel(a, 1.0))),
        EstimatorSpec("complete"),
        EstimatorSpec("tapered-complete", taper_d=2),
        EstimatorSpec("complete", source=FixedOrder(2)),
    ]
    _assert_block_matches_single(specs, x, grid)


@st.composite
def _spec_lists(draw, a):
    """1 to 6 specs of every kind, with repeated and distinct rise lengths,
    and with default, AIC, fixed-order and explicit sources; explicit models
    are drawn from one shared object, an equal copy of it and another model."""
    truth = Explicit(ArModel(a, 1.0))
    explicit = st.sampled_from([truth, Explicit(ArModel(a, 1.0)), Explicit(ArModel([0.5], 2.0))])
    fitted = st.one_of(st.none(), st.just(AutoAIC(max_order=2)), st.builds(FixedOrder, st.integers(1, 3)),
                       explicit)
    specs = []
    for kind in draw(st.lists(st.sampled_from(ESTIMATOR_KINDS), min_size=1, max_size=6)):
        spec = EstimatorSpec(kind)
        if spec.tapered:
            spec = EstimatorSpec(kind, taper_d=draw(st.sampled_from([None, 1, 2])))
        if kind == "complete-true":
            spec = EstimatorSpec(kind, source=draw(explicit))
        elif spec.completed:
            spec = EstimatorSpec(kind, source=draw(fitted), taper_d=spec.taper_d)
        specs.append(spec)
    return specs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_shared_block_pass_matches_single_series(data):
    """Whatever the mix of estimators sharing a block pass, each one's rows
    equal `evaluate_estimator` bit for bit, so no sharing key merges two
    different tapers or sources."""
    a, x, grid = data.draw(_ar_block(kmax=0.95))
    _assert_block_matches_single(data.draw(_spec_lists(a)), x[:12], grid)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_ar_block(kmax=0.999), st.booleans())
def test_aic_fitted_rows_are_causal(case, random_walk):
    """The runner fits AIC models per row without building an `ArModel`;
    each fitted coefficient row must still pass its causality check."""
    _, x, _ = case
    if random_walk:
        x = np.cumsum(x, axis=1)
    orders, coeffs, sigma2, _ = _aic_rows(x)
    for p, a, s2 in zip(orders, coeffs, sigma2):
        assert not np.any(a[p:])
        ArModel(a[:p], s2)  # raises DomainError for a root on or inside the unit circle
