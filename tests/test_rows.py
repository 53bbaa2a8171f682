"""The row kernels the experiment runner evaluates blocks of series with,
against the single-series functions that call them on one row."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from predspec import (
    ArmaModel,
    ArModel,
    EstimatorSpec,
    Explicit,
    FixedOrder,
    FrequencyGrid,
    TimeSeries,
    evaluate_estimator,
)
from predspec.arfit import _aic_rows
from predspec.estimators import _estimate_rows
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
    for spec in specs:
        block = _estimate_rows(spec, x, grid)
        assert block.shape == (x.shape[0], grid.size)
        for row, values in zip(x, block):
            single = evaluate_estimator(TimeSeries(row), spec, grid).values
            np.testing.assert_array_equal(values, single, err_msg=spec.label)


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
