"""The row kernels the experiment runner evaluates blocks of series with,
against the single-series functions that call them on one row."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from predspec import (
    ESTIMATOR_KINDS,
    ArmaModel,
    AutoAIC,
    EstimatorSpec,
    ExperimentSpec,
    Explicit,
    FixedOrder,
    FrequencyGrid,
    SpectralMeanConfig,
    TimeSeries,
    TruncatedInfinite,
    acf_estimate,
    builtin_models,
    evaluate_estimator,
)
from predspec import complete
from predspec.arfit import _aic_rows
from predspec.complete import _estimate_block
from predspec.estimators import _plans
from predspec.simulation import _Prep, _simulate_rows


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
    on each series bit for bit, and its source's orders are each estimate's
    order."""
    plans = _plans(specs, x.shape[-1])
    record = _estimate_block(plans, x, grid)
    assert len(record.values) == len(specs)
    for spec, (_, source), values in zip(specs, plans, record.values):
        orders = record.orders.get(source)
        assert values.shape == (x.shape[0], grid.size)
        if orders is not None:
            assert orders.shape == (x.shape[0],)
        for i, (row, got) in enumerate(zip(x, values)):
            single = evaluate_estimator(TimeSeries(row), spec, grid)
            np.testing.assert_array_equal(got, single.values, err_msg=spec.label)
            assert (None if orders is None else orders[i]) == single.meta.order, spec.label


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
        EstimatorSpec("complete-true", source=Explicit(ArmaModel(a, [], 1.0))),
        EstimatorSpec("complete"),
        EstimatorSpec("tapered-complete", taper_d=2),
        EstimatorSpec("complete", source=FixedOrder(2)),
        EstimatorSpec("complete", source=TruncatedInfinite(np.array([0.5, -0.25, 0.125]))),
    ]
    _assert_block_matches_single(specs, x, grid)


def test_block_rows_match_single_series_on_large_blocks():
    """A block of 40 rows on a 500-point grid holds more than 256 KiB per
    estimator, where numpy would evaluate a product with a temporary operand
    in place; its rows still equal the single-series ones bit for bit."""
    a = np.array([0.5, -0.3])
    x = _simulate_rows(ArmaModel(a, [], 1.0), 50, range(40))
    specs = [EstimatorSpec("complete-true", source=Explicit(ArmaModel(a, [], 1.0))), EstimatorSpec("tapered-complete")]
    _assert_block_matches_single(specs, x, FrequencyGrid.uniform(500))


def test_acf_block_rows_match_acf_estimate():
    """The runner's autocorrelation rows equal `acf_estimate` on each series
    bit for bit, in a block of 32 rows as in a block of one."""
    model = builtin_models("m1", 0.9)
    truth = Explicit(model)
    specs = (EstimatorSpec("regular"), EstimatorSpec("tapered"), EstimatorSpec("complete-true"),
             EstimatorSpec("complete"), EstimatorSpec("tapered-complete"))
    spec = ExperimentSpec(model=model, n=20, replications=32, estimators=specs, seed=3, acf_lags=5)
    prep = _Prep(spec)
    x = _simulate_rows(model, spec.n, range(32))
    for rows in (1, 32):
        record = _estimate_block(prep.plans, x[:rows], prep.grid)
        for est, values in zip(specs, record.values):
            got = prep.reduce(est, values)
            single = EstimatorSpec(est.kind, source=truth) if est.kind == "complete-true" else est
            cfg = SpectralMeanConfig(spec.acf_points, spec.threshold if est.completed else None)
            for row, acf in zip(x[:rows], got):
                np.testing.assert_array_equal(acf, acf_estimate(TimeSeries(row), 5, single, cfg)[1][1:],
                                              err_msg=f"{est.label}, block of {rows}")


@st.composite
def _spec_lists(draw, a):
    """1 to 6 specs of every kind, with repeated and distinct rise lengths,
    and with default, AIC, fixed-order and explicit sources; explicit models
    are drawn from one shared object, an equal copy of it and another model."""
    truth = Explicit(ArmaModel(a, [], 1.0))
    explicit = st.sampled_from([truth, Explicit(ArmaModel(a, [], 1.0)), Explicit(ArmaModel([0.5], [], 2.0))])
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


def test_equal_sources_built_apart_share_one_correction(monkeypatch):
    """The block pass keys sources by their own equality: two `AutoAIC()` and
    two `FixedOrder(2)` built apart take one correction each, and every
    plan's rows still equal the single-series ones."""
    calls, correction_rows = [], complete._correction_rows

    def counted(x, a, grid):
        calls.append(x.shape[0])
        return correction_rows(x, a, grid)

    monkeypatch.setattr(complete, "_correction_rows", counted)
    x = _simulate_rows(ArmaModel([0.5, -0.3], [], 1.0), 30, range(5))
    specs = [EstimatorSpec("complete", source=AutoAIC()), EstimatorSpec("tapered-complete", source=AutoAIC()),
             EstimatorSpec("complete", source=FixedOrder(2)),
             EstimatorSpec("tapered-complete", source=FixedOrder(2), taper_d=2)]
    _assert_block_matches_single(specs, x, FrequencyGrid.fourier(30))
    assert calls.count(5) == 2  # the block's calls; each single series adds its own of one row


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_ar_block(kmax=0.999), st.booleans(), st.none() | st.integers(1, 40))
def test_aic_block_rows_equal_single_rows(case, random_walk, max_order):
    """Each row of an `_aic_rows` block, of 1, 2, 3, 7, 32 or all its rows,
    has the order, coefficients, variance and AIC values of a one-row call
    bit for bit, so a near-tie resolves alike in the runner's blocks and in
    `evaluate_estimator`."""
    _, x, _ = case
    if random_walk:
        x = np.cumsum(x, axis=1)
    if max_order is not None:
        max_order = min(max_order, x.shape[1] - 2)
    single = [_aic_rows(x[r : r + 1], max_order) for r in range(x.shape[0])]
    for size in sorted({1, 2, 3, 7, 32, x.shape[0]}):
        block = _aic_rows(x[:size], max_order)
        for r, one in enumerate(single[:size]):
            for got, want in zip(block, one):
                np.testing.assert_array_equal(got[r], want[0])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_ar_block(kmax=0.999), st.booleans())
def test_aic_fitted_rows_are_causal(case, random_walk):
    """The runner fits AIC models per row without building a model object;
    each fitted coefficient row must still pass its causality check."""
    _, x, _ = case
    if random_walk:
        x = np.cumsum(x, axis=1)
    orders, coeffs, sigma2, _ = _aic_rows(x)
    for p, a, s2 in zip(orders, coeffs, sigma2):
        assert not np.any(a[p:])
        ArmaModel(a[:p], [], s2)  # raises DomainError for a root on or inside the unit circle
