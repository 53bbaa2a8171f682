import dataclasses
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predspec import (
    ArModel,
    ArmaModel,
    AutoAIC,
    DomainError,
    EstimatorSpec,
    Explicit,
    FixedOrder,
    FrequencyGrid,
    NumericalError,
    PredspecError,
    SpectralMeanConfig,
    TimeSeries,
    TruncatedInfinite,
    arma_expand,
    builtin_models,
    acf_estimate,
    ar_family,
    complete_periodogram,
    dft,
    evaluate_estimator,
    predictive_dft,
    predictive_dft_bruteforce,
    predictive_dft_matrix,
    raw_periodogram,
    simulate_arma,
    threshold_real,
    tukey_taper,
    whittle_fit,
)
from predspec import complete
from predspec.arfit import _transfer_polynomial


def test_predictive_dft_ar0_is_zero():
    ts = TimeSeries([1.0, 2.0, -1.0])
    g = FrequencyGrid.fourier(3)
    np.testing.assert_allclose(predictive_dft(ts, Explicit(ArModel([], 1.0)), g), 0.0)


def test_predictive_dft_ar1_hand_value():
    """AR(1) a=0.5, x=[1,1] at w=0.

    Each boundary contributes the geometric predictor sum 0.5/(1-0.5) = 1,
    so the total is 2/sqrt(2) = sqrt(2).
    """
    ts = TimeSeries([1.0, 1.0])
    g = FrequencyGrid.explicit([0.0])
    val = predictive_dft(ts, Explicit(ArModel([0.5], 1.0)), g)[0]
    assert val == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_predictive_dft_order_cannot_exceed_n():
    ts = TimeSeries([1.0, 2.0])
    g = FrequencyGrid.fourier(2)
    with pytest.raises(DomainError):
        predictive_dft(ts, Explicit(ArModel([0.1, 0.1, 0.1], 1.0)), g)


def test_predictive_dft_takes_a_model_source():
    ts = TimeSeries([1.0, 2.0, -1.0, 0.5])
    with pytest.raises(DomainError, match=r"Explicit\(model\)"):
        predictive_dft(ts, ArModel([0.5], 1.0), FrequencyGrid.fourier(4))
    with pytest.raises(DomainError, match="unknown model source None"):
        predictive_dft(ts, None, FrequencyGrid.fourier(4))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_complete_periodogram_is_dft_plus_predictive_dft_times_conj(data):
    """The complete periodogram is (J + J-hat) * conj(J_h) bit for bit, for
    every model source, grid kind and taper, with the fit a series keeps."""
    n = data.draw(st.integers(6, 60))
    ts = TimeSeries(np.random.default_rng(data.draw(st.integers(0, 2**32))).standard_normal(n))
    w = data.draw(st.lists(st.floats(0.0, 6.28), min_size=1, max_size=12, unique=True))
    grids = (FrequencyGrid.fourier(n), FrequencyGrid.uniform(data.draw(st.integers(1, 80))),
             FrequencyGrid.explicit(sorted(w)))
    sources = (
        Explicit(ArModel([0.5, -0.3], 1.0)),
        TruncatedInfinite(0.6 ** np.arange(1, data.draw(st.integers(1, 2 * n)) + 1)),
        AutoAIC(),
        FixedOrder(data.draw(st.integers(0, 3))),
    )
    for source in sources:
        for grid in grids:
            for taper in (None, tukey_taper(n, data.draw(st.integers(1, n // 2)))):
                got = complete_periodogram(ts, source, grid, taper).values
                want = np.multiply(dft(ts, grid) + predictive_dft(ts, source, grid), np.conj(dft(ts, grid, taper)))
                assert got.tobytes() == want.tobytes()


def test_predictive_dft_reads_the_kept_fit():
    ts = simulate_arma(builtin_models("m1", 0.8), 120, 4).center()
    calls = []
    aic_rows = complete._aic_rows

    def spy(x, max_order=None):
        calls.append(max_order)
        return aic_rows(x, max_order)

    with mock.patch.object(complete, "_aic_rows", spy):
        complete_periodogram(ts, AutoAIC(), FrequencyGrid.fourier(ts.n))
        kept = predictive_dft(ts, AutoAIC(), FrequencyGrid.uniform(33))
        assert len(calls) == 1
        fresh = predictive_dft(TimeSeries(ts.values), AutoAIC(), FrequencyGrid.uniform(33))
        assert len(calls) == 2
    assert kept.tobytes() == fresh.tobytes()


def test_predictive_dft_matrix_agrees_with_vector_form():
    rng = np.random.default_rng(77)
    ts = TimeSeries(rng.standard_normal(12))
    model = ArModel([0.5, -0.3], 1.0)
    g = FrequencyGrid.fourier(12)
    D = predictive_dft_matrix(model, 12, g)
    np.testing.assert_allclose(ts.values @ D, predictive_dft(ts, Explicit(model), g), rtol=1e-12)


def test_predictive_dft_only_touches_boundaries():
    # rows p..n-p of the correction matrix are zero: interior observations
    # never feed the extension terms
    model = ArModel([0.4, 0.2], 1.0)
    D = predictive_dft_matrix(model, 10, FrequencyGrid.fourier(10))
    np.testing.assert_allclose(D[2:8], 0.0)
    assert np.any(D[:2] != 0) and np.any(D[8:] != 0)


def test_truncated_infinite_matches_finite_ar():
    rng = np.random.default_rng(5)
    ts = TimeSeries(rng.standard_normal(15))
    g = FrequencyGrid.fourier(15)
    model = ArModel([0.5, -0.2], 1.0)
    padded = np.concatenate([model.coeffs, np.zeros(40)])
    np.testing.assert_allclose(
        predictive_dft(ts, TruncatedInfinite(padded), g),
        predictive_dft(ts, Explicit(model), g),
        atol=1e-10,
    )


def test_truncated_infinite_zero_coeffs():
    ts = TimeSeries([1.0, -2.0, 3.0])
    g = FrequencyGrid.fourier(3)
    np.testing.assert_allclose(
        predictive_dft(ts, TruncatedInfinite(np.zeros(5)), g), 0.0
    )


def test_truncated_infinite_stability_in_m():
    # ARMA expansion coefficients decay geometrically, so M=200 vs M=400
    # must agree tightly
    model = builtin_models("m2")
    ts = simulate_arma(model, 50, 99)
    g = FrequencyGrid.fourier(50)
    a400 = arma_expand(model, M=400).ar_inf
    a200 = a400[:200]
    v200 = predictive_dft(ts, TruncatedInfinite(a200), g)
    v400 = predictive_dft(ts, TruncatedInfinite(a400), g)
    assert np.max(np.abs(v200 - v400)) < 1e-8


def test_truncated_infinite_rejects_vanishing_transfer():
    ts = TimeSeries(np.ones(4))
    g = FrequencyGrid.explicit([0.0])
    # a(0) = 1 - 1 = 0
    with pytest.raises(NumericalError):
        predictive_dft(ts, TruncatedInfinite(np.array([1.0 - 1e-12])), g)
    # the finite and the truncated sources share one guard: a causal AR(1)
    # with |a(0)| = 1e-9 must raise, not return values of order 1/|a(0)|
    series = simulate_arma(builtin_models("m1", 0.7), 100, 3)
    for source in (Explicit(ArModel([1.0 - 1e-9], 1.0)), TruncatedInfinite([1.0 - 1e-9])):
        with pytest.raises(NumericalError):
            complete_periodogram(series, source, FrequencyGrid.fourier(100))


def test_complete_periodogram_ar0_equals_raw():
    rng = np.random.default_rng(21)
    ts = TimeSeries(rng.standard_normal(9))
    g = FrequencyGrid.fourier(9)
    pg = complete_periodogram(ts, Explicit(ArModel([], 1.0)), g)
    np.testing.assert_allclose(
        pg.values, raw_periodogram(ts, g).values.astype(complex), rtol=1e-12
    )


def test_complete_periodogram_kinds_and_meta():
    ts = simulate_arma(builtin_models("m1", 0.9), 24, 8)
    g = FrequencyGrid.fourier(24)

    true_pg = complete_periodogram(ts, Explicit(ArModel([0.0, -0.81], 1.0)), g)
    assert true_pg.kind == "complete-true-ar"
    assert true_pg.meta.order == 2

    est_pg = complete_periodogram(ts, AutoAIC(), g)
    assert est_pg.kind == "complete"
    assert est_pg.meta.order >= 1

    fixed_pg = complete_periodogram(ts, FixedOrder(3), g)
    assert fixed_pg.meta.order == 3

    t = tukey_taper(24, 3)
    tap_pg = complete_periodogram(ts, AutoAIC(), g, taper=t)
    assert tap_pg.kind == "tapered-complete"
    assert tap_pg.meta.taper is not None

    # no source is no completed periodogram, with or without a taper
    for taper in (None, t):
        with pytest.raises(DomainError):
            complete_periodogram(ts, None, g, taper=taper)


def test_complete_periodogram_is_complete_dft_times_conj_dft():
    ts = simulate_arma(builtin_models("m1", 0.7), 16, 3)
    g = FrequencyGrid.fourier(16)
    model = ArModel([0.0, -0.49], 1.0)
    pg = complete_periodogram(ts, Explicit(model), g)
    J = dft(ts, g)
    Jhat = predictive_dft(ts, Explicit(model), g)
    np.testing.assert_allclose(pg.values, (J + Jhat) * np.conj(J), rtol=1e-12)


def test_taper_applies_to_conjugated_factor_only():
    ts = simulate_arma(builtin_models("m1", 0.7), 20, 13)
    g = FrequencyGrid.fourier(20)
    model = ArModel([0.0, -0.49], 1.0)
    t = tukey_taper(20, 2)
    pg = complete_periodogram(ts, Explicit(model), g, taper=t)
    J = dft(ts, g)
    Jh = dft(ts, g, t)
    Jhat = predictive_dft(ts, Explicit(model), g)
    # the completed factor keeps the plain DFT; only the conjugate is tapered
    np.testing.assert_allclose(pg.values, (J + Jhat) * np.conj(Jh), rtol=1e-12)


def test_complete_periodogram_conjugate_symmetry():
    ts = simulate_arma(builtin_models("m1", 0.9), 14, 5)
    g = FrequencyGrid.fourier(14)
    pg = complete_periodogram(ts, FixedOrder(2), g)
    v = pg.values
    # value(2pi - w) = conj(value(w)); index 0 is w=0, self-conjugate
    for k in range(1, 14):
        assert v[14 - k] == pytest.approx(np.conj(v[k]), rel=1e-10)
    assert abs(v[0].imag) < 1e-12


def test_truncated_infinite_source_through_complete_periodogram():
    model = builtin_models("m2")
    ts = simulate_arma(model, 30, 17)
    g = FrequencyGrid.fourier(30)
    coeffs = arma_expand(model, M=300).ar_inf
    pg = complete_periodogram(ts, TruncatedInfinite(coeffs), g)
    assert pg.kind == "complete"
    expected = dft(ts, g) + predictive_dft(ts, TruncatedInfinite(coeffs), g)
    np.testing.assert_allclose(pg.values, expected * np.conj(dft(ts, g)), rtol=1e-12)


def test_threshold_real():
    ts = simulate_arma(builtin_models("m1", 0.9), 20, 2)
    g = FrequencyGrid.fourier(20)
    pg = complete_periodogram(ts, FixedOrder(2), g)
    thr = threshold_real(pg, 1e-3)
    assert thr.kind == "thresholded-real"
    assert thr.meta.threshold == 1e-3
    assert thr.meta.order == pg.meta.order
    np.testing.assert_allclose(thr.values.imag, 0.0)
    assert np.all(thr.values.real >= 1e-3)
    np.testing.assert_allclose(
        thr.values.real, np.maximum(pg.values.real, 1e-3), rtol=1e-15
    )
    with pytest.raises(DomainError):
        threshold_real(pg, 0.0)
    # every provenance field survives thresholding, not only the known ones
    pg = complete_periodogram(ts, FixedOrder(2), g, taper=tukey_taper(20, 2))
    thr = threshold_real(pg, 1e-3)
    assert thr.meta == replace(pg.meta, threshold=1e-3)


def test_complete_true_mean_matches_density_within_mc_error():
    """Sample mean over replications sits within 3 MC standard errors of f
    at every Fourier frequency (fixed seed family)."""
    model = builtin_models("m1", 0.9)
    ar = model.pure_ar()
    n, B = 20, 5000
    g = FrequencyGrid.fourier(n)
    f = model.density(g.frequencies)
    acc = np.zeros((B, n))
    for b in range(B):
        ts = simulate_arma(model, n, 1_000_000 + b)
        acc[b] = complete_periodogram(ts, Explicit(ar), g).values.real
    mean = acc.mean(axis=0)
    se = acc.std(axis=0, ddof=1) / np.sqrt(B)
    assert np.all(np.abs(mean - f) <= 3 * se)


@st.composite
def _correction_case(draw):
    """A causal AR(p) from reflection coefficients, a series of length
    p..3p (so the two boundary blocks overlap when 2p > n), and a grid."""
    ks = draw(st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=5))
    a = np.zeros(0)
    for k in ks:
        a = np.concatenate((a - k * a[::-1], [k]))
    p = a.size
    n = draw(st.integers(p, 3 * p))
    kind = draw(st.sampled_from(["fourier", "uniform", "explicit"]))
    if kind == "fourier":
        grid = FrequencyGrid.fourier(n)
    elif kind == "uniform":
        grid = FrequencyGrid.uniform(draw(st.integers(1, 40)))
    else:
        w = draw(st.lists(st.floats(0.0, 6.28), min_size=1, max_size=20, unique=True))
        grid = FrequencyGrid.explicit(sorted(w))
    x = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(n)
    pad = draw(st.integers(0, 2 * n))
    return ArModel(a, 1.0), TimeSeries(x), grid, pad


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_correction_case())
def test_correction_paths_agree(case):
    model, ts, grid, pad = case
    vector = predictive_dft(ts, Explicit(model), grid)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(vector))))
    matrix = ts.values @ predictive_dft_matrix(model, ts.n, grid)
    padded = np.concatenate((model.coeffs, np.zeros(pad)))
    truncated = predictive_dft(ts, TruncatedInfinite(padded), grid)
    np.testing.assert_allclose(matrix, vector, rtol=0.0, atol=tol)
    np.testing.assert_allclose(truncated, vector, rtol=0.0, atol=tol)
    radius = np.max(np.abs(np.roots(np.concatenate(([1.0], -model.coeffs)))))
    if ts.n <= 8 and radius <= 0.9:
        # slow-mixing models need a longer horizon: the tail decays like radius**h
        horizon = max(200, math.ceil(math.log(1e-13) / math.log(max(radius, 0.5))))
        cov = arma_expand(ArmaModel(model.coeffs, [], 1.0), M=ts.n + 2 * horizon).autocov
        brute = predictive_dft_bruteforce(ts, cov, grid, horizon=horizon)
        np.testing.assert_allclose(vector, brute, rtol=0.0, atol=1e-8 * max(1.0, float(np.max(np.abs(brute)))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_correction_transfer_polynomial_matches_direct_sum(data):
    """The correction reads a(w) off the one phase sum (an FFT on Fourier and
    uniform grids) that also gives its boundary sums.  It must equal the
    direct sum `_transfer_polynomial` to 1e-12 of its largest modulus, for
    per-row and shared coefficients, with m below and above both n and M.
    The |a(w)| guard and the order-0 case hold on the same blocks."""
    rows = data.draw(st.integers(1, 40))
    m = data.draw(st.integers(1, 120))
    n = data.draw(st.integers(1, 160))
    M = data.draw(st.integers(1, 700))
    grid = FrequencyGrid.fourier(M) if data.draw(st.booleans()) else FrequencyGrid.uniform(M)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    x = rng.standard_normal((rows, n))
    a = rng.standard_normal((rows if data.draw(st.booleans()) else 1, m)) / np.sqrt(m)

    calls = []
    phase_sums = complete._phase_sums

    def spy(block, g):
        out = phase_sums(block, g)
        calls.append((block, out))
        return out

    with mock.patch.object(complete, "_phase_sums", spy):
        complete._correction_rows(x, a, grid)
    (block, sums), = calls
    np.testing.assert_array_equal(block[-a.shape[0] :], a)
    aw = 1.0 - np.conj(sums[-a.shape[0] :])
    want = _transfer_polynomial(a, grid.frequencies)
    assert np.max(np.abs(aw - want)) <= 1e-12 * np.max(np.abs(want))

    assert not np.any(complete._correction_rows(x, a[:, :0], grid))
    with pytest.raises(NumericalError):
        complete_periodogram(TimeSeries(x[0]), Explicit(ArModel([1 - 1e-9], 1.0)), FrequencyGrid.fourier(n))


def test_single_estimate_takes_only_the_dfts_it_reads():
    """A one-row raw tapered estimate takes one DFT, the tapered one; a
    tapered-complete estimate takes two, the plain one it completes and the
    tapered one it conjugates."""
    ts = simulate_arma(builtin_models("m1", 0.8), 40, 1).center()
    grid, taper = FrequencyGrid.fourier(ts.n), tukey_taper(ts.n, 4)
    tapers = []
    dft_rows = complete._dft_rows

    def spy(x, grid, taper=None):
        tapers.append(taper)
        return dft_rows(x, grid, taper)

    with mock.patch.object(complete, "_dft_rows", spy):
        raw_periodogram(ts, grid, taper)
        assert tapers == [taper]
        tapers.clear()
        complete_periodogram(ts, FixedOrder(2), grid, taper)
        assert len(tapers) == 2 and None in tapers and taper in tapers


# --- the fits a series keeps --------------------------------------------------

_CFG = SpectralMeanConfig(threshold=1e-3)


def _analyse(ts):
    """The analysis of one series that fits its AIC model four times unstored."""
    grid = FrequencyGrid.fourier(ts.n)
    return (
        evaluate_estimator(ts, EstimatorSpec("complete"), grid),
        evaluate_estimator(ts, EstimatorSpec("tapered-complete"), grid),
        acf_estimate(ts, 5, EstimatorSpec("complete"), _CFG),
        whittle_fit(ts, ar_family(2), EstimatorSpec("complete"), [0.1, 0.1], _CFG),
    )


def _assert_same_bits(got, want):
    """Equal results, arrays and floats compared bit for bit."""
    assert type(got) is type(want)
    if dataclasses.is_dataclass(got):
        for f in dataclasses.fields(got):
            _assert_same_bits(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(got, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_bits(g, w)
    elif isinstance(got, (np.ndarray, float)):
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    else:
        assert got == want


def test_series_fits_once_per_source():
    ts = simulate_arma(builtin_models("m1", 0.8), 300, 5).center()
    calls = []
    aic_rows = complete._aic_rows

    def spy(x, max_order=None):
        calls.append(max_order)
        return aic_rows(x, max_order)

    with mock.patch.object(complete, "_aic_rows", spy):
        kept = _analyse(ts)
        assert len(calls) == 1
        unstored = [_analyse(TimeSeries(ts.values))[i] for i in range(4)]
        assert len(calls) == 5
    _assert_same_bits(kept, tuple(unstored))


def test_distinct_sources_keep_distinct_fits():
    # orders 4, 1 and 2: a fit shared between any two would show in the values
    ts = simulate_arma(ArmaModel([0.3, 0.0, 0.5], [], 1.0), 200, 3).center()
    grid = FrequencyGrid.fourier(ts.n)
    sources = (AutoAIC(), AutoAIC(max_order=2), FixedOrder(2))
    for _ in range(2):  # the second round reads every fit from the store
        got = [complete_periodogram(ts, source, grid) for source in sources]
        want = [complete_periodogram(TimeSeries(ts.values), source, grid) for source in sources]
        _assert_same_bits(got, want)
    assert [pg.meta.order for pg in got] == [4, 1, 2]
    assert set(ts._fits) == set(sources)


def test_new_series_start_without_fits():
    ts = simulate_arma(builtin_models("m1", 0.8), 100, 2)
    grid = FrequencyGrid.fourier(ts.n)
    complete_periodogram(ts, AutoAIC(), grid)
    assert list(ts._fits) == [AutoAIC()]
    centred, replaced = ts.center(), replace(ts, values=ts.values + 1.0)
    for other in (centred, replaced):
        assert other._fits == {} and other._fits is not ts._fits
        _assert_same_bits(complete_periodogram(other, AutoAIC(), grid),
                          complete_periodogram(TimeSeries(other.values), AutoAIC(), grid))
    assert list(ts._fits) == [AutoAIC()]
    assert "_fits" not in repr(ts)
    assert not ts.values.flags.writeable


def _outcome(call, ts):
    try:
        return call(ts)
    except PredspecError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_kept_fits_give_the_unstored_bits(data):
    """Any sequence of single-series calls on one series gives the bits (or the
    error) of the same calls on fresh copies, which fit everything anew."""
    n = data.draw(st.integers(6, 90))
    x = np.random.default_rng(data.draw(st.integers(0, 2**32))).standard_normal(n)
    ts = TimeSeries(x * data.draw(st.sampled_from([1e-3, 1.0, 1e3])))
    sources = [None, AutoAIC(), AutoAIC(max_order=2), FixedOrder(1), FixedOrder(3)]
    for _ in range(data.draw(st.integers(1, 6))):
        kind = data.draw(st.sampled_from(["complete", "tapered-complete"]))
        spec = EstimatorSpec(kind, source=data.draw(st.sampled_from(sources)))
        use = data.draw(st.sampled_from(["fourier", "uniform", "explicit", "acf", "whittle"]))
        if use == "fourier":
            call = lambda s: evaluate_estimator(s, spec, FrequencyGrid.fourier(s.n))
        elif use == "uniform":
            grid = FrequencyGrid.uniform(data.draw(st.integers(1, 64)))
            call = lambda s: evaluate_estimator(s, spec, grid)
        elif use == "explicit":
            w = data.draw(st.lists(st.floats(0.0, 6.28), min_size=1, max_size=8, unique=True))
            grid = FrequencyGrid.explicit(sorted(w))
            call = lambda s: evaluate_estimator(s, spec, grid)
        elif use == "acf":
            call = lambda s: acf_estimate(s, 3, spec, _CFG)
        else:
            call = lambda s: whittle_fit(s, ar_family(1), spec, [0.1], _CFG)
        _assert_same_bits(_outcome(call, ts), _outcome(call, TimeSeries(ts.values)))
