import numpy as np
import pytest
import scipy.linalg

from predspec import (
    ArmaModel,
    ArModel,
    CovarianceSequence,
    DomainError,
    FrequencyGrid,
    NumericalError,
    TimeSeries,
    aic_select,
    ar_spectral,
    arma_expand,
    builtin_models,
    levinson_durbin,
    simulate_arma,
    yule_walker_fit,
)


def test_armodel_rejects_noncausal():
    ArModel([0.5], 1.0)
    with pytest.raises(DomainError):
        ArModel([1.0], 1.0)  # unit root
    with pytest.raises(DomainError):
        ArModel([0.0, 1.1], 1.0)
    with pytest.raises(DomainError):
        ArModel([0.5], 0.0)


def test_armodel_density_convention():
    # AR(0): density identically sigma2, no 2*pi anywhere
    m = ArModel([], 2.5)
    g = FrequencyGrid.fourier(8)
    np.testing.assert_allclose(m.density(g.frequencies), 2.5)


def test_levinson_one_step():
    m = levinson_durbin(CovarianceSequence([1.0, 0.5]), 1)
    np.testing.assert_allclose(m.coeffs, [0.5])
    assert m.sigma2 == pytest.approx(0.75)


def test_levinson_m1_population():
    # population autocovariances of the squared-lag AR(2): c(0)=1/(1-l^4),
    # c(1)=0, c(2)=-l^2 c(0)
    lam = 0.9
    c0 = 1.0 / (1 - lam**4)
    m = levinson_durbin(CovarianceSequence([c0, 0.0, -(lam**2) * c0]), 2)
    np.testing.assert_allclose(m.coeffs, [0.0, -(lam**2)], atol=1e-12)
    assert m.sigma2 == pytest.approx(1.0, rel=1e-12)


def test_levinson_white_noise():
    m = levinson_durbin(CovarianceSequence([1.0, 0.0, 0.0]), 2)
    np.testing.assert_allclose(m.coeffs, [0.0, 0.0])
    assert m.sigma2 == pytest.approx(1.0)


def test_levinson_matches_dense_solve():
    rng = np.random.default_rng(31)
    for _ in range(25):
        p = int(rng.integers(1, 9))
        coeffs = rng.uniform(-0.9, 0.9, size=p) * 0.9 ** np.arange(1, p + 1)
        try:
            model = ArmaModel(coeffs, [], 1.0)
        except DomainError:
            continue
        cov = arma_expand(model, M=p + 5).autocov
        fit = levinson_durbin(cov, p)
        R = scipy.linalg.toeplitz(cov.lags[:p])
        direct = np.linalg.solve(R, cov.lags[1 : p + 1])
        np.testing.assert_allclose(fit.coeffs, direct, rtol=1e-8, atol=1e-10)


def test_levinson_monotone_prediction_error():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(200)
    ts = TimeSeries(x)
    prev = None
    for p in range(0, 8):
        m = yule_walker_fit(ts, p)
        if prev is not None:
            assert m.sigma2 <= prev + 1e-12
        prev = m.sigma2


def test_levinson_rejects_non_pd():
    with pytest.raises(NumericalError):
        levinson_durbin(CovarianceSequence([1.0, 1.0]), 1)


def test_yule_walker_order_zero():
    ts = TimeSeries([1.0, -2.0, 0.5, 1.5])
    m = yule_walker_fit(ts, 0)
    assert m.p == 0
    assert m.sigma2 == pytest.approx(np.mean(ts.values**2))


def test_yule_walker_consistency():
    ts = simulate_arma(builtin_models("m1", 0.9), 10000, 2024)
    m = yule_walker_fit(ts, 2)
    assert abs(m.coeffs[0] - 0.0) < 0.02
    assert abs(m.coeffs[1] + 0.81) < 0.02


def test_yule_walker_constant_series():
    with pytest.raises(NumericalError):
        yule_walker_fit(TimeSeries([0.0, 0.0, 0.0, 0.0]), 1)


def test_aic_default_candidate_cap():
    ts = TimeSeries(np.sin(np.arange(20)))
    sel = aic_select(ts)
    assert sel.k_n == 3  # floor(20**0.4)
    assert sel.aic_values.shape == (3,)
    assert 1 <= sel.chosen_p <= 3


def test_aic_rejects_zero_residual_variance():
    # a lone spike leaves every candidate order with zero residuals on the
    # common window: log(0) must surface as an error, not as an AIC of -inf
    x = np.zeros(20)
    x[0] = 1.0
    with pytest.raises(NumericalError):
        aic_select(TimeSeries(x))


def test_aic_determinism():
    ts = simulate_arma(builtin_models("m1", 0.9), 100, 42)
    a = aic_select(ts)
    b = aic_select(ts)
    assert a.chosen_p == b.chosen_p == 2
    np.testing.assert_array_equal(a.aic_values, b.aic_values)


def test_aic_recovers_order_mostly():
    """Order-2 truth wins AIC far more often than any other candidate.

    AIC overfits with positive probability by design (roughly
    sum_k P(chi2_k > 2k) ~ 0.3 across 20 candidates at this n), so the
    hit rate plateaus near 70%, never 90%+.
    """
    model = builtin_models("m1", 0.9)
    counts = np.zeros(21, dtype=int)
    for b in range(100):
        sel = aic_select(simulate_arma(model, 2000, 1000 + b))
        counts[sel.chosen_p] += 1
    assert counts[2] >= 60
    assert counts[2] == counts.max()
    assert counts[:2].sum() == 0  # underfitting essentially impossible here


def test_aic_bounds():
    with pytest.raises(DomainError):
        aic_select(TimeSeries([1.0, 2.0, 1.0]))
    ts = TimeSeries(np.arange(10.0))
    with pytest.raises(DomainError):
        aic_select(ts, max_order=9)


def test_ar_spectral_known_values():
    m = ArModel([0.0, -0.81], 1.0)
    g = FrequencyGrid.explicit([0.0, np.pi / 2])
    _, dens = ar_spectral(m, g)
    assert dens[0] == pytest.approx((1 + 0.81) ** -2)
    assert dens[1] == pytest.approx((1 - 0.81) ** -2)  # ~27.7008


def test_arma_expand_pure_ar_passthrough():
    model = ArmaModel([0.5], [], 1.0)
    e = arma_expand(model, M=10)
    np.testing.assert_allclose(e.ar_inf, [0.5] + [0.0] * 9, atol=1e-15)
    # textbook AR(1) autocovariance 0.5^r / (1 - 0.25)
    np.testing.assert_allclose(e.autocov.lags, 0.5 ** np.arange(11) / 0.75, rtol=1e-12)


def test_arma_expand_arma11_recursion():
    e = arma_expand(ArmaModel([0.5], [0.4], 1.0), M=6)
    a = e.ar_inf
    assert a[0] == pytest.approx(0.9)
    assert a[1] == pytest.approx(-0.36)
    for j in range(2, 6):
        assert a[j] == pytest.approx(-0.4 * a[j - 1], rel=1e-12)


def test_arma_expand_ma1_autocov():
    e = arma_expand(ArmaModel([], [0.4], 1.0), M=4)
    np.testing.assert_allclose(e.autocov.lags, [1.16, 0.4, 0.0, 0.0, 0.0], atol=1e-14)


def test_arma_expand_requires_invertible_ma():
    with pytest.raises(DomainError):
        arma_expand(ArmaModel([], [1.0], 1.0), M=5)


def test_arma_expand_roundtrip_levinson():
    # population autocovariances fed back through the recursion recover
    # the generating coefficients
    for coeffs in ([0.6], [0.5, -0.3], [0.2, 0.1, -0.25]):
        model = ArmaModel(coeffs, [], 1.3)
        cov = arma_expand(model, M=len(coeffs) + 4).autocov
        fit = levinson_durbin(cov, len(coeffs))
        np.testing.assert_allclose(fit.coeffs, coeffs, rtol=1e-8, atol=1e-10)
        assert fit.sigma2 == pytest.approx(1.3, rel=1e-8)


def test_arma_expand_density_integrates_to_autocov():
    model = builtin_models("m2")
    e = arma_expand(model, M=50)
    w = (np.arange(4096) + 0.5) * 2 * np.pi / 4096
    f = e.density(w)
    for r in range(6):
        quad = np.mean(f * np.cos(r * w))
        assert quad == pytest.approx(e.autocov.lags[r], rel=1e-6)


def test_builtin_models_frozen_coefficients():
    m1 = builtin_models("m1", 0.7)
    np.testing.assert_allclose(m1.ar, [0.0, -0.49])
    assert m1.ma.size == 0
    m2 = builtin_models("m2")
    np.testing.assert_allclose(
        m2.ar, [1.6725441505626517, -1.4907809053938563, 0.5670000000000001]
    )
    np.testing.assert_allclose(m2.ma, [0.5, 0.5])
    with pytest.raises(DomainError):
        builtin_models("m1", 1.0)
    with pytest.raises(DomainError):
        builtin_models("m2", 0.5)


def test_pure_ar_conversion():
    m = builtin_models("m1", 0.9)
    ar = m.pure_ar()
    np.testing.assert_allclose(ar.coeffs, [0.0, -0.81])
    with pytest.raises(DomainError):
        builtin_models("m2").pure_ar()
