import numpy as np
import pytest
import scipy.linalg

from predspec import (
    ArmaModel,
    ArModel,
    CovarianceSequence,
    DomainError,
    Explicit,
    FrequencyGrid,
    NumericalError,
    TimeSeries,
    arma_expand,
    builtin_models,
    expected_quadratic,
    fejer_expected_periodogram,
    finite_predictor_coeffs,
    predictive_dft,
    predictive_dft_bruteforce,
    simulate_arma,
)


def _dft_vector(n, w):
    return np.exp(1j * np.arange(1, n + 1) * w) / np.sqrt(n)


def test_finite_predictor_ar1_backcast():
    # stationary AR(1) is time-reversible: the one-step backcast of X_0
    # given X_1..X_n is a*X_1
    cov = arma_expand(ArmaModel([0.5], [], 1.0), M=20).autocov
    weights = finite_predictor_coeffs(cov, 6, 0)
    np.testing.assert_allclose(weights, [0.5, 0, 0, 0, 0, 0], atol=1e-12)


def test_finite_predictor_white_noise():
    cov = CovarianceSequence(np.r_[1.0, np.zeros(10)])
    np.testing.assert_allclose(finite_predictor_coeffs(cov, 5, 8), 0.0, atol=1e-14)


def test_finite_predictor_rejects_interior_target():
    cov = CovarianceSequence(np.r_[1.0, np.zeros(10)])
    with pytest.raises(DomainError):
        finite_predictor_coeffs(cov, 5, 3)


def test_finite_predictor_normal_equations_residual():
    rng = np.random.default_rng(19)
    coeffs = [0.4, -0.2, 0.1]
    cov = arma_expand(ArmaModel(coeffs, [], 1.0), M=40).autocov
    n = 8
    R = cov.toeplitz(n)
    for tau in (-3, 0, 9, 12):
        weights = finite_predictor_coeffs(cov, n, tau)
        rhs = np.array([cov.lags[abs(tau - t)] for t in range(1, n + 1)])
        resid = np.linalg.norm(R @ weights - rhs)
        assert resid < 1e-10 * max(1.0, np.linalg.norm(rhs))


def test_predictor_covariance_preservation():
    """cov(X_t, predicted X_tau) = c(t - tau) for every observed t and every
    out-of-sample tau: the defining property of best linear prediction."""
    model = builtin_models("m1", 0.9)
    cov = arma_expand(model, M=80).autocov
    n = 10
    R = cov.toeplitz(n)
    for tau in (-4, -1, 0, n + 1, n + 3, n + 7):
        w = finite_predictor_coeffs(cov, n, tau)
        lhs = R @ w  # entry t-1 holds cov(X_t, X-hat_tau)
        want = np.array([cov.lags[abs(t - tau)] for t in range(1, n + 1)])
        np.testing.assert_allclose(lhs, want, rtol=1e-9, atol=1e-12)


def test_expected_quadratic_white_noise_periodogram():
    n = 10
    cov = CovarianceSequence(np.r_[1.0, np.zeros(n)])
    v = _dft_vector(n, 0.7)
    mean, var = expected_quadratic(v, v, cov)
    assert mean == pytest.approx(1.0)
    # |v'X|^2 for standard Gaussian X: variance = 1 + |v'v|^2
    assert var == pytest.approx(1.0 + abs(v @ v) ** 2)


def test_expected_quadratic_matches_direct_trace():
    rng = np.random.default_rng(23)
    cov = arma_expand(ArmaModel([0.6, -0.2], [], 1.0), M=30).autocov
    n = 7
    R = cov.toeplitz(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    mean, var = expected_quadratic(v, w, cov)
    assert mean == pytest.approx(np.conj(w) @ R @ v, rel=1e-12)
    want_var = (np.conj(v) @ R @ v).real * (np.conj(w) @ R @ w).real + abs(v @ R @ w) ** 2
    assert var == pytest.approx(want_var, rel=1e-12)


def test_expected_quadratic_monte_carlo_cross_check():
    cov = arma_expand(ArmaModel([0.5], [], 1.0), M=30).autocov
    n = 6
    R = cov.toeplitz(n)
    L = np.linalg.cholesky(R)
    rng = np.random.default_rng(101)
    v = _dft_vector(n, 1.1)
    w = _dft_vector(n, 1.1)
    mean, var = expected_quadratic(v, w, cov)
    B = 100_000
    X = rng.standard_normal((B, n)) @ L.T
    stats = (X @ v) * np.conj(X @ w)
    mc_mean = stats.mean()
    mc_se = stats.real.std(ddof=1) / np.sqrt(B)
    assert abs(mc_mean.real - mean.real) < 4 * mc_se


def test_expected_quadratic_rejects_non_pd():
    with pytest.raises(NumericalError):
        expected_quadratic(
            np.ones(2, dtype=complex),
            np.ones(2, dtype=complex),
            CovarianceSequence([1.0, 1.0]),
        )


def test_bruteforce_ar1_hand_value():
    cov = arma_expand(ArmaModel([0.5], [], 1.0), M=200).autocov
    ts = TimeSeries([1.0, 1.0])
    g = FrequencyGrid.explicit([0.0])
    val = predictive_dft_bruteforce(ts, cov, g, horizon=60)[0]
    assert val == pytest.approx(np.sqrt(2.0), rel=1e-10)


def test_bruteforce_white_noise_is_zero():
    cov = CovarianceSequence(np.r_[2.0, np.zeros(500)])
    ts = TimeSeries([0.3, -1.2, 0.5])
    g = FrequencyGrid.fourier(3)
    np.testing.assert_allclose(
        predictive_dft_bruteforce(ts, cov, g, horizon=100), 0.0, atol=1e-14
    )


def test_bruteforce_matches_closed_form():
    model = builtin_models("m1", 0.7)
    n = 12
    cov = arma_expand(model, M=n + 2 * 200).autocov
    ts = simulate_arma(model, n, 55)
    g = FrequencyGrid.explicit(np.linspace(0.0, 2 * np.pi, 16, endpoint=False))
    brute = predictive_dft_bruteforce(ts, cov, g, horizon=200)
    closed = predictive_dft(ts, Explicit(model.pure_ar()), g)
    assert np.max(np.abs(brute - closed)) < 1e-8


def test_bruteforce_requires_enough_lags():
    cov = CovarianceSequence(np.r_[1.0, np.zeros(20)])
    ts = TimeSeries(np.ones(10))
    g = FrequencyGrid.fourier(10)
    with pytest.raises(DomainError):
        predictive_dft_bruteforce(ts, cov, g, horizon=200)


def test_fejer_constant_density():
    for n in (4, 16, 64):
        val = fejer_expected_periodogram(lambda w: np.full_like(w, 2.5), n, 1.0)
        assert val == pytest.approx(2.5, rel=1e-12)


def test_fejer_agrees_with_trace_route():
    model = builtin_models("m1", 0.9)
    cov = arma_expand(model, M=60).autocov
    n = 20
    w = np.pi / 2
    v = _dft_vector(n, w)
    mean, _ = expected_quadratic(v, v, cov)
    fejer = fejer_expected_periodogram(model.density, n, w)
    assert fejer == pytest.approx(mean.real, rel=1e-6)


def test_fejer_leakage_shrinks_with_n():
    model = builtin_models("m1", 0.9)
    f = float(model.density(np.array([np.pi / 2]))[0])
    errs = [
        abs(fejer_expected_periodogram(model.density, n, np.pi / 2) - f)
        for n in (20, 80, 320)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_fejer_quadrature_floor():
    with pytest.raises(DomainError):
        fejer_expected_periodogram(lambda w: np.ones_like(w), 8, 0.5, quadrature_points=64)
