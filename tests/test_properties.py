"""Randomized property suites.

Six always-on families, ~1050 seeded cases total.  Each case failure would
surface with its case index via the assert message.
"""
import numpy as np
import pytest
import scipy.linalg

from predspec import (
    ArmaModel,
    AutoAIC,
    EstimatorSpec,
    Explicit,
    FrequencyGrid,
    SpectralMeanConfig,
    TimeSeries,
    acf_estimate,
    aic_select,
    arma_expand,
    complete_periodogram,
    dft,
    levinson_durbin,
    raw_periodogram,
    sample_autocov,
    spectral_window,
    tukey_taper,
)


def _reflection_ar(rng, p, kmax=0.95):
    """Random causal AR(p) built from reflection coefficients |k| < kmax."""
    a = np.array([])
    for _ in range(p):
        k = rng.uniform(-kmax, kmax)
        a = np.append(a - k * a[::-1], k)
    return a


def test_parseval_250_cases():
    rng = np.random.default_rng(2025)
    for case in range(250):
        n = int(rng.integers(2, 65))
        x = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        pg = raw_periodogram(TimeSeries(x), FrequencyGrid.fourier(n))
        assert np.sum(pg.values.real) == pytest.approx(np.sum(x**2), rel=1e-9), case


def test_hermitian_symmetry_250_cases():
    rng = np.random.default_rng(515)
    for case in range(250):
        n = int(rng.integers(6, 33))
        x = rng.standard_normal(n)
        ts = TimeSeries(x)
        w = rng.uniform(1e-3, np.pi)
        g = FrequencyGrid.explicit(sorted([w, 2 * np.pi - w]))
        taper = tukey_taper(n, int(rng.integers(1, n // 2 + 1))) if case % 3 == 0 else None
        J = dft(ts, g, taper)
        assert J[1] == pytest.approx(np.conj(J[0]), rel=1e-10), case
        if case % 5 == 0:
            p = int(rng.integers(1, 4))
            model = ArmaModel(_reflection_ar(rng, p), [], 1.0)
            pg = complete_periodogram(ts, Explicit(model), g)
            assert pg.values[1] == pytest.approx(np.conj(pg.values[0]), rel=1e-8), case


def test_window_normalization_200_cases():
    rng = np.random.default_rng(77)
    kinds = ["daniell", "bartlett", "hann"]
    for case in range(200):
        kind = kinds[int(rng.integers(3))]
        m = int(rng.integers(1, 21))
        w = spectral_window(kind, m).weights
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12), case
        np.testing.assert_allclose(w, w[::-1], atol=1e-15)
        assert np.all(w >= 0), case


def test_thresholded_acf_positive_definite_100_cases():
    rng = np.random.default_rng(404)
    cfg = SpectralMeanConfig(points=300, threshold=1e-3)
    for case in range(100):
        n = int(rng.integers(10, 40))
        x = rng.standard_normal(n) * rng.uniform(0.2, 3.0)
        lags = int(rng.integers(1, min(9, n - 1)))
        autocov, acf = acf_estimate(
            TimeSeries(x), lags, EstimatorSpec("complete", source=AutoAIC()), cfg
        )
        T = scipy.linalg.toeplitz(autocov)
        assert np.linalg.eigvalsh(T).min() > 0, case
        assert acf[0] == 1.0


def test_levinson_vs_dense_150_cases():
    rng = np.random.default_rng(9090)
    for case in range(150):
        p = int(rng.integers(1, 11))
        coeffs = _reflection_ar(rng, p, kmax=0.6)
        model = ArmaModel(coeffs, [], float(rng.uniform(0.5, 2.0)))
        cov = arma_expand(model, M=p + 4).autocov
        fit = levinson_durbin(cov, p)
        R = scipy.linalg.toeplitz(cov.lags[:p])
        direct = np.linalg.solve(R, cov.lags[1 : p + 1])
        np.testing.assert_allclose(fit.ar, direct, rtol=1e-8, atol=1e-9,
                                   err_msg=f"case {case}")


def test_aic_determinism_100_cases():
    rng = np.random.default_rng(660)
    for case in range(100):
        n = int(rng.integers(12, 120))
        x = rng.standard_normal(n)
        a = aic_select(TimeSeries(x))
        b = aic_select(TimeSeries(x.copy()))
        assert a.chosen_p == b.chosen_p, case
        assert a.k_n == b.k_n, case
        np.testing.assert_array_equal(a.aic_values, b.aic_values)
        np.testing.assert_array_equal(a.model.ar, b.model.ar)


def test_sample_autocov_psd_50_cases():
    # companion property: biased autocovariances always give a PSD Toeplitz
    rng = np.random.default_rng(31337)
    for case in range(50):
        n = int(rng.integers(4, 50))
        x = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        c = sample_autocov(TimeSeries(x), n - 1)
        eig = np.linalg.eigvalsh(c.toeplitz(n))
        assert eig.min() >= -1e-9 * c.lags[0], case
