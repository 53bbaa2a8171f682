"""Exact-expectation and brute-force reference computations.

Everything here is an independent check on the production estimators:
predictor weights come from dense positive-definite solves (not the fast
recursions), extension transforms from literally summing predicted values
over a long horizon, and expectations from Gaussian moment algebra on
covariance matrices.  Test suites compare the production closed forms
against these.
"""
from __future__ import annotations

import numpy as np

from .core import CovarianceSequence, FrequencyGrid, TimeSeries, _array, _integer
from .exceptions import DomainError, NumericalError

__all__ = [
    "finite_predictor_coeffs",
    "predictive_dft_bruteforce",
    "expected_quadratic",
    "fejer_expected_periodogram",
]


def _toeplitz_cholesky(cov: CovarianceSequence, n: int):
    """The covariance matrix R_n and its lower Cholesky factor L (R_n = L L').

    Raises NumericalError unless R_n is positive definite.
    """
    r = cov.toeplitz(n)
    try:
        return r, np.linalg.cholesky(r)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance matrix is not positive definite") from exc


def _cholesky_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """R^-1 rhs from R's lower Cholesky factor: two triangular systems."""
    return np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))


def finite_predictor_coeffs(cov: CovarianceSequence, n: int, tau: int) -> np.ndarray:
    """Best-linear-predictor weights for x[tau] given x[1..n], tau outside 1..n.

    Returns the length-n array w with xhat[tau] = sum_t w[t-1] * x[t].
    Solves the dense normal equations R_n w = (c(tau-1), ..., c(tau-n))' by
    a positive-definite factorization; no recursive shortcut is shared with
    the estimation code this serves as a reference for.
    """
    n, tau = _integer(n, "window length", 1), _integer(tau, "prediction target tau")
    if 1 <= tau <= n:
        raise DomainError("prediction target must lie outside the observed window 1..n")
    c = cov.upto(max(abs(tau - 1), abs(tau - n)))
    _, factor = _toeplitz_cholesky(cov, n)
    rhs = c[np.abs(tau - np.arange(1, n + 1))]
    return _cholesky_solve(factor, rhs)


_TAIL_TOL = 1e-8


def predictive_dft_bruteforce(
    ts: TimeSeries,
    cov: CovarianceSequence,
    grid: FrequencyGrid,
    horizon: int = 200,
) -> np.ndarray:
    """Extension transform by direct summation of predicted values.

    Backcasts x[tau] for tau = 0, -1, ..., 1-H and forecasts for
    tau = n+1, ..., n+H, sums n**-0.5 * xhat[tau] * exp(1j*tau*w), and
    verifies stability by recomputing at horizon 2H; a sup-norm change above
    1e-8 raises, since it means the horizon truncation is visible.
    Needs covariance lags up to n + 2*horizon - 1.
    """
    _integer(horizon, "horizon", 1)
    n = ts.n
    c = cov.upto(n + 2 * horizon - 1)
    _, factor = _toeplitz_cholesky(cov, n)
    x = ts.values
    w = grid.frequencies

    def one_sided(taus: np.ndarray) -> np.ndarray:
        # lag matrix: |tau - t| for t = 1..n, one column per tau
        lag_idx = np.abs(taus[None, :] - np.arange(1, n + 1)[:, None])
        weights = _cholesky_solve(factor, c[lag_idx])
        xhat = x @ weights
        return (xhat @ np.exp(1j * np.outer(taus, w))) / np.sqrt(n)

    def transform(h: int) -> np.ndarray:
        back = one_sided(np.arange(1 - h, 1)[::-1])
        fwd = one_sided(np.arange(n + 1, n + h + 1))
        return back + fwd

    doubled = transform(2 * horizon)
    if np.max(np.abs(doubled - transform(horizon))) > _TAIL_TOL:
        raise NumericalError(
            "extension tail did not stabilize when the horizon doubled; "
            "increase the horizon or check the model's mixing"
        )
    return doubled


def expected_quadratic(v: np.ndarray, w: np.ndarray, cov: CovarianceSequence):
    """Exact Gaussian mean and variance of (v'x) * conj(w'x).

    x is the mean-zero process with the given autocovariances observed at
    t = 1..n (n inferred from the vector length).  The mean is the trace
    identity conj(w)' R_n v; the variance expands the fourth moment by
    Gaussian pairings, so the fourth-cumulant term is absent:

        var = (conj(v)'Rv) * (conj(w)'Rw) + |v'Rw|**2.

    Returns (mean, variance) with mean complex and variance real.
    """
    v = _array(v, "linear form v", complex)
    w = _array(w, "linear form w", complex)
    if v.size != w.size:
        raise DomainError("linear-form vectors must be of equal length")
    r, _ = _toeplitz_cholesky(cov, v.size)  # positive-definiteness gate
    rv = r @ v
    rw = r @ w
    mean = complex(np.conj(w) @ rv)
    var = float((np.conj(v) @ rv).real * (np.conj(w) @ rw).real + abs(v @ rw) ** 2)
    return mean, var


def fejer_expected_periodogram(
    density, n: int, omega: float, quadrature_points: int = 4096
) -> float:
    """E[|DFT|**2] at omega via kernel smoothing of the true density.

    The expectation of the regular periodogram is the circular convolution of
    f with the order-n Fejer kernel F_n(u) = sin(n*u/2)**2 / (n*sin(u/2)**2),
    F_n(0) = n.  Midpoint quadrature on a 2*pi-periodic analytic integrand
    converges spectrally, so a few thousand points give ~machine accuracy.
    """
    n = _integer(n, "series length", 1)
    (omega,) = _array([omega], "frequency omega")
    _integer(quadrature_points, "quadrature point count", 256)
    lam = 2.0 * np.pi * (np.arange(quadrature_points) + 0.5) / quadrature_points
    u = omega - lam
    s = np.sin(u / 2.0)
    tiny = np.abs(s) < 1e-12
    s_safe = np.where(tiny, 1.0, s)
    kernel = np.where(tiny, float(n), (np.sin(n * u / 2.0) / s_safe) ** 2 / n)
    f = np.asarray(density(lam), dtype=float)
    if np.any(~np.isfinite(f)):
        raise NumericalError("density evaluated non-finite on the quadrature grid")
    return float(np.mean(kernel * f))
