"""Independent reference computations for the benchmark's output checks.

Nothing here calls predspec: every value is rebuilt from numpy and scipy by a
different route than the program takes.

* DFTs come from one inverse FFT after folding the time index modulo the
  grid period, which carries the e^{iw} phase of the t = 1..n convention.
* The predictive DFT sums recursive AR forecasts (and backcasts of the
  time-reversed series) over a horizon long enough for the tail to vanish,
  instead of using the closed form in the first and last p observations.
* AR orders come from `scipy.linalg.solve_toeplitz` Yule-Walker fits on
  FFT autocovariances, scored by the documented AIC.
* Smoothing is a wrap-around convolution; autocovariances use `np.correlate`.
* Model densities and autocorrelations use closed forms of the two
  reference models.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.signal

_MASK64 = (1 << 64) - 1
THRESHOLD = 1e-3  # real-part floor the reference experiments and the CLI use


def splitmix_seed(seed: int, index: int) -> int:
    """SplitMix64 stream seed for replication `index` (the documented scheme)."""
    z = (int(seed) + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def simulate(ar, ma, n: int, seed: int) -> np.ndarray:
    """Gaussian ARMA path with unit innovations and the documented burn-in."""
    ar = np.asarray(ar, dtype=float)
    ma = np.asarray(ma, dtype=float)
    burn = max(1000, 50 * (ar.size + ma.size))
    eps = np.random.default_rng(seed).standard_normal(n + burn)
    return scipy.signal.lfilter(np.r_[1.0, ma], np.r_[1.0, -ar], eps)[burn:]


# --- model closed forms ---------------------------------------------------

def m1_density(lam: float, w: np.ndarray) -> np.ndarray:
    """f(w) = 1 / |1 + lam^2 e^{-2iw}|^2 for x[t] = -lam^2 x[t-2] + e[t]."""
    a = 1.0 + lam * lam * np.exp(-2j * w)
    return 1.0 / np.abs(a) ** 2


def m1_acf(lam: float, lags: int) -> np.ndarray:
    """rho(1..lags): zero at odd lags, (-lam^2)^(k/2) at even lags."""
    k = np.arange(1, lags + 1)
    return np.where(k % 2 == 0, (-lam * lam) ** (k // 2), 0.0)


def m2_density(w: np.ndarray) -> np.ndarray:
    """ARMA(3,2): AR factors (1-0.7z)(1-0.9e^{i}z)(1-0.9e^{-i}z), MA 1+0.5z+0.5z^2."""
    z = np.exp(-1j * w)
    ar = (1 - 0.7 * z) * (1 - 0.9 * np.exp(1j) * z) * (1 - 0.9 * np.exp(-1j) * z)
    ma = 1 + 0.5 * z + 0.5 * z * z
    return np.abs(ma) ** 2 / np.abs(ar) ** 2


# --- transforms -------------------------------------------------------------

def grid_frequencies(M: int, half: float) -> np.ndarray:
    """w_j = 2*pi*(j + half)/M: the Fourier grid (half=0) or midpoint cells (half=0.5)."""
    return 2.0 * np.pi * (np.arange(M) + half) / M


def grid_sum(tau: np.ndarray, v: np.ndarray, M: int, half: float) -> np.ndarray:
    """sum_t v[t] exp(1j*tau[t]*w_j) on the grid, by folding tau mod M and one inverse FFT."""
    y = v * np.exp(1j * np.pi * (2.0 * half / M) * tau) if half else v.astype(complex)
    r = np.mod(tau, M)
    folded = np.bincount(r, y.real, M) + 1j * np.bincount(r, y.imag, M)
    return M * np.fft.ifft(folded)


def dft(x: np.ndarray, M: int, half: float, weights: np.ndarray | None = None) -> np.ndarray:
    n = x.size
    v = x if weights is None else x * weights
    return grid_sum(np.arange(1, n + 1), v, M, half) / math.sqrt(n)


def _horizon(a: np.ndarray) -> int:
    """Steps until the slowest AR mode has decayed below 1e-20 of its start."""
    r = float(np.max(np.abs(np.roots(np.r_[1.0, -a]))))
    if r < 1e-3:
        return 64 + a.size
    return int(min(10**6, math.ceil(math.log(1e-20) / math.log(r)) + a.size + 64))


def _continue(x_recent_first: np.ndarray, a: np.ndarray, steps: int) -> np.ndarray:
    """Run the AR recursion forward from the given past with zero innovations."""
    den = np.r_[1.0, -a]
    zi = scipy.signal.lfiltic([1.0], den, x_recent_first[: a.size])
    return scipy.signal.lfilter([1.0], den, np.zeros(steps), zi=zi)[0]


def predictive_dft(x: np.ndarray, a: np.ndarray, M: int, half: float) -> np.ndarray:
    """Transform of the forecasts x[n+1..] and backcasts x[0, -1, ..] under AR(a)."""
    n = x.size
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.zeros(M, dtype=complex)
    h = _horizon(a)
    fwd = _continue(x[::-1], a, h)  # x[n+1], x[n+2], ...
    back = _continue(x, a, h)  # x[0], x[-1], ...
    steps = np.arange(h)
    total = grid_sum(n + 1 + steps, fwd, M, half) + grid_sum(-steps, back, M, half)
    return total / math.sqrt(n)


# --- estimation -------------------------------------------------------------

def _autocov_fft(x: np.ndarray, max_lag: int) -> np.ndarray:
    n = x.size
    spec = np.fft.rfft(x, 2 * n)
    return np.fft.irfft(spec.real**2 + spec.imag**2, 2 * n)[: max_lag + 1] / n


def aic_fit(x: np.ndarray) -> tuple[int, np.ndarray]:
    """(order, coefficients) minimizing log(resid var) + 2p/n over p = 1..k_n.

    k_n = floor(n^0.4) clamped to [1, n-2]; residuals of every candidate use
    the common window t = k_n+1..n; ties go to the smaller order.
    """
    n = x.size
    k = min(max(int(n**0.4), 1), n - 2)
    c = _autocov_fft(x, k)
    target = x[k:]
    lagmat = np.column_stack([x[k - j : n - j] for j in range(1, k + 1)])
    best = None
    for p in range(1, k + 1):
        a = scipy.linalg.solve_toeplitz(c[:p], c[1 : p + 1])
        resid = target - lagmat[:, :p] @ a
        aic = math.log(float(resid @ resid) / target.size) + 2.0 * p / n
        if best is None or aic < best[0]:
            best = (aic, p, a)
    return best[1], best[2]


def tukey_shape(n: int) -> np.ndarray:
    """Cosine-bell shape rising over d = ceil(n/10) points at each end."""
    d = max(1, math.ceil(n / 10))
    t = np.arange(1, d + 1)
    rise = 0.5 * (1.0 - np.cos(np.pi * (t - 0.5) / d))
    shape = np.ones(n)
    shape[:d] = rise
    shape[n - d :] = rise[::-1]
    return shape


def estimate(kind: str, x: np.ndarray, M: int, half: float, true_ar=None):
    """(complex values of `kind` on the grid w_j before any threshold, AIC order or None)."""
    n = x.size
    if kind == "regular":
        j = dft(x, M, half)
        return (j.real**2 + j.imag**2).astype(complex), None
    if kind == "tapered":
        shape = tukey_shape(n)
        j = dft(x, M, half, shape) * math.sqrt(n)
        return ((j.real**2 + j.imag**2) / float(shape @ shape)).astype(complex), None
    if kind == "complete-true":
        order, a = None, np.asarray(true_ar, dtype=float)
    else:
        order, a = aic_fit(x)
    j = dft(x, M, half)
    completed = j + predictive_dft(x, a, M, half)
    if kind == "tapered-complete":
        shape = tukey_shape(n)
        conj_factor = dft(x, M, half, shape * (n / shape.sum()))
    else:
        conj_factor = j
    return completed * np.conj(conj_factor), order


def thresholded(values: np.ndarray) -> np.ndarray:
    return np.maximum(values.real, THRESHOLD)


def smooth_wrap(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """out[k] = sum_j W(j) vals[(k + j) mod n] by wrap-around convolution."""
    m = (weights.size - 1) // 2
    padded = np.concatenate((vals[-m:], vals, vals[:m]))
    return np.convolve(padded, weights[::-1], mode="valid")


def window_weights(kind: str, m: int) -> np.ndarray:
    j = np.arange(-m, m + 1, dtype=float)
    raw = 1.0 - np.abs(j) / m if kind == "bartlett" else 0.5 * (1.0 - np.cos(np.pi * (j + m) / m))
    return raw / raw.sum()


def riemann_autocov(vals: np.ndarray, lags: int) -> np.ndarray:
    """c(r) = mean_j cos(r w_j) vals_j over the midpoint grid of vals.size cells."""
    w = grid_frequencies(vals.size, 0.5)
    return np.cos(np.outer(np.arange(lags + 1), w)) @ vals / vals.size


def biased_autocov(x: np.ndarray, lags: int) -> np.ndarray:
    n = x.size
    return np.correlate(x, x, mode="full")[n - 1 : n + lags] / n


def yule_walker2(c: np.ndarray) -> np.ndarray:
    """AR(2) coefficients solving [c0 c1; c1 c0] theta = [c1; c2]."""
    return scipy.linalg.solve_toeplitz(c[:2], c[1:3])


# --- summaries --------------------------------------------------------------

def density_summary(values: np.ndarray, target: np.ndarray) -> dict:
    """Relative IMSE, integrated squared bias and the IMSE standard error."""
    rel = values / target[None, :]
    per_rep = np.mean((rel - 1.0) ** 2, axis=1)
    return {
        "imse": float(per_rep.mean()),
        "ibias": float(np.mean((rel.mean(axis=0) - 1.0) ** 2)),
        "imse_se": float(per_rep.std(ddof=1) / math.sqrt(values.shape[0])),
    }


def acf_summary(values: np.ndarray, target: np.ndarray) -> dict:
    err = values - target[None, :]
    per_rep = np.mean(err**2, axis=1)
    return {
        "imse": float(per_rep.mean()),
        "ibias": float(np.mean((values.mean(axis=0) - target) ** 2)),
        "imse_se": float(per_rep.std(ddof=1) / math.sqrt(values.shape[0])),
        "per_lag_mse": np.mean(err**2, axis=0),
    }


def close(got, want, rtol: float) -> bool:
    """Max-norm agreement relative to the reference's own scale."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return False
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return bool(np.max(np.abs(got - want)) <= rtol * scale)
