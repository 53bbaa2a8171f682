"""Time-domain and frequency-domain primitives.

Conventions used throughout the package:

* the discrete Fourier transform of a length-n series is
  ``J(w) = n**-0.5 * sum_{t=1..n} x[t] * exp(1j*t*w)``,
* spectral densities satisfy ``f(w) = sum_r c(r) * exp(1j*r*w)`` where c is
  the autocovariance sequence (no ``2*pi`` factor anywhere),
* frequencies live in ``[0, 2*pi)``, with ``2*pi`` identified with 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg

from .exceptions import DomainError, NumericalError

TWO_PI = 2.0 * np.pi

__all__ = [
    "TWO_PI",
    "TimeSeries",
    "FrequencyGrid",
    "CovarianceSequence",
    "Taper",
    "PgMeta",
    "PeriodogramEstimate",
    "sample_autocov",
    "dft",
    "tukey_taper",
    "flat_taper",
    "raw_periodogram",
]


def _frozen_array(obj, attr: str, values, dtype) -> np.ndarray:
    """Attach a read-only ndarray copy to a frozen dataclass."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    object.__setattr__(obj, attr, arr)
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """An observed real-valued series x[1..n] (stored 0-based).

    ``centered`` records that the sample mean has already been removed;
    operations that assume a mean-zero series do not re-center.
    """

    values: np.ndarray
    centered: bool = False

    def __post_init__(self):
        v = _frozen_array(self, "values", self.values, float)
        if v.ndim != 1 or v.size < 1:
            raise DomainError("time series must be a non-empty 1-d array")
        if not np.all(np.isfinite(v)):
            raise DomainError("time series contains non-finite values")
        if self.centered:
            tol = 1e-12 * max(1.0, float(np.max(np.abs(v))))
            if abs(float(v.mean())) > tol:
                raise DomainError("series marked centered but sample mean is not ~0")

    @property
    def n(self) -> int:
        return self.values.size

    def center(self) -> "TimeSeries":
        """Return a copy with the sample mean removed."""
        return TimeSeries(self.values - self.values.mean(), centered=True)


def _lattice(M: int, kind: str) -> np.ndarray:
    """2*pi*k/M ("fourier") or 2*pi*(k + 0.5)/M ("uniform") for k = 0..M-1."""
    if M < 1:
        raise DomainError(f"{kind} grid needs at least one frequency")
    return TWO_PI * (np.arange(M) + (0.5 if kind == "uniform" else 0.0)) / M


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing frequencies in [0, 2*pi).

    kind is one of "fourier", "uniform" (midpoint rule cells) or "explicit".
    A "fourier" or "uniform" grid must hold exactly the frequencies its
    classmethod builds, because ``dft`` evaluates those kinds by FFT.
    """

    frequencies: np.ndarray
    kind: str = "explicit"

    def __post_init__(self):
        w = _frozen_array(self, "frequencies", self.frequencies, float)
        if w.ndim != 1 or w.size < 1:
            raise DomainError("frequency grid must be a non-empty 1-d array")
        if not np.all(np.isfinite(w)):
            raise DomainError("frequency grid contains non-finite values")
        if np.any(w < 0.0) or np.any(w >= TWO_PI):
            raise DomainError("frequencies must lie in [0, 2*pi)")
        if w.size > 1 and np.any(np.diff(w) <= 0.0):
            raise DomainError("frequencies must be strictly increasing")
        if self.kind not in ("fourier", "uniform", "explicit"):
            raise DomainError(f"unknown grid kind {self.kind!r}")
        if self.kind != "explicit" and not np.array_equal(w, _lattice(w.size, self.kind)):
            raise DomainError(f"{self.kind} grid frequencies must be exactly its lattice")

    @property
    def size(self) -> int:
        return self.frequencies.size

    @classmethod
    def fourier(cls, n: int) -> "FrequencyGrid":
        """The grid 2*pi*k/n for k = 1..n, with k = n stored as frequency 0."""
        return cls(_lattice(n, "fourier"), kind="fourier")

    @classmethod
    def uniform(cls, count: int) -> "FrequencyGrid":
        """Midpoints of `count` equal cells partitioning [0, 2*pi]."""
        return cls(_lattice(count, "uniform"), kind="uniform")

    @classmethod
    def explicit(cls, frequencies) -> "FrequencyGrid":
        return cls(frequencies, kind="explicit")


@dataclass(frozen=True)
class CovarianceSequence:
    """Autocovariances c(0..L) with provenance.

    estimator: "population" for model-derived values, "biased-sample" for the
    divisor-n sample estimator (whose lag values are dominated by c(0)).
    """

    lags: np.ndarray
    estimator: str = "biased-sample"

    def __post_init__(self):
        c = _frozen_array(self, "lags", self.lags, float)
        if c.ndim != 1 or c.size < 1:
            raise DomainError("covariance sequence must be a non-empty 1-d array")
        if not np.all(np.isfinite(c)):
            raise DomainError("covariance sequence contains non-finite values")
        if self.estimator not in ("population", "biased-sample"):
            raise DomainError(f"unknown covariance estimator {self.estimator!r}")
        c0 = c[0]
        if c0 < 0.0:
            raise DomainError("variance c(0) must be nonnegative")
        if c0 == 0.0 and np.any(c != 0.0):
            raise DomainError("c(0) = 0 requires all lags to vanish")
        if self.estimator == "biased-sample" and c0 > 0.0:
            if np.any(np.abs(c[1:]) > c0 * (1.0 + 1e-12)):
                raise DomainError("biased-sample autocovariance must satisfy |c(k)| <= c(0)")

    @property
    def max_lag(self) -> int:
        return self.lags.size - 1

    def toeplitz(self, n: int) -> np.ndarray:
        """The n-by-n covariance matrix [c(i - j)] (needs max_lag >= n - 1)."""
        if n < 1:
            raise DomainError("matrix dimension must be >= 1")
        if self.max_lag < n - 1:
            raise DomainError(
                f"covariance sequence holds lags 0..{self.max_lag}, need 0..{n - 1}"
            )
        return scipy.linalg.toeplitz(self.lags[:n])


@dataclass(frozen=True)
class Taper:
    """Data-taper weights rescaled so they sum to n.

    ``h1`` and ``h2`` are the first and second moments sum h(t/n)**q of the
    un-rescaled shape.
    """

    weights: np.ndarray
    h1: float
    h2: float
    description: str = ""

    def __post_init__(self):
        h = _frozen_array(self, "weights", self.weights, float)
        if h.ndim != 1 or h.size < 1:
            raise DomainError("taper weights must be a non-empty 1-d array")
        if not np.all(np.isfinite(h)) or np.any(h < 0.0):
            raise DomainError("taper weights must be finite and nonnegative")
        n = h.size
        if abs(float(h.sum()) - n) > 1e-9 * n:
            raise DomainError("taper weights must sum to n")
        if not (self.h1 > 0.0 and self.h2 > 0.0):
            raise DomainError("taper moments must be positive")

    @property
    def n(self) -> int:
        return self.weights.size


def flat_taper(n: int) -> Taper:
    """The all-ones taper (tapered quantities degenerate to untapered ones)."""
    if n < 1:
        raise DomainError("taper length must be >= 1")
    return Taper(np.ones(n), h1=float(n), h2=float(n), description="flat")


def tukey_taper(n: int, d: int) -> Taper:
    """Cosine-bell taper rising over d points at each end, flat in between.

    Shape on the rise, t = 1..d: 0.5 * (1 - cos(pi * (t - 0.5) / d)); the top
    d points mirror it; everything between is 1.  Weights are rescaled by
    n / h1 so they sum to n; h1, h2 are moments of the raw shape.
    """
    if n < 1:
        raise DomainError("taper length must be >= 1")
    if d < 1 or 2 * d > n:
        raise DomainError("rise length d must satisfy 1 <= d <= n/2")
    t = np.arange(1, n + 1, dtype=float)
    shape = np.ones(n)
    rise = 0.5 * (1.0 - np.cos(np.pi * (t[:d] - 0.5) / d))
    shape[:d] = rise
    shape[n - d:] = rise[::-1]
    h1 = float(shape.sum())
    h2 = float((shape**2).sum())
    return Taper(shape * (n / h1), h1=h1, h2=h2, description=f"tukey(d={d})")


@dataclass(frozen=True)
class PgMeta:
    """Provenance carried by a periodogram estimate."""

    order: int | None = None
    taper: str | None = None
    threshold: float | None = None
    window: str | None = None


_PG_KINDS = (
    "regular",
    "tapered",
    "complete",
    "tapered-complete",
    "complete-true-ar",
    "thresholded-real",
)


@dataclass(frozen=True)
class PeriodogramEstimate:
    """Periodogram-type values on a frequency grid.

    Values are stored as complex numbers for every kind; "regular" and
    "tapered" values are real and nonnegative, "thresholded-real" values are
    real and >= the recorded threshold, the complete kinds may be genuinely
    complex.
    """

    grid: FrequencyGrid
    values: np.ndarray
    kind: str
    meta: PgMeta = PgMeta()

    def __post_init__(self):
        v = _frozen_array(self, "values", self.values, complex)
        if v.ndim != 1 or v.size != self.grid.size:
            raise DomainError("periodogram values must match the grid length")
        if not np.all(np.isfinite(v)):
            raise DomainError("periodogram values contain non-finite entries")
        if self.kind not in _PG_KINDS:
            raise DomainError(f"unknown periodogram kind {self.kind!r}")
        if self.kind in ("regular", "tapered"):
            if np.any(v.imag != 0.0) or np.any(v.real < 0.0):
                raise DomainError(f"{self.kind} periodogram must be real and nonnegative")
        if self.kind == "thresholded-real":
            delta = self.meta.threshold
            if delta is None:
                raise DomainError("thresholded-real estimate must record its threshold")
            if np.any(v.imag != 0.0) or np.any(v.real < delta * (1.0 - 1e-12)):
                raise DomainError("thresholded-real values must be real and >= threshold")


def _autocov_rows(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocovariances c(0..max_lag) of each row of x (rows, n)."""
    rows, n = x.shape
    c = np.empty((rows, max_lag + 1))
    for k in range(max_lag + 1):
        c[:, k] = np.einsum("ij,ij->i", x[:, : n - k], x[:, k:])
    return c / n


def sample_autocov(ts: TimeSeries, max_lag: int) -> CovarianceSequence:
    """Biased (divisor n) sample autocovariances of a mean-zero series.

    c(k) = n**-1 * sum_{t=1..n-k} x[t] * x[t+k] for k = 0..max_lag.  The
    series is used as given; remove the mean first if it is not known to be 0.
    """
    if max_lag < 0:
        raise DomainError("max_lag must be nonnegative")
    if max_lag >= ts.n:
        raise DomainError("lag exceeds sample")
    return CovarianceSequence(_autocov_rows(ts.values[None], max_lag)[0], estimator="biased-sample")


def _phase_sums(x: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """sum_{t=1..n} x[:, t-1] * exp(1j*t*w) on the grid, for each row of x (rows, n).

    Fourier and uniform grids are lattices w_k = w_0 + 2*pi*k/M (w_0 = 0 and
    pi/M respectively), which ``FrequencyGrid`` enforces exactly.  There
    exp(1j*t*w_k) = exp(1j*t*w_0) * exp(2j*pi*k*t/M) depends on t only
    through t mod M, so the phased data are folded modulo M and summed by
    one unnormalized inverse FFT of length M, for any M versus n.  Explicit
    grids have no such structure and take the direct O(n * |grid|) sum.
    """
    rows, n = x.shape
    if grid.kind == "explicit":
        return x @ np.exp(1j * np.outer(np.arange(1, n + 1), grid.frequencies))
    M, w0 = grid.size, grid.frequencies[0]
    buf = np.zeros((rows, -(-(n + 1) // M) * M), dtype=complex)  # slots t = 0..n, padded to rows of M
    buf[:, 1 : n + 1] = x * np.exp(1j * w0 * np.arange(1, n + 1)) if w0 else x
    folded = buf[:, :M]
    for start in range(M, buf.shape[1], M):  # fold t mod M into the first M slots
        folded += buf[:, start : start + M]
    return scipy.fft.ifft(folded, norm="forward", overwrite_x=True)


def _dft_rows(x: np.ndarray, grid: FrequencyGrid, taper: Taper | None = None) -> np.ndarray:
    """The DFT of each row of x (rows, n), tapered when a taper is given; see `dft`."""
    if taper is not None:
        if taper.n != x.shape[-1]:
            raise DomainError("taper length does not match the series")
        x = x * taper.weights
    return _phase_sums(x, grid) / math.sqrt(x.shape[-1])


def dft(ts: TimeSeries, grid: FrequencyGrid, taper: Taper | None = None) -> np.ndarray:
    """n**-0.5 * sum_t h[t] * x[t] * exp(1j*t*w) on the grid.

    With a taper the rescaled weights (summing to n) multiply the data; with
    none, h is identically 1.  Lattice grids are evaluated by one FFT, explicit
    grids by the direct sum (see `_phase_sums`).
    """
    return _dft_rows(ts.values[None], grid, taper)[0]


def _periodogram_rows(j: np.ndarray, taper: Taper | None = None) -> np.ndarray:
    """Raw periodogram from DFT rows j, taken with `taper` (or none); see `raw_periodogram`."""
    vals = j.real**2 + j.imag**2
    if taper is not None:
        vals *= taper.h1**2 / (taper.n * taper.h2)
    return vals


def raw_periodogram(
    ts: TimeSeries, grid: FrequencyGrid, taper: Taper | None = None
) -> PeriodogramEstimate:
    """Squared-modulus periodogram, untapered or shape-tapered.

    Untapered: |dft|**2.  Tapered: |sum_t h(t/n) x[t] exp(1j*t*w)|**2 / h2,
    the raw taper shape with its own second-moment normalizer; since the
    tapered DFT weights the data by h(t/n) * n / h1, that is its squared
    modulus times h1**2 / (n * h2).  Values that overflow raise NumericalError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _periodogram_rows(_dft_rows(ts.values[None], grid, taper), taper)[0]
    if not np.all(np.isfinite(vals)):
        raise NumericalError("periodogram overflows: the series is too large")
    if taper is None:
        return PeriodogramEstimate(grid, vals, kind="regular")
    return PeriodogramEstimate(grid, vals, kind="tapered", meta=PgMeta(taper=taper.description))
