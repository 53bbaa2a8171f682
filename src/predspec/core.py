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
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError, NumericalError

TWO_PI = 2.0 * np.pi

__all__ = [
    "TimeSeries",
    "FrequencyGrid",
    "CovarianceSequence",
    "Taper",
    "PgMeta",
    "PeriodogramEstimate",
    "sample_autocov",
    "dft",
    "tukey_taper",
]


def _array(value, what: str, dtype=float, empty: bool = False) -> np.ndarray:
    """`value` as a read-only 1-d ndarray copy.

    Raises DomainError unless the values are finite numbers forming a 1-d
    array, non-empty unless `empty` allows it.
    """
    try:
        arr = np.array(value, dtype=dtype)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be an array of numbers") from None
    if arr.ndim != 1 or (arr.size < 1 and not empty):
        raise DomainError(f"{what} must be a {'' if empty else 'non-empty '}1-d array")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be finite")
    arr.setflags(write=False)
    return arr


def _vector(obj, attr: str, what: str, dtype=float, empty: bool = False) -> np.ndarray:
    """Replace a frozen dataclass's `attr` by its `_array` form."""
    arr = _array(getattr(obj, attr), what, dtype, empty)
    object.__setattr__(obj, attr, arr)
    return arr


def _integer(value, name: str, least: int | None = None, below: int | None = None) -> int:
    """`value` as an int, or DomainError when it is not an integer (e.g. 2.5,
    2.0 or True), is below `least` or is not below `below`.

    `below` is the one statement of an upper bound, such as an order or a
    lag that must stay below the series length."""
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if least is not None and value < least:
                raise DomainError(f"{name} must be >= {least}, got {value}")
            if below is not None and value >= below:
                raise DomainError(f"{name} must be < {below}, got {value}")
            return value
    raise DomainError(f"{name} must be an integer, got {value!r}")


def _finite(compute, what: str) -> np.ndarray:
    """compute(), an array, with numpy's overflow warnings silenced; raises
    NumericalError "<what>: the series is too large" unless every value is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = compute()
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{what}: the series is too large")
    return values


def _positive(value, name: str) -> float:
    """`value` as a float, or DomainError unless it is a finite real number > 0 (not a bool)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and 0.0 < value < math.inf:
        return float(value)
    raise DomainError(f"{name} must be a positive finite number, got {value!r}")


# The dataclasses that hold an ndarray set eq=False: a generated __eq__ would
# compare arrays elementwise and raise on truth testing, so they compare by
# identity.

@dataclass(frozen=True, eq=False)
class TimeSeries:
    """An observed real-valued series x[1..n] (stored 0-based).

    Estimators use the values as given; call `center` to remove the sample
    mean first.  The values are a read-only copy, so the series keeps the AR
    fits its completed estimates take (one per fitted model source, in
    `_fits`) for as long as it lives.  A new series, from `center` or
    `dataclasses.replace`, starts with none.
    """

    values: np.ndarray
    _fits: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _vector(self, "values", "time series")

    @property
    def n(self) -> int:
        return self.values.size

    def center(self) -> "TimeSeries":
        """Return a copy with the sample mean removed.

        Raises NumericalError when the mean or the centred values overflow.
        """
        return TimeSeries(_finite(lambda: self.values - self.values.mean(), "centring overflows"))


def _lattice(M: int, kind: str) -> np.ndarray:
    """2*pi*k/M ("fourier") or 2*pi*(k + 0.5)/M ("uniform") for k = 0..M-1."""
    _integer(M, f"{kind} grid size", 1)
    return TWO_PI * (np.arange(M) + (0.5 if kind == "uniform" else 0.0)) / M


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing frequencies in [0, 2*pi).

    kind is one of "fourier", "uniform" (midpoint rule cells) or "explicit".
    A "fourier" or "uniform" grid must hold exactly the frequencies its
    classmethod builds, because ``dft`` evaluates those kinds by FFT.
    """

    frequencies: np.ndarray
    kind: str = "explicit"

    def __post_init__(self):
        w = _vector(self, "frequencies", "frequency grid")
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


@dataclass(frozen=True, eq=False)
class CovarianceSequence:
    """Autocovariances c(0..L), model-derived or sampled.

    Any autocovariance sequence satisfies |c(k)| <= c(0), so c(0) = 0 forces
    every lag to vanish.  A reader that needs lags 0..L takes them from
    `upto(L)`, which raises DomainError when the sequence is shorter.
    """

    lags: np.ndarray

    def __post_init__(self):
        c = _vector(self, "lags", "covariance sequence")
        if c[0] < 0.0:
            raise DomainError("variance c(0) must be nonnegative")
        if np.any(np.abs(c[1:]) > c[0] * (1.0 + 1e-12)):
            raise DomainError("autocovariance must satisfy |c(k)| <= c(0)")

    @property
    def max_lag(self) -> int:
        return self.lags.size - 1

    def upto(self, L: int) -> np.ndarray:
        """c(0..L), or DomainError unless L is an integer >= 0 and the
        sequence holds lags 0..L."""
        if self.max_lag < _integer(L, "lag L", 0):
            raise DomainError(f"covariance sequence holds lags 0..{self.max_lag}, need 0..{L}")
        return self.lags[: L + 1]

    def toeplitz(self, n: int) -> np.ndarray:
        """The n-by-n covariance matrix [c(i - j)] (needs lags 0..n-1)."""
        return _toeplitz(self.upto(_integer(n, "matrix dimension", 1) - 1), n)


def _toeplitz(c: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n-by-n matrix [c(|i - j|)] from the first n entries of c."""
    k = np.arange(n)
    return c[np.abs(k[:, None] - k)]


@dataclass(frozen=True, eq=False)
class Taper:
    """A data taper, built from its shape h(t/n) for t = 1..n.

    ``weights`` are the shape rescaled by n / h1 so they sum to n, and ``h1``
    and ``h2`` the first and second moments sum h(t/n)**q of the shape.  All
    three are set from the shape, so they cannot disagree, and `weights` is
    read-only.  The shape must be nonnegative with a positive, finite sum of
    squares, which makes h1 positive and every derived value finite.
    """

    shape: np.ndarray
    description: str = ""
    weights: np.ndarray = field(init=False)
    h1: float = field(init=False)
    h2: float = field(init=False)

    def __post_init__(self):
        shape = _vector(self, "shape", "taper shape")
        h1, h2 = float(shape.sum()), float((shape**2).sum())
        if np.any(shape < 0.0) or not 0.0 < h2 < math.inf:
            raise DomainError("taper shape must be nonnegative with a positive, finite sum of squares")
        weights = shape * (shape.size / h1)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)

    @property
    def n(self) -> int:
        return self.weights.size


def tukey_taper(n: int, d: int) -> Taper:
    """Cosine-bell taper rising over d points at each end, flat in between.

    Shape on the rise, t = 1..d: 0.5 * (1 - cos(pi * (t - 0.5) / d)); the top
    d points mirror it; everything between is 1.  Only the shape is built
    here; `Taper` derives the weights and moments from it.
    """
    n, d = _integer(n, "taper length", 1), _integer(d, "rise length d", 1)
    if 2 * d > n:
        raise DomainError("rise length d must satisfy 1 <= d <= n/2")
    shape = np.ones(n)
    rise = 0.5 * (1.0 - np.cos(np.pi * (np.arange(d) + 0.5) / d))
    shape[:d] = rise
    shape[n - d:] = rise[::-1]
    return Taper(shape, description=f"tukey(d={d})")


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


@dataclass(frozen=True, eq=False)
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
        v = _vector(self, "values", "periodogram values", complex)
        if v.size != self.grid.size:
            raise DomainError("periodogram values must match the grid length")
        if self.kind not in _PG_KINDS:
            raise DomainError(f"unknown periodogram kind {self.kind!r}")
        if self.kind in ("regular", "tapered"):
            if np.any(v.imag != 0.0) or np.any(v.real < 0.0):
                raise DomainError(f"{self.kind} periodogram must be real and nonnegative")
        if self.kind == "thresholded-real":
            if self.meta.threshold is None:
                raise DomainError("thresholded-real estimate must record its threshold")
            delta = _positive(self.meta.threshold, "recorded threshold")
            if np.any(v.imag != 0.0) or np.any(v.real < delta * (1.0 - 1e-12)):
                raise DomainError("thresholded-real values must be real and >= threshold")


def _autocov_rows(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocovariances c(0..max_lag) of each row of x (rows, n).

    Raises NumericalError when they overflow.
    """
    rows, n = x.shape

    def lags():
        c = np.empty((rows, max_lag + 1))
        for k in range(max_lag + 1):
            c[:, k] = np.einsum("ij,ij->i", x[:, : n - k], x[:, k:])
        return c / n

    return _finite(lags, "sample autocovariances overflow")


def sample_autocov(ts: TimeSeries, max_lag: int) -> CovarianceSequence:
    """Biased (divisor n) sample autocovariances of a mean-zero series.

    c(k) = n**-1 * sum_{t=1..n-k} x[t] * x[t+k] for k = 0..max_lag.  The
    series is used as given; remove the mean first if it is not known to be 0.
    """
    max_lag = _integer(max_lag, "max_lag", 0, below=ts.n)
    return CovarianceSequence(_autocov_rows(ts.values[None], max_lag)[0])


def _phase_sums(x: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """sum_{t=1..n} x[:, t-1] * exp(1j*t*w) on the grid, for each row of x (rows, n).

    Fourier and uniform grids are lattices w_k = w_0 + 2*pi*k/M (w_0 = 0 and
    pi/M respectively), which ``FrequencyGrid`` enforces exactly.  There
    exp(1j*t*w_k) = exp(1j*t*w_0) * exp(2j*pi*k*t/M) depends on t only
    through t mod M, so the phased data are folded modulo M and summed by
    one unnormalized inverse FFT of length M (`np.fft.ifft`), for any M
    versus n.  Explicit grids have no such structure and take the direct
    O(n * |grid|) sum.
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
    return np.fft.ifft(folded, norm="forward")


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
    grids by the direct sum (see `_phase_sums`).  Values that overflow raise
    NumericalError.
    """
    return _finite(lambda: _dft_rows(ts.values[None], grid, taper)[0], "DFT overflows")


def _periodogram_rows(j: np.ndarray, taper: Taper | None = None) -> np.ndarray:
    """Raw periodogram from DFT rows j, taken with `taper` (or none); see `complete.raw_periodogram`."""
    vals = j.real**2 + j.imag**2
    if taper is not None:
        vals *= taper.h1**2 / (taper.n * taper.h2)
    return vals
