"""Autoregressive model types, Yule-Walker fitting, order selection, and
ARMA series expansions.

The autoregressive convention everywhere is
``x[t] = sum_{j=1..p} a[j] * x[t-j] + e[t]`` with transfer polynomial
``a(w) = 1 - sum_j a[j] * exp(-1j*j*w)`` and spectral density
``f(w) = sigma2 / |a(w)|**2``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CovarianceSequence, TimeSeries, _autocov_rows, _integer, _positive, _vector
from .exceptions import DomainError, NumericalError

__all__ = [
    "ArmaModel",
    "OrderSelection",
    "ArmaExpansion",
    "levinson_durbin",
    "yule_walker_fit",
    "aic_select",
    "arma_expand",
]

# Stationarity margin: recursion-polynomial roots must have modulus below this.
_CAUSAL_RADIUS = 1.0 - 1e-10


def _recursion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots u of u**p - a1*u**(p-1) - ... - ap; inverses of the zeros of a(z)."""
    return np.roots(np.concatenate(([1.0], -np.asarray(coeffs, dtype=float))))


def _causal(coeffs: np.ndarray) -> bool:
    """Whether every recursion-polynomial root has modulus below _CAUSAL_RADIUS
    (true for no coefficients): the causality rule of every AR model and fit."""
    return not coeffs.size or bool(np.max(np.abs(_recursion_roots(coeffs))) < _CAUSAL_RADIUS)


def _ar_phases(freqs, p: int) -> np.ndarray:
    """The phase table exp(-1j*j*w) for j = 1..p, shaped (*freqs.shape, p)."""
    return np.exp(-1j * np.multiply.outer(np.asarray(freqs, dtype=float), np.arange(1, p + 1)))


def _transfer_polynomial(coeffs: np.ndarray, freqs) -> np.ndarray:
    """1 - sum_j coeffs[..., j-1] * exp(-1j*j*w) at each frequency (1 when empty).

    Serves callers holding an array of frequencies: the `ArmaModel`
    polynomials and, through `_ar_phases`, `whittle_fit`.  Leading
    axes of `coeffs` are batch axes: a (rows, p) block gives one polynomial
    per row, shaped (rows, *freqs.shape).  A caller that evaluates many
    coefficient vectors on one grid (`whittle_fit`'s Newton steps) builds the
    `_ar_phases` table once and repeats this contraction against it.  The
    predictive correction does not call it: it reads a(w) off the FFT that
    also gives its boundary sums (see `complete._correction_rows`).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    return 1.0 - np.inner(coeffs, _ar_phases(freqs, coeffs.shape[-1]))


@dataclass(frozen=True, eq=False)
class ArmaModel:
    """Causal ARMA(P, Q): x[t] = sum ar[i] x[t-i] + e[t] + sum ma[j] e[t-j].

    An AR(p) model is the case ma=[].  The AR polynomial must have all roots
    strictly outside the unit circle; the MA polynomial may touch the circle
    (strict invertibility is demanded only where an AR-series expansion is
    requested).
    """

    ar: np.ndarray
    ma: np.ndarray
    sigma2: float

    def __post_init__(self):
        for name in ("ar", "ma"):
            _vector(self, name, f"{name} coefficients", empty=True)
        _positive(self.sigma2, "innovation variance")
        if not _causal(self.ar):
            raise DomainError("AR part is not causal")
        if self.ma.size and np.max(np.abs(_recursion_roots(-self.ma))) > 1.0 + 1e-10:
            raise DomainError("MA polynomial root strictly inside the unit circle")

    @property
    def p(self) -> int:
        return self.ar.size

    @property
    def q(self) -> int:
        return self.ma.size

    def ar_polynomial(self, freqs: np.ndarray) -> np.ndarray:
        return _transfer_polynomial(self.ar, freqs)

    def ma_polynomial(self, freqs: np.ndarray) -> np.ndarray:
        return _transfer_polynomial(-self.ma, freqs)

    def density(self, freqs: np.ndarray) -> np.ndarray:
        phi = self.ar_polynomial(freqs)
        psi = self.ma_polynomial(freqs)
        return self.sigma2 * (psi.real**2 + psi.imag**2) / (phi.real**2 + phi.imag**2)


def _arma(model) -> ArmaModel:
    """`model`, or DomainError unless it is an ArmaModel."""
    if not isinstance(model, ArmaModel):
        raise DomainError(f"model must be an ArmaModel, got {model!r}")
    return model


def _levinson_rows(c: np.ndarray, pmax: int):
    """Levinson recursion up to order pmax on each row of c (rows, >= pmax+1).

    Returns (coeffs, sigma2): coeffs[:, p, :p] holds the order-p coefficient
    vectors, zero-padded to a (rows, pmax+1, pmax) table, and sigma2 the
    (rows, pmax+1) innovation variances.  Rows are checked after the loop,
    which raises NumericalError at the first order where any row has a
    reflection coefficient outside (-1, 1) or a variance that underflows.
    """
    if (c[:, 0] <= 0.0).any():
        raise NumericalError("covariance not positive definite (c(0) <= 0)")
    rows = c.shape[0]
    coeffs = np.zeros((rows, pmax + 1, pmax))
    sigma2 = np.empty((rows, pmax + 1))
    sigma2[:, 0] = c[:, 0]
    with np.errstate(all="ignore"):  # a failed row is reported below
        for m in range(1, pmax + 1):
            a = coeffs[:, m - 1, : m - 1]
            k = (c[:, m] - np.einsum("ij,ij->i", a, c[:, m - 1 : 0 : -1])) / sigma2[:, m - 1]
            coeffs[:, m, : m - 1] = a - k[:, None] * a[:, ::-1]
            coeffs[:, m, m - 1] = k
            sigma2[:, m] = sigma2[:, m - 1] * (1.0 - k * k)
    # |k| >= 1 or a non-finite k first shows as a variance that is not positive
    bad = ~(sigma2[:, 1:] > 0.0)
    if bad.any():
        m = int(bad.any(axis=0).argmax()) + 1
        raise NumericalError(f"covariance not positive definite (Levinson recursion fails at order {m})")
    return coeffs, sigma2


def levinson_durbin(cov: CovarianceSequence, p: int) -> ArmaModel:
    """Solve the order-p prediction equations from c(0..p) by the Levinson
    recursion; returns the fitted model with its innovation variance."""
    coeffs, sigma2 = _levinson_rows(cov.upto(_integer(p, "order", 0))[None], p)
    return ArmaModel(coeffs[0, p, :p], [], float(sigma2[0, p]))


def _yule_walker_rows(x: np.ndarray, p: int):
    """Levinson fits of orders 0..p to the sample autocovariances of each
    row of x (rows, n), assumed mean zero; see `_levinson_rows`."""
    c = _autocov_rows(x, _integer(p, "order", 0, below=x.shape[-1]))
    if (c[:, 0] <= 0.0).any():
        raise NumericalError("series is constant: zero sample variance")
    return _levinson_rows(c, p)


def yule_walker_fit(ts: TimeSeries, p: int) -> ArmaModel:
    """Fit AR(p) by the sample autocovariances of `ts` (assumed mean zero)."""
    coeffs, sigma2 = _yule_walker_rows(ts.values[None], p)
    return ArmaModel(coeffs[0, p, :p], [], float(sigma2[0, p]))


@dataclass(frozen=True, eq=False)
class OrderSelection:
    """Result of information-criterion order selection over 1..k_n."""

    chosen_p: int
    k_n: int
    aic_values: np.ndarray
    model: ArmaModel

    def __post_init__(self):
        vals = _vector(self, "aic_values", "criterion values")
        if not 1 <= self.chosen_p <= self.k_n or self.model.p != self.chosen_p:
            raise DomainError("selected order must lie in 1..k_n and be the model's order")
        if vals.size != self.k_n:
            raise DomainError("need one criterion value per candidate order")


def _aic_rows(x: np.ndarray, max_order: int | None = None):
    """AIC order selection on each row of x (rows, n); see `aic_select`.

    Returns (orders, coeffs, sigma2, aic): the chosen order of each row, its
    coefficients zero-padded to a (rows, k_n) block, its innovation variance,
    and the (rows, k_n) criterion values.
    """
    rows, n = x.shape
    if n < 4:
        raise DomainError("order selection needs n >= 4")
    if max_order is None:
        k_n = min(max(int(n**0.4), 1), n - 2)
    else:
        k_n = _integer(max_order, "max_order", 1, below=n - 1)
    coeffs, sigma2 = _yule_walker_rows(x, k_n)

    # The order-p residual at t (1-based) is v_p . w_t, with v_p = (1, -a_p)
    # zero-padded to k_n+1 terms and w_t = (x[t], .., x[t-k_n]), zero outside
    # 1..n.  Over every t = 1..n+k_n the products w_t w_t' sum to n*Gamma,
    # Gamma the Toeplitz matrix of c(0..k_n), and the Yule-Walker coefficients
    # solve the first p+1 rows of Gamma v_p = (sigma2_p, 0, .., 0), so
    # v_p' Gamma v_p = sigma2_p.  The window t = k_n+1..n is that sum less the
    # k_n head windows (t <= k_n) and the k_n tail windows (t > n):
    #   (n - k_n) * s2_p = n * sigma2_p - sum over the edge of (v_p . w_t)**2.
    # The edge windows read only x[n-k_n+1..n] and x[1..k_n]: laid out as
    # edge = (tail, k_n zeros, head), the window ending at v = k_n..3k_n-1
    # (t = n+1+v-k_n, then t = v-2k_n+1) holds x[t-j] at v-j, here w[:, j, v-k_n].
    # This costs O(k_n**3) per row whatever n, and no array grows with n.
    edge = np.concatenate((x[:, n - k_n :], np.zeros((rows, k_n)), x[:, :k_n]), axis=1)
    w = edge.take(np.arange(k_n, 3 * k_n) - np.arange(k_n + 1)[:, None], axis=1)
    e = np.einsum("ipj,ijt->ipt", coeffs[:, 1:, :], w[:, 1:, :]) - w[:, None, 0, :]
    rss = n * sigma2[:, 1:] - np.einsum("ipt,ipt->ip", e, e)
    # Rounding leaves a true zero (a lone spike in the head) as a number of
    # either sign some 1e-16 of the scale n*sigma2_p; a residual sum below
    # 1e-12 of that scale is zero to the precision of the identity.
    zero = (rss <= 1e-12 * n * sigma2[:, 1:]).any(axis=0)
    if zero.any():
        raise NumericalError(f"zero residual variance at order {zero.argmax() + 1}: the criterion would be -inf")
    aic = np.log(rss / (n - k_n)) + np.arange(2, 2 * k_n + 1, 2) / n
    orders = aic.argmin(axis=1) + 1
    pick = np.arange(rows)
    return orders, coeffs[pick, orders], sigma2[pick, orders], aic


def aic_select(ts: TimeSeries, max_order: int | None = None) -> OrderSelection:
    """Pick the AR order in 1..k_n minimizing log(residual variance) + 2p/n.

    k_n defaults to floor(n**0.4), clamped to [1, n-2].  The residual variance
    for every candidate p uses the common window t = k_n+1..n so criteria are
    comparable; ties resolve to the smaller order.

    No residual is formed.  With v_p = (1, -a_p) and w_t = (x[t], .., x[t-k_n])
    (zero outside 1..n), the windows of all t = 1..n+k_n sum to n*Gamma, the
    Toeplitz matrix of the sample autocovariances, and the Yule-Walker
    solution has v_p' Gamma v_p = sigma2_p, its Levinson innovation variance.
    So the window's residual sum is

        (n - k_n) * s2_p = n * sigma2_p - sum_{t <= k_n or t > n} (v_p . w_t)**2,

    whose 2*k_n edge windows read only the first and last k_n values: O(k_n**3)
    per series after the autocovariances, whatever n.  Its rounding error is
    some eps * n * c(0) * |v_p|_1**2, so s2_p keeps about 1e-15 of its value on
    well-conditioned series and less near a unit root or on a short window.
    A residual sum below 1e-12 of n * sigma2_p raises NumericalError as zero.
    """
    orders, coeffs, sigma2, aic = _aic_rows(ts.values[None], max_order)
    p = int(orders[0])
    model = ArmaModel(coeffs[0, :p], [], float(sigma2[0]))
    return OrderSelection(chosen_p=p, k_n=aic.shape[1], aic_values=aic[0], model=model)


@dataclass(frozen=True, eq=False)
class ArmaExpansion:
    """Series expansions of an ARMA model truncated at M terms.

    ar_inf[j-1] holds the AR-representation coefficient a_j (j = 1..M) and
    autocov the exact model autocovariances c(0..M); the model's own
    `density` gives f(w).
    """

    ar_inf: np.ndarray
    autocov: CovarianceSequence


_EXPAND_CAP = 5000
_MA_TAIL_CAP = 200_000
# Steps of the first MA-weight filter; each retry filters four times as many.
_MA_CHUNK = 4096


def _polynomials(model: ArmaModel):
    """Coefficients of phi(z) = 1 - sum ar_j z**j and psi(z) = 1 + sum ma_j z**j."""
    return np.concatenate(([1.0], -model.ar)), np.concatenate(([1.0], model.ma))


def _filter(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The rational filter b(B)/a(B) run over the last axis of x from zero state.

    This is `scipy.signal.lfilter`, the one ARMA filter of the simulator and
    the expansions, and the library's only scipy call: the DFT, the
    covariance matrices and the oracle run on numpy.  Importing
    `scipy.signal` costs more than the rest of predspec, so it is imported
    here, on the first filter, and an analysis that filters nothing loads
    no scipy.
    """
    import scipy.signal

    return scipy.signal.lfilter(b, a, x)


def _ma_weights(model: ArmaModel) -> np.ndarray:
    """MA-representation weights b_0=1, b_1, ... through the first run of
    1+P+Q weights past b_0 that all fall below 1e-14.

    The weights are the impulse response of psi/phi, filtered from scratch
    over _MA_CHUNK steps, then four times as many, and so on up to
    _MA_TAIL_CAP, until the run shows up.  A causal filter gives a longer
    response the same leading bits, so the cut does not depend on the lengths.
    """
    phi, psi = _polynomials(model)
    window = 1 + model.p + model.q
    steps = max(_MA_CHUNK, window)
    while True:
        impulse = np.zeros(min(steps, _MA_TAIL_CAP) + 1)
        impulse[0] = 1.0
        b = _filter(psi, phi, impulse)
        big = np.cumsum(~(np.abs(b) < 1e-14))  # weights not below 1e-14 up to each step
        hits = np.flatnonzero(big[window:] == big[:-window])  # runs of small weights ending at window + hit
        if hits.size:
            return b[: window + hits[0] + 1]
        if steps >= _MA_TAIL_CAP:
            raise NumericalError("MA-representation weights did not decay; model too close to the unit circle")
        steps *= 4


def _arma_autocov(model: ArmaModel, max_lag: int) -> np.ndarray:
    """Autocovariances c(0..max_lag) of the model, sigma2 * sum_j b_j b_{j+r}
    over its MA weights; only the AR part needs to be causal."""
    b = _ma_weights(model)
    return model.sigma2 * np.correlate(np.concatenate((b, np.zeros(max_lag))), b, "valid")


def arma_expand(model: ArmaModel, M: int | None = None) -> ArmaExpansion:
    """AR series expansion plus autocovariances of an ARMA model.

    The AR coefficients are the impulse response of phi/psi.  M defaults to
    the smallest length whose trailing AR coefficients all fall below 1e-12
    (so sparse coefficient patterns are kept intact), capped at 5000.  The
    AR expansion requires the MA polynomial to have all roots strictly
    outside the unit circle.
    """
    if not _causal(-_arma(model).ma):
        raise DomainError("AR-series expansion requires a strictly invertible MA polynomial")
    if M is not None:
        _integer(M, "expansion length", 1)
    impulse = np.zeros((_EXPAND_CAP if M is None else M) + 1)
    impulse[0] = 1.0
    ar_inf = -_filter(*_polynomials(model), impulse)[1:]
    if M is None:
        keep = np.nonzero(np.abs(ar_inf) >= 1e-12)[0]
        M = int(keep[-1]) + 1 if keep.size else 1
        ar_inf = ar_inf[:M]
    cov = CovarianceSequence(_arma_autocov(model, M))
    return ArmaExpansion(ar_inf=ar_inf, autocov=cov)
