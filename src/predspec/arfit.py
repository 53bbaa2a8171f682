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

from .core import CovarianceSequence, FrequencyGrid, TimeSeries, _autocov_rows
from .exceptions import DomainError, NumericalError

__all__ = [
    "ArModel",
    "ArmaModel",
    "OrderSelection",
    "ArmaExpansion",
    "levinson_durbin",
    "yule_walker_fit",
    "aic_select",
    "ar_spectral",
    "arma_expand",
]

# Stationarity margin: recursion-polynomial roots must have modulus below this.
_CAUSAL_RADIUS = 1.0 - 1e-10


def _recursion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots u of u**p - a1*u**(p-1) - ... - ap; inverses of the zeros of a(z)."""
    return np.roots(np.concatenate(([1.0], -np.asarray(coeffs, dtype=float))))


def _ar_phases(freqs, p: int) -> np.ndarray:
    """The phase table exp(-1j*j*w) for j = 1..p, shaped (*freqs.shape, p)."""
    return np.exp(-1j * np.multiply.outer(np.asarray(freqs, dtype=float), np.arange(1, p + 1)))


def _transfer_polynomial(coeffs: np.ndarray, freqs) -> np.ndarray:
    """1 - sum_j coeffs[..., j-1] * exp(-1j*j*w) at each frequency (1 when empty).

    Leading axes of `coeffs` are batch axes: a (rows, p) block gives one
    polynomial per row, shaped (rows, *freqs.shape).  A caller that
    evaluates many coefficient vectors on one grid (`ar_family`) builds the
    `_ar_phases` table once and repeats this contraction against it.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    return 1.0 - np.inner(coeffs, _ar_phases(freqs, coeffs.shape[-1]))


@dataclass(frozen=True)
class ArModel:
    """Causal AR(p) model: coefficients a[1..p] and innovation variance."""

    coeffs: np.ndarray
    sigma2: float

    def __post_init__(self):
        a = np.array(self.coeffs, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)
        if a.ndim != 1:
            raise DomainError("AR coefficients must be a 1-d array")
        if not np.all(np.isfinite(a)):
            raise DomainError("AR coefficients must be finite")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise DomainError("innovation variance must be positive and finite")
        if a.size and np.max(np.abs(_recursion_roots(a))) >= _CAUSAL_RADIUS:
            raise DomainError("AR model is not causal (root on or inside the unit circle)")

    @property
    def p(self) -> int:
        return self.coeffs.size

    def transfer(self, freqs: np.ndarray) -> np.ndarray:
        """a(w) = 1 - sum_j a[j] exp(-1j*j*w)."""
        return _transfer_polynomial(self.coeffs, freqs)

    def density(self, freqs: np.ndarray) -> np.ndarray:
        aw = self.transfer(freqs)
        return self.sigma2 / (aw.real**2 + aw.imag**2)


@dataclass(frozen=True)
class ArmaModel:
    """Causal ARMA(P, Q): x[t] = sum ar[i] x[t-i] + e[t] + sum ma[j] e[t-j].

    The AR polynomial must have all roots strictly outside the unit circle;
    the MA polynomial may touch the circle (strict invertibility is demanded
    only where an AR-series expansion is requested).
    """

    ar: np.ndarray
    ma: np.ndarray
    sigma2: float

    def __post_init__(self):
        for name in ("ar", "ma"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} coefficients must be a finite 1-d array")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise DomainError("innovation variance must be positive and finite")
        if self.ar.size and np.max(np.abs(_recursion_roots(self.ar))) >= _CAUSAL_RADIUS:
            raise DomainError("AR part is not causal")
        if self.ma.size:
            # roots of u**q * psi(1/u): inverses of the MA polynomial's zeros
            inv = np.roots(np.concatenate(([1.0], self.ma)))
            if inv.size and np.max(np.abs(inv)) > 1.0 + 1e-10:
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

    def pure_ar(self) -> ArModel:
        """The ArModel view of an ARMA with no MA part."""
        if self.q != 0:
            raise DomainError("model has a moving-average part")
        return ArModel(self.ar, self.sigma2)


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


def levinson_durbin(cov: CovarianceSequence, p: int) -> ArModel:
    """Solve the order-p prediction equations from c(0..p) by the Levinson
    recursion; returns the fitted model with its innovation variance."""
    if p < 0:
        raise DomainError("order must be nonnegative")
    if cov.max_lag < p:
        raise DomainError(f"need lags 0..{p}, covariance holds 0..{cov.max_lag}")
    coeffs, sigma2 = _levinson_rows(cov.lags[None], p)
    return ArModel(coeffs[0, p, :p], float(sigma2[0, p]))


def _yule_walker_rows(x: np.ndarray, p: int):
    """Levinson fits of orders 0..p to the sample autocovariances of each
    row of x (rows, n), assumed mean zero; see `_levinson_rows`."""
    if p < 0 or p >= x.shape[-1]:
        raise DomainError("order must satisfy 0 <= p < n")
    c = _autocov_rows(x, p)
    if (c[:, 0] <= 0.0).any():
        raise NumericalError("series is constant: zero sample variance")
    return _levinson_rows(c, p)


def yule_walker_fit(ts: TimeSeries, p: int) -> ArModel:
    """Fit AR(p) by the sample autocovariances of `ts` (assumed mean zero)."""
    coeffs, sigma2 = _yule_walker_rows(ts.values[None], p)
    return ArModel(coeffs[0, p, :p], float(sigma2[0, p]))


@dataclass(frozen=True)
class OrderSelection:
    """Result of information-criterion order selection over 1..k_n."""

    chosen_p: int
    k_n: int
    aic_values: np.ndarray
    model: ArModel

    def __post_init__(self):
        vals = np.array(self.aic_values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "aic_values", vals)
        if not 1 <= self.chosen_p <= self.k_n:
            raise DomainError("selected order must lie in 1..k_n")
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
        k_n = max_order
        if k_n < 1 or k_n >= n - 1:
            raise DomainError("max_order must satisfy 1 <= max_order <= n-2")
    coeffs, sigma2 = _yule_walker_rows(x, k_n)

    # lags[:, j-1, i] holds x[t-j] for the residual window t = k_n+1..n (1-based);
    # row p-1 of the product is the order-p prediction, minus x[t] the negated residual
    lags = np.array([x[:, k_n - j : n - j] for j in range(1, k_n + 1)]).transpose(1, 0, 2)
    resid = coeffs[:, 1:, :] @ lags
    resid -= x[:, None, k_n:]
    s2 = np.einsum("ipt,ipt->ip", resid, resid) / (n - k_n)
    if (s2 <= 0.0).any():
        p = int((s2 <= 0.0).any(axis=0).argmax()) + 1
        raise NumericalError(f"zero residual variance at order {p}: the criterion would be -inf")
    aic = np.log(s2) + 2.0 * np.arange(1, k_n + 1) / n
    orders = aic.argmin(axis=1) + 1
    pick = np.arange(rows)
    return orders, coeffs[pick, orders], sigma2[pick, orders], aic


def aic_select(ts: TimeSeries, max_order: int | None = None) -> OrderSelection:
    """Pick the AR order in 1..k_n minimizing log(residual variance) + 2p/n.

    k_n defaults to floor(n**0.4), clamped to [1, n-2].  The residual variance
    for every candidate p uses the common window t = k_n+1..n so criteria are
    comparable; ties resolve to the smaller order.
    """
    orders, coeffs, sigma2, aic = _aic_rows(ts.values[None], max_order)
    p = int(orders[0])
    model = ArModel(coeffs[0, :p], float(sigma2[0]))
    return OrderSelection(chosen_p=p, k_n=aic.shape[1], aic_values=aic[0], model=model)


def ar_spectral(model: ArModel, grid: FrequencyGrid):
    """Transfer function a(w) and spectral density sigma2/|a(w)|**2 on a grid."""
    aw = model.transfer(grid.frequencies)
    return aw, model.sigma2 / (aw.real**2 + aw.imag**2)


@dataclass(frozen=True)
class ArmaExpansion:
    """Series expansions of an ARMA model truncated at M terms.

    ar_inf[j-1] holds the AR-representation coefficient a_j (j = 1..M),
    autocov the exact model autocovariances c(0..M), and density a
    vectorized handle for f(w).
    """

    ar_inf: np.ndarray
    autocov: CovarianceSequence
    density: object


_EXPAND_CAP = 5000
_MA_TAIL_CAP = 200_000


def _series_quotient(num: np.ndarray, den: np.ndarray, count: int) -> np.ndarray:
    """Coefficients 1..count of the power series num(z)/den(z), both monic."""
    out = np.empty(count + 1)
    out[0] = 1.0
    for k in range(1, count + 1):
        v = num[k] if k < num.size else 0.0
        lo = max(0, k - (den.size - 1))
        if lo < k:
            v -= den[k - lo : 0 : -1] @ out[lo:k]
        out[k] = v
    return out[1:]


def _ma_weights(model: ArmaModel, tol: float = 1e-14) -> np.ndarray:
    """MA-representation weights b_0=1, b_1, ... until the tail drops below tol."""
    phi = np.concatenate(([1.0], -model.ar))
    chi = [1.0]
    k = 0
    window = 1 + model.p + model.q
    while k < _MA_TAIL_CAP:
        k += 1
        v = model.ma[k - 1] if k <= model.q else 0.0
        for i in range(1, min(k, model.p) + 1):
            v += model.ar[i - 1] * chi[k - i]
        chi.append(v)
        if k >= window and max(abs(c) for c in chi[-window:]) < tol:
            break
    else:
        raise NumericalError("MA-representation weights did not decay; model too close to the unit circle")
    return np.asarray(chi)


def arma_expand(model: ArmaModel, M: int | None = None) -> ArmaExpansion:
    """AR series expansion plus autocovariances of an ARMA model.

    M defaults to the smallest length whose trailing AR coefficients all fall
    below 1e-12 (so sparse coefficient patterns are kept intact), capped at
    5000.  The AR expansion requires the MA polynomial to have all roots
    strictly outside the unit circle.
    """
    if model.q:
        inv = np.roots(np.concatenate(([1.0], model.ma)))
        if inv.size and np.max(np.abs(inv)) >= _CAUSAL_RADIUS:
            raise DomainError("AR-series expansion requires a strictly invertible MA polynomial")
    phi = np.concatenate(([1.0], -model.ar))  # coefficients of 1 - sum ar_j z^j
    psi = np.concatenate(([1.0], model.ma))  # coefficients of 1 + sum ma_j z^j

    if M is None:
        pi_full = _series_quotient(phi, psi, _EXPAND_CAP)
        mags = np.abs(pi_full)
        keep = np.nonzero(mags >= 1e-12)[0]
        M = int(keep[-1]) + 1 if keep.size else 1
        ar_inf = -pi_full[:M]
    else:
        if M < 1:
            raise DomainError("expansion length must be >= 1")
        ar_inf = -_series_quotient(phi, psi, M)

    chi = _ma_weights(model)
    pad = np.concatenate((chi, np.zeros(M)))
    autocov = model.sigma2 * np.array(
        [chi @ pad[r : r + chi.size] for r in range(M + 1)]
    )
    cov = CovarianceSequence(autocov, estimator="population")
    return ArmaExpansion(ar_inf=ar_inf, autocov=cov, density=model.density)
