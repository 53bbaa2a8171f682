"""Self-contained identity checks wiring the estimators to the oracle.

These are the checks behind ``predspec verify``: exact unbiasedness of the
completed periodogram under the generating model, agreement of the two
independent expectation routes, and agreement of the closed-form extension
transform with brute-force prediction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arfit import ArmaModel, arma_expand
from .complete import predictive_dft_matrix
from .core import FrequencyGrid, TimeSeries, _dft_rows, tukey_taper
from .estimators import default_rise
from .exceptions import DomainError
from .oracle import (
    expected_quadratic,
    fejer_expected_periodogram,
    predictive_dft_bruteforce,
)
from .simulation import builtin_models

__all__ = ["CheckResult", "unbiasedness_report", "oracle_report", "run_suite"]

# The unbiasedness grid: m1 root moduli and sample sizes.
_LAMS = (0.7, 0.9, 0.95)
_SIZES = (8, 20, 50)
# Tolerances: exact unbiasedness is near machine precision; the closure
# compares against a quadrature, the extension against a truncated horizon.
_TOL_UNBIASED = 1e-9
_TOL_CLOSURE = 1e-6
_TOL_EXTENSION = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error < self.tol


def unbiasedness_report() -> list:
    """Exact-expectation checks for completed periodograms under AR(2) truth.

    For each root modulus and sample size, the expectation of the completed
    periodogram (plain and tapered) at every Fourier frequency is computed by
    covariance algebra and compared with the true spectral density, which it
    must match to near machine precision.
    """
    results = []
    for lam in _LAMS:
        model = builtin_models("m1", lam)
        for n in _SIZES:
            expansion = arma_expand(model, M=n + 8)
            cov = expansion.autocov
            grid = FrequencyGrid.fourier(n)
            f = model.density(grid.frequencies)
            # the linear forms of the plain, tapered and predictive DFTs:
            # column i weights the observations at frequency i
            E = _dft_rows(np.eye(n), grid)
            H = _dft_rows(np.eye(n), grid, tukey_taper(n, default_rise(n)))
            D = predictive_dft_matrix(model, n, grid)
            err_plain = 0.0
            err_tapered = 0.0
            for i in range(n):
                v = E[:, i] + D[:, i]
                mean, _ = expected_quadratic(v, E[:, i], cov)
                err_plain = max(err_plain, abs(mean - f[i]) / f[i])
                mean_t, _ = expected_quadratic(v, H[:, i], cov)
                err_tapered = max(err_tapered, abs(mean_t - f[i]) / f[i])
            results.append(
                CheckResult(f"unbiasedness plain lam={lam} n={n}", err_plain, _TOL_UNBIASED)
            )
            results.append(
                CheckResult(f"unbiasedness tapered lam={lam} n={n}", err_tapered, _TOL_UNBIASED)
            )
    return results


def oracle_report() -> list:
    """Cross-checks between independent oracle routes.

    Expectation closure: the covariance trace form of E[|DFT|^2] must agree
    with the kernel-convolution form on the shipped models.  Extension
    agreement: the closed-form predictive DFT must match brute-force
    prediction over a long horizon.
    """
    results = []
    models = {
        "m1(0.9)": builtin_models("m1", 0.9),
        "m2": builtin_models("m2"),
    }
    for name, model in models.items():
        expansion = arma_expand(model, M=600)
        cov = expansion.autocov
        for n in (8, 20, 50):
            grid = FrequencyGrid.fourier(n)
            E = _dft_rows(np.eye(n), grid)
            err = 0.0
            for i, w in enumerate(grid.frequencies):
                mean, _ = expected_quadratic(E[:, i], E[:, i], cov)
                reference = fejer_expected_periodogram(model.density, n, float(w))
                err = max(err, abs(mean.real - reference) / reference)
            results.append(CheckResult(f"expectation closure {name} n={n}", err, _TOL_CLOSURE))

    rng = np.random.default_rng(20260822)
    for coeffs in ([0.6], [-0.5], [0.5, -0.3], [1.2, -0.5]):
        model = ArmaModel(coeffs, [], 1.0)
        n = 12
        expansion = arma_expand(model, M=n + 2 * 200)
        ts = TimeSeries(rng.standard_normal(n))
        grid = FrequencyGrid.fourier(n)
        closed = ts.values @ predictive_dft_matrix(model, n, grid)
        brute = predictive_dft_bruteforce(ts, expansion.autocov, grid, horizon=200)
        err = float(np.max(np.abs(closed - brute)))
        label = ",".join(repr(a) for a in coeffs)
        results.append(
            CheckResult(f"extension closed-vs-brute ar[{label}]", err, _TOL_EXTENSION)
        )
    return results


def run_suite(which: str = "all") -> list:
    if which == "unbiasedness":
        return unbiasedness_report()
    if which == "oracle":
        return oracle_report()
    if which == "all":
        return unbiasedness_report() + oracle_report()
    raise DomainError(f"unknown verify suite {which!r}")
