"""Acceptance gate.

One test per criterion, each asserting its stated tolerance and runtime
budget, plus the small-sample-to-large-sample bias trend check.  Monte Carlo
criteria run fixed seeds, so every number here is bit-reproducible.
"""
import time

import numpy as np
import pytest
import scipy.linalg

from predspec import (
    EstimatorSpec,
    Explicit,
    ExperimentSpec,
    FrequencyGrid,
    TimeSeries,
    arma_expand,
    builtin_models,
    complete_periodogram,
    evaluate_estimator,
    expected_quadratic,
    fejer_expected_periodogram,
    predictive_dft,
    predictive_dft_bruteforce,
    run_experiment,
    simulate_arma,
    split_seed,
    threshold_real,
)
from predspec.arfit import ArmaModel
from predspec.verify import unbiasedness_report

SEED = 3  # fixed acceptance seed for every Monte Carlo table


def _phase(n, w):
    return np.exp(1j * np.arange(1, n + 1) * w) / np.sqrt(n)


def test_criterion_1_exact_unbiasedness():
    t0 = time.perf_counter()
    results = [r for r in unbiasedness_report() if r.name.startswith("unbiasedness plain")]
    elapsed = time.perf_counter() - t0
    assert len(results) == 9
    worst = max(r.error for r in results)
    assert worst < 1e-9
    assert elapsed < 5.0
    print(f"criterion 1 PASS: plain complete periodogram exactly unbiased, "
          f"max rel err {worst:.2e} over 9 (lambda, n) pairs [{elapsed:.1f}s]")


def test_criterion_2_tapered_exact_unbiasedness():
    t0 = time.perf_counter()
    results = [r for r in unbiasedness_report() if r.name.startswith("unbiasedness tapered")]
    elapsed = time.perf_counter() - t0
    assert len(results) == 9
    worst = max(r.error for r in results)
    assert worst < 1e-9
    assert elapsed < 5.0
    print(f"criterion 2 PASS: tapered complete periodogram exactly unbiased, "
          f"max rel err {worst:.2e} [{elapsed:.1f}s]")


def test_criterion_3_regular_periodogram_bias():
    t0 = time.perf_counter()
    model = builtin_models("m1", 0.9)
    n, w = 20, np.pi / 2
    f = float(model.density(np.array([w]))[0])
    assert f == pytest.approx(27.7008, abs=5e-4)
    cov = arma_expand(model, M=n + 8).autocov
    v = _phase(n, w)
    trace_route, _ = expected_quadratic(v, v, cov)
    fejer_route = fejer_expected_periodogram(model.density, n, w)
    elapsed = time.perf_counter() - t0
    assert fejer_route == pytest.approx(trace_route.real, rel=1e-6)
    assert trace_route.real < 0.8 * f  # the leakage deficit exceeds 20%
    assert elapsed < 2.0
    print(f"criterion 3 PASS: E[I_20(pi/2)] = {trace_route.real:.3f} via both routes, "
          f"{trace_route.real / f:.1%} of f = {f:.3f} [{elapsed:.1f}s]")


def _density_error_cell(lam, n):
    spec = ExperimentSpec(
        model=builtin_models("m1", lam),
        n=n,
        replications=5000,
        estimators=(
            EstimatorSpec("regular"),
            EstimatorSpec("complete-true"),
            EstimatorSpec("complete"),
        ),
        seed=SEED,
    )
    t0 = time.perf_counter()
    table = run_experiment(spec, threads=4)
    return {row.estimator: row for row in table.rows}, time.perf_counter() - t0


def test_criterion_4_density_error_tables():
    rows20, t20 = _density_error_cell(0.9, 20)
    assert abs(rows20["regular"].imse - 2.184) <= 0.10
    assert abs(rows20["regular"].ibias - 0.152) <= 0.02
    assert rows20["complete-true"].ibias < 0.005
    assert abs(rows20["complete"].ibias - 0.009) <= 0.01
    assert rows20["complete-true"].ibias < rows20["regular"].ibias
    assert rows20["complete"].ibias < rows20["regular"].ibias
    assert t20 < 60.0

    rows300, t300 = _density_error_cell(0.7, 300)
    assert abs(rows300["regular"].imse - 1.014) <= 0.03
    assert rows300["complete-true"].ibias < rows300["regular"].ibias
    assert rows300["complete"].ibias < rows300["regular"].ibias
    assert t300 < 60.0
    print(
        "criterion 4 PASS: n=20 Regular IMSE "
        f"{rows20['regular'].imse:.3f} (target 2.184+-0.10), IBIAS "
        f"{rows20['regular'].ibias:.3f} (0.152+-0.02); CompleteTrue IBIAS "
        f"{rows20['complete-true'].ibias:.4f} (<0.005); CompleteEst IBIAS "
        f"{rows20['complete'].ibias:.4f} (0.009+-0.01); n=300 Regular IMSE "
        f"{rows300['regular'].imse:.3f} (1.014+-0.03) [{t20:.0f}s + {t300:.0f}s]"
    )


def test_criterion_5_smoothed_density_errors():
    t0 = time.perf_counter()
    tables = {}
    for window in ("bartlett", "hann"):
        spec = ExperimentSpec(
            model=builtin_models("m2"),
            n=50,
            replications=5000,
            estimators=(
                EstimatorSpec("regular"),
                EstimatorSpec("tapered"),
                EstimatorSpec("complete"),
                EstimatorSpec("tapered-complete"),
            ),
            seed=SEED,
            smoothing=(window, 2),
        )
        tables[window] = {row.estimator: row for row in run_experiment(spec, threads=4).rows}
    elapsed = time.perf_counter() - t0

    bart = tables["bartlett"]
    ratio = bart["regular"].imse / bart["tapered-complete"].imse
    assert ratio > 50
    assert 0.5 <= bart["tapered-complete"].imse <= 1.2
    for est in bart:
        for field in ("imse", "ibias"):
            b = getattr(bart[est], field)
            h = getattr(tables["hann"][est], field)
            assert abs(b - h) <= 1e-12 * max(1.0, abs(b))
    assert elapsed < 120.0
    print(
        "criterion 5 PASS: smoothed M2 n=50 m=2 Regular IMSE "
        f"{bart['regular'].imse:.1f}, TaperedComplete IMSE "
        f"{bart['tapered-complete'].imse:.3f} (ratio {ratio:.0f} > 50); "
        f"Bartlett == Hann rows [{elapsed:.0f}s]"
    )


def test_criterion_6_acf_error_table():
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        model=builtin_models("m1", 0.9),
        n=20,
        replications=5000,
        estimators=(EstimatorSpec("regular"), EstimatorSpec("complete")),
        seed=SEED,
        acf_lags=10,
    )
    rows = {row.estimator: row for row in run_experiment(spec, threads=4).rows}
    elapsed = time.perf_counter() - t0
    assert abs(rows["regular"].ibias - 0.023) <= 0.005
    assert abs(rows["complete"].ibias - 0.008) <= 0.004
    assert rows["complete"].ibias < rows["regular"].ibias
    assert elapsed < 120.0
    print(
        "criterion 6 PASS: ACF BIAS Regular "
        f"{rows['regular'].ibias:.4f} (0.023+-0.005), CompleteEst "
        f"{rows['complete'].ibias:.4f} (0.008+-0.004) [{elapsed:.0f}s]"
    )


def test_criterion_7_quadratic_form_identity():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(2718)
    for coeffs in ([0.6], [0.5, -0.3]):
        model = ArmaModel(coeffs, [], 1.0)
        for n in (8, 16, 32):
            grid = FrequencyGrid.fourier(n)
            dens = model.density(grid.frequencies)
            cov = arma_expand(model, M=n + 4).autocov
            Gamma = cov.toeplitz(n)
            cho = scipy.linalg.cho_factor(Gamma)
            for _ in range(100):
                x = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
                ts = TimeSeries(x)
                pg = complete_periodogram(ts, Explicit(model), grid)
                lhs = float(np.mean(pg.values / dens).real)
                rhs = float(x @ scipy.linalg.cho_solve(cho, x)) / n
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-7
    assert elapsed < 10.0
    print(f"criterion 7 PASS: spectral mean of I_complete/f equals the Toeplitz "
          f"quadratic form pathwise, max rel err {worst:.2e} over 600 series [{elapsed:.1f}s]")


def test_criterion_8_predictive_dft_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    horizon = 200
    worst = 0.0
    done = 0
    while done < 50:
        p = int(rng.integers(1, 3))
        coeffs = np.array([])
        for _ in range(p):
            k = rng.uniform(-0.75, 0.75)
            coeffs = np.append(coeffs - k * coeffs[::-1], k)
        roots = np.abs(np.roots(np.concatenate(([1.0], -coeffs)))) if p else []
        if p and np.max(roots) > 0.88:
            continue  # keep the geometric tail below the 1e-8 gate
        model = ArmaModel(coeffs, [], 1.0)
        n = int(rng.integers(4, 17))
        ts = TimeSeries(rng.standard_normal(n))
        grid = FrequencyGrid.fourier(n)
        cov = arma_expand(model, M=n + 2 * horizon).autocov
        closed = predictive_dft(ts, Explicit(model), grid)
        brute = predictive_dft_bruteforce(ts, cov, grid, horizon=horizon)
        worst = max(worst, float(np.max(np.abs(closed - brute))))
        done += 1
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 10.0
    print(f"criterion 8 PASS: closed-form vs brute-force predictive DFT, "
          f"max sup diff {worst:.2e} over 50 AR instances [{elapsed:.1f}s]")


def test_criterion_9_property_suites():
    import test_properties as props

    t0 = time.perf_counter()
    cases = 0
    for name, count in (
        ("test_parseval_250_cases", 250),
        ("test_hermitian_symmetry_250_cases", 250),
        ("test_window_normalization_200_cases", 200),
        ("test_thresholded_acf_positive_definite_100_cases", 100),
        ("test_levinson_vs_dense_150_cases", 150),
        ("test_aic_determinism_100_cases", 100),
        ("test_sample_autocov_psd_50_cases", 50),
    ):
        getattr(props, name)()
        cases += count
    elapsed = time.perf_counter() - t0
    assert cases >= 1000
    assert elapsed < 30.0
    print(f"criterion 9 PASS: {cases} randomized property cases, zero failures "
          f"[{elapsed:.1f}s]")


def test_trend_estimated_complete_bias_decays_faster():
    """At pi/2 the AIC-fitted complete periodogram's bias sits below the
    regular periodogram's exact Fejer bias for every n, with a shrinking
    ratio: the qualitative content of the asymptotic rate claims."""
    t0 = time.perf_counter()
    model = builtin_models("m1", 0.9)
    w = np.pi / 2
    f = float(model.density(np.array([w]))[0])
    grid = FrequencyGrid.explicit(np.array([w]))
    est = EstimatorSpec("complete")
    ratios = []
    for n, B in ((20, 5000), (50, 5000), (300, 20000)):
        bias_reg = abs(fejer_expected_periodogram(model.density, n, w) - f)
        vals = np.empty(B)
        for b in range(B):
            ts = simulate_arma(model, n, split_seed(12345, b))
            pg = evaluate_estimator(ts, est, grid)
            vals[b] = threshold_real(pg, 1e-3).values.real[0]
        bias_est = abs(vals.mean() - f)
        assert bias_est < bias_reg
        ratios.append(bias_est / bias_reg)
    elapsed = time.perf_counter() - t0
    assert ratios[0] > ratios[1] > ratios[2]
    print(f"trend PASS: estimated-complete/regular bias ratio at pi/2 falls "
          f"{ratios[0]:.3f} -> {ratios[1]:.3f} -> {ratios[2]:.3f} over n=20,50,300 "
          f"[{elapsed:.0f}s]")
