import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from predspec import (
    ArmaModel,
    AutoAIC,
    CovarianceSequence,
    DomainError,
    EstimatorSpec,
    ExperimentSpec,
    Explicit,
    FixedOrder,
    FrequencyGrid,
    PeriodogramEstimate,
    PgMeta,
    SpectralMeanConfig,
    TimeSeries,
    acf_estimate,
    aic_select,
    ar_family,
    arma_expand,
    builtin_models,
    expected_quadratic,
    fejer_expected_periodogram,
    finite_predictor_coeffs,
    levinson_durbin,
    predictive_dft_bruteforce,
    predictive_dft_matrix,
    raw_periodogram,
    run_experiment,
    sample_autocov,
    simulate_arma,
    spectral_window,
    split_seed,
    threshold_real,
    tukey_taper,
    whittle_fit,
    yule_walker_fit,
)
from predspec.verify import run_suite


def test_split_seed_frozen_values():
    # frozen so any reimplementation reproduces the same stream assignment
    assert split_seed(0, 0) == 16294208416658607535
    assert split_seed(123, 7) == 8897914972836847537


def test_split_seed_distinct_and_bounded():
    seeds = {split_seed(42, i) for i in range(2000)}
    assert len(seeds) == 2000
    assert all(0 <= s < 2**64 for s in seeds)
    with pytest.raises(DomainError):
        split_seed(1, -1)
    # seeds are [0, 2**64): split_seed works modulo 2**64, so a seed outside
    # would share its streams with one inside
    assert 0 <= split_seed(2**64 - 1, 0) < 2**64
    for seed in (-1, 2**64, 2**64 + 1):
        with pytest.raises(DomainError, match="seed must be"):
            split_seed(seed, 0)


def test_simulate_deterministic():
    m = builtin_models("m1", 0.9)
    a = simulate_arma(m, 50, 7)
    b = simulate_arma(m, 50, 7)
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate_arma(m, 50, 8)
    assert not np.array_equal(a.values, c.values)


def test_simulate_validation():
    m = builtin_models("m1", 0.5)
    with pytest.raises(DomainError):
        simulate_arma(m, 0, 1)
    with pytest.raises(DomainError):
        simulate_arma(m, 10, -1)


def test_simulate_scales_innovations_by_sigma():
    """sigma2 = 4 doubles every innovation, so the path is exactly twice the
    unit-variance path from the same seed."""
    ar, ma = [0.5, -0.3], [0.4]
    unit = simulate_arma(ArmaModel(ar, ma, 1.0), 60, 11).values
    np.testing.assert_array_equal(simulate_arma(ArmaModel(ar, ma, 4.0), 60, 11).values, 2.0 * unit)


def test_simulate_variance_matches_model():
    from predspec import arma_expand

    m = builtin_models("m1", 0.9)
    c0 = arma_expand(m, M=10).autocov.lags[0]
    x = simulate_arma(m, 200_000, 31).values
    assert np.var(x) == pytest.approx(c0, rel=0.02)


def test_experiment_spec_validation():
    m = builtin_models("m1", 0.7)
    est = (EstimatorSpec("regular"),)
    with pytest.raises(DomainError):
        ExperimentSpec(model=m, n=3, replications=10, estimators=est, seed=1)
    with pytest.raises(DomainError):
        ExperimentSpec(model=m, n=20, replications=0, estimators=est, seed=1)
    with pytest.raises(DomainError):
        ExperimentSpec(model=m, n=20, replications=10, estimators=est, seed=1,
                       threshold=-1.0)
    with pytest.raises(DomainError):
        ExperimentSpec(model=m, n=20, replications=10, estimators=est, seed=1,
                       smoothing=("parzen", 2))
    with pytest.raises(DomainError):
        # complete-true always uses the generating model, so a source of the
        # caller's own would be ignored
        ExperimentSpec(model=m, n=20, replications=10, seed=1,
                       estimators=(EstimatorSpec("complete-true", source=Explicit(ArmaModel([0.5], [], 1.0))),))
    with pytest.raises(DomainError):
        # smoothing and ACF mode are mutually exclusive
        ExperimentSpec(model=m, n=20, replications=10, estimators=est, seed=1,
                       smoothing=("daniell", 2), acf_lags=10)
    with pytest.raises(DomainError):
        # 2m + 1 = 7 points of window on a 5-point Fourier grid
        ExperimentSpec(model=m, n=5, replications=10, estimators=est, seed=1,
                       smoothing=("daniell", 3))
    ExperimentSpec(model=m, n=7, replications=10, estimators=est, seed=1,
                   smoothing=("daniell", 3))  # exactly as wide as the grid


_M1 = builtin_models("m1", 0.7)
_TS = TimeSeries(np.sin(np.arange(20.0)))
_COV = CovarianceSequence(0.5 ** np.arange(60.0))
_SPEC = dict(model=_M1, n=20, replications=10, estimators=(EstimatorSpec("regular"),), seed=1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: spectral_window("hann", 2.5),
        lambda: spectral_window("daniell", np.float64(2.0)),
        lambda: ExperimentSpec(**{**_SPEC, "smoothing": ("hann", 2.5)}),
        lambda: ExperimentSpec(**{**_SPEC, "seed": 1.5}),
        lambda: ExperimentSpec(**{**_SPEC, "n": 20.0}),
        lambda: ExperimentSpec(**{**_SPEC, "replications": 10.5}),
        lambda: ExperimentSpec(**{**_SPEC, "acf_lags": 3.0}),
        lambda: ExperimentSpec(**{**_SPEC, "acf_lags": 3, "acf_points": 100.0}),
        lambda: simulate_arma(_M1, 10, 1.5),
        lambda: simulate_arma(_M1, 10.0, 1),
        lambda: split_seed(1.5, 0),
        lambda: split_seed(1, 0.0),
        lambda: arma_expand(_M1, M=3.0),
        lambda: FrequencyGrid.fourier(8.0),
        lambda: FrequencyGrid.uniform(8.5),
        lambda: tukey_taper(20, 2.5),
        lambda: sample_autocov(TimeSeries(np.ones(8)), 2.0),
        lambda: levinson_durbin(CovarianceSequence([1.0, 0.5]), 1.0),
        lambda: yule_walker_fit(TimeSeries(np.sin(np.arange(8.0))), 1.5),
        lambda: aic_select(TimeSeries(np.sin(np.arange(20.0))), max_order=2.5),
        lambda: acf_estimate(_TS, 2.5, EstimatorSpec("regular"), SpectralMeanConfig()),
        lambda: acf_estimate(_TS, True, EstimatorSpec("regular"), SpectralMeanConfig()),
        lambda: ar_family(2.0),
        lambda: ar_family(2.5),
        lambda: SpectralMeanConfig(points=8.5),
        lambda: SpectralMeanConfig("x"),
        lambda: ExperimentSpec(**{**_SPEC, "acf_lags": 3, "acf_points": None}),
        lambda: whittle_fit(_TS, 1.5, EstimatorSpec("regular"), [0.0]),
        lambda: whittle_fit(_TS, 1, EstimatorSpec("regular"), ["a"]),
        lambda: run_experiment(ExperimentSpec(**_SPEC), threads=2.5),
        lambda: run_experiment(ExperimentSpec(**_SPEC), threads=True),
        lambda: run_experiment(ExperimentSpec(**_SPEC), threads="4"),
        lambda: predictive_dft_matrix(ArmaModel([0.5], [], 1.0), 2.5, FrequencyGrid.fourier(4)),
        lambda: finite_predictor_coeffs(_COV, 4.5, 0),
        lambda: finite_predictor_coeffs(_COV, 4, 0.5),
        lambda: predictive_dft_bruteforce(_TS, _COV, FrequencyGrid.fourier(20), horizon=2.5),
        lambda: fejer_expected_periodogram(_M1.density, 2.5, 1.0),
        lambda: fejer_expected_periodogram(_M1.density, 20, 1.0, quadrature_points=4096.0),
        lambda: _COV.toeplitz(2.5),
        lambda: _COV.upto(2.0),
    ],
    ids=["window-m", "window-m-float64", "smoothing-m", "seed", "n", "replications",
         "acf-lags", "acf-points", "simulate-seed", "simulate-n", "split-seed", "split-index",
         "expand-M", "fourier-size", "uniform-size", "tukey-d", "autocov-lag",
         "levinson-order", "yule-walker-order", "aic-max-order", "acf-lags-float", "acf-lags-bool",
         "family-order-2.0", "family-order-2.5", "riemann-points", "riemann-points-str",
         "acf-points-none", "whittle-order", "whittle-init-str", "threads-float", "threads-bool",
         "threads-str",
         "dft-matrix-n", "predictor-n", "predictor-tau", "bruteforce-horizon", "fejer-n",
         "fejer-points", "toeplitz-n", "upto-lag"],
)
def test_non_integer_parameters_rejected(call):
    with pytest.raises(DomainError, match="must be an integer|must be a sequence of numbers"):
        call()


_PG = raw_periodogram(_TS, FrequencyGrid.fourier(20))


@pytest.mark.parametrize(
    "call",
    [
        lambda: threshold_real(_PG, "a"),
        lambda: threshold_real(_PG, [1e-3]),
        lambda: threshold_real(_PG, True),
        lambda: acf_estimate(_TS, 2, EstimatorSpec("regular"), SpectralMeanConfig(threshold=[1e-3])),
        lambda: SpectralMeanConfig(threshold=-1.0),
        lambda: ArmaModel([0.5], [], True),
        lambda: ArmaModel([0.5], [], "x"),
        lambda: ArmaModel([0.5], [], [1.0]),
        lambda: builtin_models("m1", "0.5"),
        lambda: PeriodogramEstimate(_PG.grid, _PG.values, "thresholded-real", PgMeta(threshold="a")),
    ],
    ids=["threshold-str", "threshold-list", "threshold-bool", "mean-config-threshold-list",
         "mean-config-threshold-negative", "ar-sigma2-bool", "ar-sigma2-str", "arma-sigma2-list",
         "m1-lambda-str", "recorded-threshold-str"],
)
def test_non_positive_numbers_rejected(call):
    with pytest.raises(DomainError, match="must be a positive finite number"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: expected_quadratic(["a"], ["b"], _COV),
        lambda: expected_quadratic([np.nan, 1.0], [1.0, 1.0], _COV),
        lambda: expected_quadratic([1.0, 1.0], [1.0, np.inf], _COV),
        lambda: expected_quadratic([[1.0, 1.0]], [[1.0, 1.0]], _COV),
        lambda: fejer_expected_periodogram(_M1.density, 20, "x"),
        lambda: fejer_expected_periodogram(_M1.density, 20, np.nan),
        lambda: fejer_expected_periodogram(_M1.density, 20, [1.0, 2.0]),
    ],
    ids=["quadratic-str", "quadratic-nan", "quadratic-inf", "quadratic-2d", "fejer-omega-str",
         "fejer-omega-nan", "fejer-omega-list"],
)
def test_non_finite_or_non_numeric_values_rejected(call):
    with pytest.raises(DomainError, match="array of numbers|must be finite|1-d array"):
        call()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: Explicit([0.5]), "must be an ArmaModel"),
        (lambda: simulate_arma([0.5], 10, 0), "must be an ArmaModel"),
        (lambda: arma_expand([0.5]), "must be an ArmaModel"),
        (lambda: ExperimentSpec(**{**_SPEC, "model": [0.5]}), "must be an ArmaModel"),
    ],
    ids=["explicit-ar", "simulate-ar", "expand-ar", "experiment-ar"],
)
def test_wrong_model_type_rejected(call, match):
    with pytest.raises(DomainError, match=match):
        call()


@pytest.mark.parametrize(
    "changes",
    [
        {"model": "m1"},
        {"smoothing": ("hann",)},
        {"smoothing": ("hann", 2, 3)},
        {"smoothing": 2},
        {"threshold": "a"},
        {"threshold": True},
        {"estimators": EstimatorSpec("regular")},
        {"estimators": ("regular",)},
        # sources that check their integers when built, so the changes are
        # made inside the check, before any block is simulated
        lambda: {"estimators": (EstimatorSpec("complete", source=FixedOrder(-1)),)},
        lambda: {"estimators": (EstimatorSpec("complete", source=FixedOrder(True)),)},
        lambda: {"estimators": (EstimatorSpec("complete", source=FixedOrder(2.0)),)},
        lambda: {"estimators": (EstimatorSpec("complete", source=AutoAIC(max_order="x")),)},
        lambda: {"estimators": (EstimatorSpec("complete", source=AutoAIC(max_order=0)),)},
        {"seed": -1},
        {"seed": 2**64},
        {"acf_lags": 20},
    ],
    ids=["model-str", "smoothing-single", "smoothing-triple", "smoothing-int", "threshold-str",
         "threshold-bool", "estimators-single-spec", "estimators-kind-names",
         "fixed-order-negative", "fixed-order-bool", "fixed-order-float", "max-order-str",
         "max-order-zero", "seed-negative", "seed-2**64", "acf-lags-n"],
)
def test_malformed_experiment_spec_rejected(changes):
    with pytest.raises(DomainError):
        ExperimentSpec(**{**_SPEC, **(changes() if callable(changes) else changes)})


_NOISE = TimeSeries(np.random.default_rng(5).standard_normal(8))


# Each upper bound is stated once, by `_integer(..., below=)`: one less passes
# and the bound itself raises, at every site that takes one.
@pytest.mark.parametrize(
    "call, below, name",
    [
        (lambda v: sample_autocov(_NOISE, v), 8, "max_lag"),
        (lambda v: yule_walker_fit(_NOISE, v), 8, "order"),
        (lambda v: aic_select(_NOISE, max_order=v), 7, "max_order"),
        (lambda v: acf_estimate(_NOISE, v, EstimatorSpec("regular"), SpectralMeanConfig()), 8, "lag count"),
        (lambda v: whittle_fit(_NOISE, v, EstimatorSpec("regular")), 8, "family order"),
        (lambda v: ExperimentSpec(**{**_SPEC, "acf_lags": v}), 20, "acf_lags"),
        (lambda v: ExperimentSpec(**{**_SPEC, "seed": v}), 2**64, "seed"),
        (lambda v: split_seed(v, 0), 2**64, "seed"),
    ],
    ids=["autocov-lag", "yule-walker-order", "aic-max-order", "acf-lags", "whittle-order",
         "experiment-acf-lags", "experiment-seed", "split-seed"],
)
def test_upper_bounds_admit_one_less(call, below, name):
    call(below - 1)
    with pytest.raises(DomainError, match=f"{name} must be < {below}, got {below}"):
        call(below)


def test_integer_like_parameters_accepted():
    spec = ExperimentSpec(**{**_SPEC, "n": np.int64(20), "seed": np.uint64(1),
                             "smoothing": ("hann", np.int32(2))})
    assert type(spec.n) is int and type(spec.seed) is int and spec.smoothing == ("hann", 2)
    assert spectral_window("hann", np.int64(2)).m == 2
    # a source keys the fits a series keeps, so it holds the converted int
    assert type(FixedOrder(np.int64(2)).p) is int and FixedOrder(np.int64(2)) == FixedOrder(2)
    assert type(AutoAIC(np.int32(3)).max_order) is int and AutoAIC(np.int32(3)) == AutoAIC(3)
    np.testing.assert_array_equal(simulate_arma(_M1, np.int64(10), np.int64(1)).values,
                                  simulate_arma(_M1, 10, 1).values)


def test_verify_unknown_suite_is_domain_error():
    with pytest.raises(DomainError, match="unknown verify suite"):
        run_suite("bogus")


def test_experiment_thread_count_invariance():
    """Bit-identical metric tables regardless of worker count, in the
    periodogram, smoothed and ACF modes."""
    for mode in ({}, {"smoothing": ("bartlett", 2)}, {"acf_lags": 5}):
        spec = ExperimentSpec(
            model=builtin_models("m1", 0.9),
            n=16,
            replications=40,
            estimators=(
                EstimatorSpec("regular"),
                EstimatorSpec("complete-true"),
                EstimatorSpec("complete"),
            ),
            seed=99,
            **mode,
        )
        t1 = run_experiment(spec, threads=1)
        t4 = run_experiment(spec, threads=4)
        assert t1.mode == t4.mode
        for r1, r4 in zip(t1.rows, t4.rows):
            assert r1.estimator == r4.estimator
            assert r1.imse == r4.imse
            assert r1.ibias == r4.ibias
            assert r1.imse_se == r4.imse_se
            assert r1.ibias_se == r4.ibias_se
            if "acf_lags" in mode:
                np.testing.assert_array_equal(r1.per_lag_mse, r4.per_lag_mse)
                np.testing.assert_array_equal(r1.per_lag_bias, r4.per_lag_bias)


# One experiment table and three AR(3) Whittle fits, hashed.  The fits'
# objective contracts a complex phase table with np.inner, the one BLAS call
# left in their search.
_BLAS_SCRIPT = """
import hashlib
import numpy as np
import predspec as ps

E = ps.EstimatorSpec
table = ps.run_experiment(ps.ExperimentSpec(
    model=ps.builtin_models("m1", 0.7), n=300, replications=64, seed=11,
    estimators=(E("regular"), E("complete-true"), E("complete"), E("tapered-complete"))))
digest = hashlib.sha256()
for row in table.rows:
    digest.update(np.array([row.imse, row.ibias, row.imse_se, row.ibias_se]).tobytes())
for seed, n in ((1, 200), (2, 333), (3, 480)):
    ts = ps.simulate_arma(ps.builtin_models("m2"), n, seed).center()
    fit = ps.whittle_fit(ts, 3, E("complete"), [0.1] * 3,
                         ps.SpectralMeanConfig(threshold=1e-3))
    digest.update(fit.theta.tobytes() + np.array([fit.value, fit.converged]).tobytes())
    for theta, value in fit.trace:
        digest.update(theta.tobytes() + np.float64(value).tobytes())
print(digest.hexdigest())
"""


def test_blas_thread_count_invariance():
    """The same bits with one OpenBLAS thread and with the library's default."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    digests = [
        subprocess.run([sys.executable, "-c", _BLAS_SCRIPT], env=env, check=True,
                       capture_output=True, text=True).stdout
        for env in ({**base, "OPENBLAS_NUM_THREADS": "1"}, base)
    ]
    assert len(digests[0]) > 64 and digests[0] == digests[1]


# Tables of m1 (lambda = 0.8), seed 2024, B = 70 (full blocks of
# replications and a part block), with every estimator kind, a fixed-order
# fit and an explicit taper rise; rows hold (imse, ibias, imse_se, ibias_se).
# The values were produced by the per-replication runner that evaluated each
# series through `evaluate_estimator`.  A change to the random streams moves
# them near 1e-2; reassociated sums move them near 1e-15.
_GOLDEN_ESTIMATORS = (
    EstimatorSpec("regular"),
    EstimatorSpec("tapered", taper_d=3),
    EstimatorSpec("complete-true"),
    EstimatorSpec("complete"),
    EstimatorSpec("tapered-complete"),
    EstimatorSpec("complete", source=FixedOrder(2)),
)
_GOLDEN_MODES = {
    "periodogram": dict(n=24),
    "smoothed": dict(n=30, smoothing=("hann", 2)),
    "acf": dict(n=20, acf_lags=5, acf_points=64),
}
_GOLDEN_TABLES = {
    "periodogram": [
        (1.5928056319659518, 0.05638161317256868, 0.14655724205767207, 0.02182415541952388),
        (1.4898499151750466, 0.045946276248659705, 0.15229133789952956, 0.017954289804133026),
        (1.2134121362350732, 0.011513033685281745, 0.09888988780674093, 0.008205440947525854),
        (1.2537791191696066, 0.01462294564155533, 0.1050955256434429, 0.009284838597884855),
        (1.3041546099370502, 0.015629836380275253, 0.1293469165840538, 0.010130639478846258),
        (1.2587132044830296, 0.015005851545660927, 0.1039319878072145, 0.009607878344633072),
    ],
    "smoothed": [
        (0.5955584689938554, 0.05534010463137222, 0.055284100935206436, 0.016347555934495567),
        (0.6025883154970239, 0.05367509303474343, 0.057641438360021884, 0.015564811070021051),
        (0.4934837514155927, 0.021235164687439592, 0.04281768089781875, 0.0075011929227862114),
        (0.5204265711445787, 0.022858332827414604, 0.04633695937377896, 0.008149120389786737),
        (0.5442444435157461, 0.02455340541799033, 0.05179707985620746, 0.009207006370339372),
        (0.5140741881436668, 0.023418676055595215, 0.04460505817007003, 0.008279945690978494),
    ],
    "acf": [
        (0.0388144848806394, 0.005081550250559326, 0.00390885665190522, 0.0017604899033223465),
        (0.04199496911844356, 0.004403638447217555, 0.004404710487728016, 0.0017017926614048037),
        (0.035939684744471345, 0.0010091908946387221, 0.003544258753857559, 0.000805166845205452),
        (0.04203038797909766, 0.0016248787113480971, 0.00407914721440228, 0.0011170624882316923),
        (0.043229817423737917, 0.001455378704577512, 0.004191819240160474, 0.0010566859125395122),
        (0.04086346688405419, 0.0016684707404961013, 0.0038556819711076645, 0.0011234868602434383),
    ],
}


@pytest.mark.parametrize("mode", sorted(_GOLDEN_MODES))
def test_experiment_golden_tables(mode):
    spec = ExperimentSpec(model=builtin_models("m1", 0.8), replications=70,
                          estimators=_GOLDEN_ESTIMATORS, seed=2024, **_GOLDEN_MODES[mode])
    table = run_experiment(spec)
    assert table.mode == mode
    got = [(r.imse, r.ibias, r.imse_se, r.ibias_se) for r in table.rows]
    np.testing.assert_allclose(got, _GOLDEN_TABLES[mode], rtol=1e-12, atol=0.0)
    # a second run of the same spec reproduces the table bit for bit
    again = run_experiment(spec)
    assert [(r.imse, r.ibias, r.imse_se, r.ibias_se) for r in again.rows] == got
    for r1, r2 in zip(table.rows, again.rows):
        np.testing.assert_array_equal(r1.per_lag_mse, r2.per_lag_mse)


def _row_fields(row):
    return (row.estimator, row.imse, row.ibias, row.imse_se, row.ibias_se,
            None if row.per_lag_mse is None else row.per_lag_mse.tolist(),
            None if row.per_lag_bias is None else row.per_lag_bias.tolist())


@pytest.mark.parametrize("mode", sorted(_GOLDEN_MODES))
def test_experiment_row_independent_of_other_estimators(mode):
    """Estimators of one experiment share DFTs, tapers and fits within each
    block; every row must still equal the row of an experiment that runs its
    estimator alone, bit for bit."""
    estimators = _GOLDEN_ESTIMATORS + (
        EstimatorSpec("tapered"),
        EstimatorSpec("tapered-complete", taper_d=3),
        EstimatorSpec("complete", source=AutoAIC(max_order=1)),
        EstimatorSpec("tapered-complete", source=FixedOrder(1)),
    )
    base = dict(model=builtin_models("m1", 0.8), replications=40, seed=7, **_GOLDEN_MODES[mode])
    table = run_experiment(ExperimentSpec(estimators=estimators, **base))
    assert len(table.rows) == len(estimators)
    for est, row in zip(estimators, table.rows):
        alone = run_experiment(ExperimentSpec(estimators=(est,), **base))
        assert _row_fields(row) == _row_fields(alone.rows[0])


def test_experiment_stage_seconds():
    spec = ExperimentSpec(model=builtin_models("m1", 0.8), replications=70,
                          estimators=_GOLDEN_ESTIMATORS, seed=3, n=24, smoothing=("hann", 2))
    table = run_experiment(spec)
    stages = table.stage_seconds
    assert list(stages) == ["simulate", "estimate", "reduce", "summarize"]
    assert all(seconds >= 0.0 for seconds in stages.values())
    assert sum(stages.values()) <= table.runtime_seconds


def test_experiment_single_replication_degenerate():
    # at B=1 the bias and MSE definitions coincide
    spec = ExperimentSpec(
        model=builtin_models("m1", 0.7),
        n=12,
        replications=1,
        estimators=(EstimatorSpec("regular"),),
        seed=5,
    )
    table = run_experiment(spec)
    row = table.rows[0]
    assert row.imse == pytest.approx(row.ibias, rel=1e-12)
    assert np.isnan(row.imse_se)  # no spread to estimate from one draw


def test_experiment_b1_regular_matches_hand_computation():
    spec = ExperimentSpec(
        model=builtin_models("m1", 0.7),
        n=12,
        replications=1,
        estimators=(EstimatorSpec("regular"),),
        seed=5,
    )
    table = run_experiment(spec)
    ts = simulate_arma(spec.model, 12, split_seed(5, 0))
    grid = FrequencyGrid.fourier(12)
    rel = raw_periodogram(ts, grid).values.real / spec.model.density(grid.frequencies)
    assert table.rows[0].imse == pytest.approx(np.mean((rel - 1.0) ** 2), rel=1e-12)


def test_experiment_true_density_double_scores_zero():
    # replacing every replication's estimate by the target density zeroes
    # both metrics: exercises the reducer without the estimator stack
    from predspec.simulation import _Prep, _summarize

    spec = ExperimentSpec(
        model=builtin_models("m1", 0.7),
        n=10,
        replications=4,
        estimators=(EstimatorSpec("regular"),),
        seed=2,
    )
    prep = _Prep(spec)
    slots = [np.tile(prep.true_target, (4, 1))]
    rows = _summarize(spec, prep, slots)
    assert rows[0].imse == 0.0
    assert rows[0].ibias == 0.0


def test_experiment_complete_true_needs_an_ar_model():
    spec = ExperimentSpec(
        model=builtin_models("m2"),
        n=20,
        replications=2,
        estimators=(EstimatorSpec("complete-true"),),
        seed=1,
    )
    with pytest.raises(DomainError):
        run_experiment(spec)


def test_experiment_complete_true_ibias_shrinks_in_b():
    m = builtin_models("m1", 0.9)
    vals = []
    for B in (100, 1000, 5000):
        spec = ExperimentSpec(
            model=m, n=20, replications=B,
            estimators=(EstimatorSpec("complete-true"),), seed=3,
        )
        vals.append(run_experiment(spec, threads=4).rows[0].ibias)
    assert vals[0] > vals[1] > vals[2]


def test_experiment_acf_mode_outputs():
    spec = ExperimentSpec(
        model=builtin_models("m1", 0.9),
        n=20,
        replications=30,
        estimators=(EstimatorSpec("regular"), EstimatorSpec("complete")),
        seed=11,
        acf_lags=10,
    )
    table = run_experiment(spec)
    assert table.mode == "acf"
    for row in table.rows:
        assert row.per_lag_mse.shape == (10,)
        assert row.per_lag_bias.shape == (10,)
        assert row.imse == pytest.approx(np.mean(row.per_lag_mse), rel=1e-12)
        assert row.ibias == pytest.approx(np.mean(row.per_lag_bias), rel=1e-12)
    assert table.runtime_seconds > 0


def test_experiment_smoothing_mode_label():
    spec = ExperimentSpec(
        model=builtin_models("m2"),
        n=16,
        replications=5,
        estimators=(EstimatorSpec("regular"),),
        seed=4,
        smoothing=("bartlett", 2),
    )
    assert run_experiment(spec).mode == "smoothed"


def test_estimator_labels_in_rows():
    spec = ExperimentSpec(
        model=builtin_models("m1", 0.7),
        n=16,
        replications=3,
        estimators=(
            EstimatorSpec("regular"),
            EstimatorSpec("tapered", taper_d=3),
            EstimatorSpec("tapered-complete"),
        ),
        seed=6,
    )
    names = [row.estimator for row in run_experiment(spec).rows]
    assert names == ["regular", "tapered(d=3)", "tapered-complete"]
