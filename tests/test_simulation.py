import numpy as np
import pytest

from predspec import (
    DomainError,
    EstimatorSpec,
    ExperimentSpec,
    FrequencyGrid,
    builtin_models,
    raw_periodogram,
    run_experiment,
    simulate_arma,
    split_seed,
)


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
        # smoothing and ACF mode are mutually exclusive
        ExperimentSpec(model=m, n=20, replications=10, estimators=est, seed=1,
                       smoothing=("daniell", 2), acf_lags=10)
    with pytest.raises(DomainError):
        # 2m + 1 = 7 points of window on a 5-point Fourier grid
        ExperimentSpec(model=m, n=5, replications=10, estimators=est, seed=1,
                       smoothing=("daniell", 3))
    ExperimentSpec(model=m, n=7, replications=10, estimators=est, seed=1,
                   smoothing=("daniell", 3))  # exactly as wide as the grid


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


def test_experiment_complete_true_needs_pure_ar():
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
