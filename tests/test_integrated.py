import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from predspec import (
    ArmaModel,
    DomainError,
    EstimatorSpec,
    ExperimentSpec,
    Explicit,
    FrequencyGrid,
    NumericalError,
    SpectralMeanConfig,
    SpectralWindow,
    TimeSeries,
    acf_estimate,
    ar_family,
    arma_expand,
    builtin_models,
    complete_periodogram,
    evaluate_estimator,
    raw_periodogram,
    sample_autocov,
    simulate_arma,
    smooth_periodogram,
    spectral_mean,
    spectral_window,
    threshold_real,
    whittle_fit,
)
from predspec import arfit
from predspec.arfit import _transfer_polynomial, _yule_walker_rows
from predspec.integrated import _KAPPA_BOUND


# ------------------------------------------------------------------ windows

def test_spectral_window_frozen_values():
    np.testing.assert_allclose(spectral_window("daniell", 2).weights, [0.2] * 5)
    np.testing.assert_allclose(
        spectral_window("bartlett", 2).weights, [0.0, 0.25, 0.5, 0.25, 0.0]
    )
    np.testing.assert_allclose(
        spectral_window("hann", 2).weights, [0.0, 0.25, 0.5, 0.25, 0.0], atol=1e-15
    )


def test_bartlett_equals_hann_at_m2():
    b = spectral_window("bartlett", 2).weights
    h = spectral_window("hann", 2).weights
    np.testing.assert_allclose(b, h, atol=1e-15)


@pytest.mark.parametrize("kind", ["daniell", "bartlett", "hann"])
@pytest.mark.parametrize("m", [1, 2, 3, 7, 20])
def test_spectral_window_normalized_symmetric(kind, m):
    w = spectral_window(kind, m).weights
    assert w.shape == (2 * m + 1,)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(w, w[::-1], atol=1e-15)
    assert np.all(w >= 0)


def test_spectral_window_rejects_m0():
    with pytest.raises(DomainError):
        spectral_window("daniell", 0)
    with pytest.raises(DomainError):
        spectral_window("parzen", 2)


def test_window_half_width_is_checked_before_its_weights(tmp_path):
    """A half-width far too wide for the series is rejected before the
    O(m) weights are built, by the CLI and by ExperimentSpec."""
    import tracemalloc

    from predspec.cli import main

    src = tmp_path / "x.csv"
    src.write_text("\n".join(map(repr, np.sin(np.arange(300.0)))) + "\n")
    m = 2_000_000  # 16 MB per array of weights
    tracemalloc.start()
    try:
        assert main(["smooth", str(src), "--window", "daniell", "--m", str(m)]) == 2
        with pytest.raises(DomainError, match="window half-width m must be < 25"):
            ExperimentSpec(model=builtin_models("m1", 0.7), n=50, replications=1,
                           estimators=[EstimatorSpec("regular")], seed=0, smoothing=("daniell", m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------- smoothing

def _impulse_pg(n, at, value=1.0):
    vals = np.zeros(n, dtype=complex)
    vals[at] = value
    from predspec import PeriodogramEstimate, PgMeta

    return PeriodogramEstimate(FrequencyGrid.fourier(n), vals, "complete", PgMeta(order=1))


def test_smooth_impulse_hand_convolution():
    pg = _impulse_pg(8, 4)
    sm = smooth_periodogram(pg, spectral_window("daniell", 1))
    want = np.zeros(8)
    want[[3, 4, 5]] = 1 / 3
    np.testing.assert_allclose(sm.values.real, want, atol=1e-15)


def test_smooth_wraparound():
    pg = _impulse_pg(8, 0)
    sm = smooth_periodogram(pg, spectral_window("daniell", 1))
    want = np.zeros(8)
    want[[7, 0, 1]] = 1 / 3
    np.testing.assert_allclose(sm.values.real, want, atol=1e-15)


def _constant_pg(n):
    from predspec import PeriodogramEstimate, PgMeta

    return PeriodogramEstimate(
        FrequencyGrid.fourier(n), np.ones(n, dtype=complex), "complete", PgMeta(order=1)
    )


def test_smooth_preserves_mean_and_constant():
    rng = np.random.default_rng(14)
    ts = TimeSeries(rng.standard_normal(32))
    pg = raw_periodogram(ts, FrequencyGrid.fourier(32))
    sm = smooth_periodogram(pg, spectral_window("bartlett", 4))
    assert sm.values.real.mean() == pytest.approx(pg.values.real.mean(), rel=1e-12)

    flat = smooth_periodogram(_constant_pg(8), spectral_window("hann", 2))
    np.testing.assert_allclose(flat.values.real, 1.0, atol=1e-14)


def test_smooth_requires_fourier_grid_and_small_m():
    from predspec import PeriodogramEstimate, PgMeta

    pg = PeriodogramEstimate(
        FrequencyGrid.uniform(8), np.ones(8, dtype=complex), "complete", PgMeta()
    )
    with pytest.raises(DomainError):
        smooth_periodogram(pg, spectral_window("daniell", 1))
    with pytest.raises(DomainError):
        smooth_periodogram(_constant_pg(8), spectral_window("daniell", 4))  # 2m+1 > n


# ------------------------------------------------------------ spectral mean

def test_spectral_mean_fourier_sum_is_mean():
    rng = np.random.default_rng(2)
    ts = TimeSeries(rng.standard_normal(16))
    pg = raw_periodogram(ts, FrequencyGrid.fourier(16))
    got = spectral_mean(lambda w: np.ones_like(w), pg, SpectralMeanConfig(points=None))
    assert got.real == pytest.approx(pg.values.real.mean(), rel=1e-12)
    # Parseval: the flat spectral mean of the regular periodogram is c-hat(0)
    assert got.real == pytest.approx(sample_autocov(ts, 0).lags[0], rel=1e-9)


def test_spectral_mean_riemann_recovers_autocov():
    # population check: complete periodogram of the true model integrates
    # against cos(r.) to something near c(r); exactness is the acceptance
    # suite's business, here we check the plumbing converges in points
    model = builtin_models("m1", 0.9)
    ts = simulate_arma(model, 40, 6)
    vals = {}
    for pts in (500, 2000):
        grid = FrequencyGrid.uniform(pts)
        pg = complete_periodogram(ts, Explicit(model), grid)
        cfg = SpectralMeanConfig(points=pts)
        vals[pts] = spectral_mean(lambda w: np.cos(2 * w), pg, cfg).real
    assert vals[500] == pytest.approx(vals[2000], rel=1e-3)


def test_spectral_mean_grid_mismatch_errors():
    ts = TimeSeries(np.ones(8))
    pg = raw_periodogram(ts, FrequencyGrid.fourier(8))
    with pytest.raises(DomainError):
        spectral_mean(np.cos, pg, SpectralMeanConfig(points=500))
    pg_u = raw_periodogram(ts, FrequencyGrid.uniform(100))
    with pytest.raises(DomainError):
        spectral_mean(np.cos, pg_u, SpectralMeanConfig(points=None))
    with pytest.raises(DomainError):
        spectral_mean(np.cos, pg_u, SpectralMeanConfig(points=200))


def test_riemann_points_floor():
    with pytest.raises(DomainError, match="Riemann cell count must be >= 8"):
        SpectralMeanConfig(points=4)
    with pytest.raises(DomainError, match="Riemann cell count must be >= 8"):
        ExperimentSpec(builtin_models("m1", 0.9), 20, 1, [EstimatorSpec("regular")], 0,
                       acf_lags=2, acf_points=4)
    assert SpectralMeanConfig(points=8).grid_for(20).size == 8
    assert SpectralMeanConfig(points=None).grid_for(20).kind == "fourier"


# -------------------------------------------------------------------- acf

def test_acf_zero_lag_is_one():
    ts = simulate_arma(builtin_models("m1", 0.7), 30, 4)
    cfg = SpectralMeanConfig(points=500, threshold=1e-3)
    _, acf = acf_estimate(ts, 5, EstimatorSpec("complete"), cfg)
    assert acf[0] == 1.0


def test_acf_white_noise_small():
    # the Riemann grid must resolve the periodogram (cells >= n), otherwise
    # quadrature noise ~ 1/sqrt(cells) swamps the 1/sqrt(n) sampling noise
    rng = np.random.default_rng(88)
    ts = TimeSeries(rng.standard_normal(5000))
    _, acf = acf_estimate(
        ts, 10, EstimatorSpec("regular"), SpectralMeanConfig(points=None)
    )
    assert np.max(np.abs(acf[1:])) < 0.05
    cfg = SpectralMeanConfig(points=5000)
    _, acf_r = acf_estimate(ts, 10, EstimatorSpec("regular"), cfg)
    assert np.max(np.abs(acf_r[1:])) < 0.05


def test_acf_regular_riemann_matches_sample_autocov():
    # with enough Riemann cells the integral of the regular periodogram
    # reproduces the biased sample autocovariances (Fejer/cosine algebra)
    rng = np.random.default_rng(30)
    ts = TimeSeries(rng.standard_normal(25))
    cfg = SpectralMeanConfig(points=2048)
    autocov, _ = acf_estimate(ts, 4, EstimatorSpec("regular"), cfg)
    np.testing.assert_allclose(autocov, sample_autocov(ts, 4).lags, rtol=1e-10)


def test_acf_thresholded_sequence_positive_definite():
    rng = np.random.default_rng(91)
    cfg = SpectralMeanConfig(points=500, threshold=1e-3)
    for _ in range(10):
        ts = TimeSeries(rng.standard_normal(int(rng.integers(12, 40))))
        autocov, _ = acf_estimate(ts, 8, EstimatorSpec("complete"), cfg)
        import scipy.linalg

        T = scipy.linalg.toeplitz(autocov)
        assert np.linalg.eigvalsh(T).min() > 0


def test_acf_advises_threshold_when_variance_nonpositive():
    # a complete periodogram can integrate to a negative c(0) on adversarial
    # input; the error message points at the fix
    ts = TimeSeries([4.0, -0.5, 0.25, -0.125, 4.0, -2.0, 8.0, 1.0])
    cfg = SpectralMeanConfig(points=500)
    spec = EstimatorSpec("complete-true", source=Explicit(ArmaModel([-0.95], [], 1.0)))
    try:
        acf_estimate(ts, 3, spec, cfg)
    except NumericalError as err:
        assert "threshold" in str(err)
    # same call with a threshold always succeeds
    cfg2 = SpectralMeanConfig(points=500, threshold=1e-3)
    autocov, _ = acf_estimate(ts, 3, spec, cfg2)
    assert autocov[0] >= 1e-3


# ----------------------------------------------------------------- whittle

def _ar1(a):
    from predspec import ArmaModel

    return ArmaModel([a], [], 1.0)


_SHORT = TimeSeries(np.sin(np.arange(12.0)))


def test_whittle_recovers_ar1():
    ts = simulate_arma(_ar1(0.6), 2000, 10)
    res = whittle_fit(ts, 1, EstimatorSpec("regular"), [0.0])
    assert res.converged
    assert abs(res.theta[0] - 0.6) < 0.05


def test_whittle_objective_improves_on_init():
    ts = simulate_arma(_ar1(0.6), 300, 77)
    res = whittle_fit(ts, 1, EstimatorSpec("regular"), [0.3])
    init_value = res.trace[0][1]
    assert res.value <= init_value + 1e-12


def test_whittle_fourier_mode_matches_circular_yule_walker():
    n = 512
    ts = simulate_arma(_ar1(0.6), n, 8)
    cfg = SpectralMeanConfig(points=None)
    res = whittle_fit(ts, 1, EstimatorSpec("regular"), [0.0], cfg=cfg)
    pg = raw_periodogram(ts, FrequencyGrid.fourier(n))
    w = pg.grid.frequencies
    c0 = pg.values.real.mean()
    c1 = (pg.values.real * np.cos(w)).mean()
    assert res.theta[0] == pytest.approx(c1 / c0, abs=1e-3)


def test_whittle_family_dimension_below_series_length():
    ts = simulate_arma(_ar1(0.5), 3, 1)
    for dim in (3, 4, 100_000):
        with pytest.raises(DomainError, match="family order must be < 3"):
            whittle_fit(ts, dim, EstimatorSpec("complete"), [0.0] * dim)
    # `ar_family` checks the order and returns it
    assert whittle_fit(ts, ar_family(2), EstimatorSpec("regular"), [0.0, 0.0]).theta.size == 2


# One listed case for each guard of this module that no other test reaches.
_FOURIER = SpectralMeanConfig(points=None)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: SpectralWindow("daniell", 1, [0.5, 0.5]), DomainError, "2m\\+1 weights"),
        (lambda: SpectralWindow("daniell", 1, [0.6, 0.6, -0.2]), DomainError, "nonnegative"),
        (lambda: SpectralWindow("daniell", 1, [0.3, 0.3, 0.3]), DomainError, "sum to 1"),
        (lambda: SpectralWindow("daniell", 1.0, [1 / 3] * 3), DomainError, "half-width m must be an integer"),
        (lambda: SpectralWindow("daniell", 0, [1.0]), DomainError, "half-width m must be >= 1"),
        (
            lambda: spectral_mean(
                lambda w: np.ones(3), raw_periodogram(TimeSeries(np.ones(8)), FrequencyGrid.fourier(8)), _FOURIER
            ),
            DomainError,
            "elementwise",
        ),
        (
            lambda: acf_estimate(TimeSeries(np.ones(8)), 8, EstimatorSpec("regular"), _FOURIER),
            DomainError,
            "lag count must be < 8, got 8",
        ),
        # a completed estimate whose Fourier mean is negative
        (
            lambda: acf_estimate(
                TimeSeries([0.24, 0.91, -1.15, -0.11, -1.94, 1.59]), 1,
                EstimatorSpec("complete-true", source=Explicit(ArmaModel([0.99], [], 1.0))), _FOURIER,
            ),
            NumericalError,
            "set cfg.threshold",
        ),
        (lambda: whittle_fit(_SHORT, 2, EstimatorSpec("regular"), [0.1]), DomainError, "one finite number"),
        (lambda: whittle_fit(_SHORT, 1, EstimatorSpec("regular"), [[0.1]]), DomainError, "one finite number"),
        (lambda: whittle_fit(_SHORT, 1, EstimatorSpec("regular"), [np.nan]), DomainError, "one finite number"),
        (lambda: whittle_fit(_SHORT, 1, EstimatorSpec("regular"), [np.inf]), DomainError, "one finite number"),
        # cosine moments that are not positive definite at order 3
        (
            lambda: whittle_fit(
                TimeSeries([0.03, 0.06, -2.8, -0.54, -0.05, -4.0]), 3,
                EstimatorSpec("complete-true", source=Explicit(ArmaModel([0.9], [], 1.0))), [0.0] * 3, _FOURIER,
            ),
            NumericalError,
            "not positive definite.*set cfg.threshold",
        ),
        # an uncentred near-constant series: c(1)/c(0) within 1e-12 of 1
        (
            lambda: whittle_fit(
                TimeSeries(1.0 + 1e-7 * np.array([1.0, -1.0, 1.0, -1.0, 0.0, 0.0])), 1,
                EstimatorSpec("regular"), [0.0], _FOURIER,
            ),
            NumericalError,
            "unit circle",
        ),
    ],
    ids=[
        "window-size", "window-negative", "window-sum", "window-float-m", "window-m0",
        "g-shape", "acf-lags", "acf-variance",
        "whittle-init-length", "whittle-init-2d", "whittle-init-nan", "whittle-init-inf",
        "whittle-not-positive-definite", "whittle-unit-root-start",
    ],
)
def test_guard_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()


# (series, order, quadrature, kind): (theta, value, len(trace), converged).
# Pinned exactly: the fit is deterministic.  Each starts at the Yule-Walker
# solution on the estimate's cosine moments, where its first Newton step is
# already below the stopping tolerance.
_WHITTLE_GOLDEN = {
    (0, 1, 'riemann', 'regular'): ([-0.03014542480229021], 1.4110722637404483, 1, True),
    (0, 1, 'riemann', 'complete'): ([-0.030046892083538952], 1.4110817391115982, 1, True),
    (0, 1, 'fourier', 'regular'): ([-0.031084638223201788], 1.4109899119297233, 1, True),
    (0, 1, 'fourier', 'complete'): ([-0.03095411659827393], 1.4155197683587872, 1, True),
    (0, 2, 'riemann', 'regular'): ([-0.04931493618553262, -0.6359011859665705], 0.840476523288104, 1, True),
    (0, 2, 'riemann', 'complete'): ([-0.049208477167360036, -0.6377226979265076], 0.8372085687478462, 1, True),
    (0, 2, 'fourier', 'regular'): ([-0.050781140354727625, -0.6336410284107548], 0.8444761177781984, 1, True),
    (0, 2, 'fourier', 'complete'): ([-0.05073966763939859, -0.6391896527981661], 0.837190181698944, 1, True),
    (0, 3, 'riemann', 'regular'): ([-0.05993323499924058, -0.6367246483848712, -0.016698032725899325], 0.8402421780124245, 1, True),
    (0, 3, 'riemann', 'complete'): ([-0.05935244306264853, -0.6385054348680765, -0.01590654672990415], 0.8369967397185862, 1, True),
    (0, 3, 'fourier', 'regular'): ([-0.06332982593137666, -0.6346467028146571, -0.019804092560298095], 0.8441449124864906, 1, True),
    (0, 3, 'fourier', 'complete'): ([-0.06153390354980118, -0.6400465126364279, -0.01688737585652221], 0.8369514289034702, 1, True),
    (1, 1, 'riemann', 'regular'): ([0.45038126448673166], 0.956069594693829, 1, True),
    (1, 1, 'riemann', 'complete'): ([0.4523513514755416], 0.9539387245850367, 1, True),
    (1, 1, 'fourier', 'regular'): ([0.452020631467541], 0.9542953154185027, 1, True),
    (1, 1, 'fourier', 'complete'): ([0.4537662440776543], 0.9568774212420481, 1, True),
    (1, 2, 'riemann', 'regular'): ([0.6295306077915294, -0.39777263716545086], 0.8047973274487101, 1, True),
    (1, 2, 'riemann', 'complete'): ([0.6335980614091691, -0.4006768396787411], 0.8007915607767899, 1, True),
    (1, 2, 'fourier', 'regular'): ([0.6337797667697134, -0.4021036268014334], 0.7999978569986851, 1, True),
    (1, 2, 'fourier', 'complete'): ([0.6370618033088251, -0.4039426943353743], 0.8007440191875227, 1, True),
    (1, 3, 'riemann', 'regular'): ([0.6184738822711845, -0.38027382883462135, -0.027796596566157728], 0.8041755001653824, 1, True),
    (1, 3, 'riemann', 'complete'): ([0.6225085054529188, -0.3831407096608381, -0.027677057563752824], 0.8001781388134775, 1, True),
    (1, 3, 'fourier', 'regular'): ([0.622819481087943, -0.38482845980436425, -0.027257365890865366], 0.7994034873946111, 1, True),
    (1, 3, 'fourier', 'complete'): ([0.6249264199483376, -0.3848038676753292, -0.03004233900171198], 0.8000213139727035, 1, True),
}


def _golden_series():
    return [
        simulate_arma(builtin_models("m1", 0.8), 160, 21).center(),
        simulate_arma(ArmaModel([0.5, -0.3], [], 1.0), 240, 5).center(),
    ]


_GOLDEN_MODES = {
    "riemann": SpectralMeanConfig(points=500, threshold=1e-3),
    "fourier": SpectralMeanConfig(points=None),
}


def test_whittle_golden_results():
    series = _golden_series()
    for (s, p, mode, kind), (theta, value, evals, converged) in _WHITTLE_GOLDEN.items():
        res = whittle_fit(
            series[s], p, EstimatorSpec(kind), [0.1] * p, _GOLDEN_MODES[mode]
        )
        got = ([float(t) for t in res.theta], res.value, len(res.trace), res.converged)
        assert got == (theta, value, evals, converged), (s, p, mode, kind)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    p=st.integers(1, 3),
    n=st.integers(16, 400),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(sorted(_GOLDEN_MODES) + ["riemann-plain"]),
    kind=st.sampled_from(["regular", "complete"]),
)
def test_whittle_trace_matches_mean_formula(p, n, seed, mode, kind):
    """Every (theta, value) the fit records is mean(vals/f) + mean(log f),
    recomputed at theta from the transfer polynomial, bit for bit."""
    cfg = _GOLDEN_MODES.get(mode, SpectralMeanConfig(points=500))
    ts = simulate_arma(builtin_models("m1", 0.7), n, seed).center()
    pg = evaluate_estimator(ts, EstimatorSpec(kind), cfg.grid_for(n))
    if cfg.threshold is not None:
        pg = threshold_real(pg, cfg.threshold)
    vals = pg.values.real
    w = pg.grid.frequencies
    res = whittle_fit(ts, p, EstimatorSpec(kind), [0.1] * p, cfg)
    for theta, value in res.trace:
        aw = _transfer_polynomial(theta, w)
        f = 1.0 / (aw.real**2 + aw.imag**2)
        if np.all(np.isfinite(f)) and np.all(f > 0.0):
            want = float(np.mean(vals / f) + np.mean(np.log(f)))
        else:
            want = np.inf
        assert value == want


def _step_up(kappa):
    """Levinson's step-up map from reflection coefficients to AR coefficients."""
    a = np.zeros(0)
    for k in kappa:
        a = np.append(a - k * a[::-1], k)
    return a


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    model=st.sampled_from([("m1", 0.7), ("m1", 0.9), ("m2",)]),
    n=st.integers(100, 400),
    p=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(sorted(_GOLDEN_MODES)),
    kind=st.sampled_from(["regular", "complete", "tapered-complete"]),
)
def test_whittle_matches_scipy_over_the_causal_region(model, n, p, seed, mode, kind):
    """scipy's BFGS on the same discretized objective, over the causal region
    as kappa = tanh(u) through the step-up map, finds the fit's minimizer."""
    cfg = _GOLDEN_MODES[mode]
    ts = simulate_arma(builtin_models(*model), n, seed).center()
    pg = evaluate_estimator(ts, EstimatorSpec(kind), cfg.grid_for(n))
    if cfg.threshold is not None:
        pg = threshold_real(pg, cfg.threshold)
    vals, w = pg.values.real, pg.grid.frequencies

    def objective(u):
        aw = _transfer_polynomial(_step_up(np.tanh(u)), w)
        f = 1.0 / (aw.real**2 + aw.imag**2)
        return float(np.mean(vals / f) + np.mean(np.log(f)))

    res = whittle_fit(ts, p, EstimatorSpec(kind), [0.0] * p, cfg)
    theirs = scipy.optimize.minimize(objective, np.zeros(p), method="BFGS", options={"gtol": 1e-9})
    assert res.converged
    assert np.max(np.abs(res.theta - _step_up(np.tanh(theirs.x)))) < 1e-6
    assert res.value <= theirs.fun + 1e-12


def test_whittle_m2_ar3_is_causal():
    """The paper's m2 process has AR(3) coefficients near (2, -1.9, 0.8): the
    fit ranges over the causal region, not a box around 0."""
    cfg = SpectralMeanConfig(threshold=1e-3)
    for seed in range(5):
        ts = simulate_arma(builtin_models("m2"), 600, seed).center()
        res = whittle_fit(ts, 3, EstimatorSpec("complete"), [0.1] * 3, cfg)
        ArmaModel(res.theta, [], 1.0)  # DomainError unless causal
        assert res.converged and res.theta[0] > 1.9


def test_whittle_high_orders_converge():
    ts = simulate_arma(builtin_models("m2"), 600, 3).center()
    cfg = SpectralMeanConfig(threshold=1e-3)
    for p in (8, 10):
        res = whittle_fit(ts, p, EstimatorSpec("regular"), [0.0] * p, cfg)
        ArmaModel(res.theta, [], 1.0)
        assert res.converged and res.value < 0.95


def _step_down(theta):
    """The reflection coefficients of AR coefficients theta: the inverse of
    the step-up map, exact in the last one."""
    a = np.asarray(theta, dtype=float)
    kappa = np.empty(a.size)
    for m in range(a.size, 0, -1):
        kappa[m - 1] = k = a[m - 1]
        a = (a[: m - 1] + k * a[: m - 1][::-1]) / (1.0 - k * k)
    return kappa


def _on_box_face(theta):
    """Whether a reflection coefficient of theta sits at the bound 1 - 1e-8."""
    return np.min(np.abs(_KAPPA_BOUND - np.abs(_step_down(theta)))) <= 1e-12


def test_whittle_boundary_infimum_is_not_converged():
    """On the Fourier grid of n = 20 the discretized objective can fall
    toward the causal boundary: the fit steps along the face of the box of
    reflection coefficients, ends with one at the bound, and reports it.
    The values are those where steps in theta, halved until causal, stalled."""
    cases = [(0.7, 2, 0.3294473936737769), (0.9, 3, 0.4565113558164047)]  # (m1 lambda, order, K)
    for lam, p, stalled in cases:
        ts = simulate_arma(builtin_models("m1", lam), 20, 8).center()
        res = whittle_fit(ts, p, EstimatorSpec("regular"), [0.0] * p, _FOURIER)
        ArmaModel(res.theta, [], 1.0)
        assert not res.converged and _on_box_face(res.theta)
        assert res.value < stalled


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    lam=st.sampled_from([0.7, 0.9, 0.95]),
    p=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["regular", "complete", "tapered-complete"]),
)
def test_whittle_short_fourier_fits_converge_or_end_on_the_box_face(lam, p, seed, kind):
    """On the Fourier grid of n = 20, where the infimum often lies on the
    causal boundary, a fit that does not converge ends at a bound of kappa."""
    ts = simulate_arma(builtin_models("m1", lam), 20, seed).center()
    res = whittle_fit(ts, p, EstimatorSpec(kind), [0.0] * p, _FOURIER)
    ArmaModel(res.theta, [], 1.0)
    assert res.converged or _on_box_face(res.theta)


def test_whittle_trials_pass_the_causal_root_rule():
    """A kappa inside the box can step up to a root beyond `ArmaModel`'s
    radius 1 - 1e-10, so each trial still passes that rule.  Without it this
    fit would end with a root on the unit circle to rounding."""
    assert not arfit._causal(arfit._step_up(np.array([_KAPPA_BOUND, 0.99]))[0])
    ts = simulate_arma(builtin_models("m1", 0.95), 20, 8).center()
    res = whittle_fit(ts, 4, EstimatorSpec("complete"), [0.0] * 4, _FOURIER)
    ArmaModel(res.theta, [], 1.0)
    assert not res.converged and _on_box_face(res.theta)


def test_step_up_reproduces_the_levinson_table():
    """The step-up of each diagonal of `_levinson_rows` is its coefficient
    row bit for bit, at every order."""
    x = np.random.default_rng(5).standard_normal((200, 40))
    x[100:] = np.cumsum(x[100:], axis=1)  # near-unit-root rows: reflection coefficients near 1
    coeffs, _ = _yule_walker_rows(x - x.mean(axis=1, keepdims=True), 8)
    for row in coeffs:
        for m in range(1, 9):
            assert np.array_equal(arfit._step_up(row[1 : m + 1].diagonal())[0], row[m, :m])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kappa=st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=8))
def test_step_up_jacobian_matches_central_differences(kappa):
    """theta is linear in each reflection coefficient, so central differences
    are exact up to rounding."""
    kappa = np.array(kappa)
    theta, jac = arfit._step_up(kappa)
    np.testing.assert_array_equal(theta, _step_up(kappa))
    h = 1e-3
    for j in range(kappa.size):
        e = np.zeros(kappa.size)
        e[j] = h
        diff = (arfit._step_up(kappa + e)[0] - arfit._step_up(kappa - e)[0]) / (2 * h)
        np.testing.assert_allclose(jac[:, j], diff, rtol=0, atol=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    walk=st.booleans(),
    n=st.integers(20, 200),
    p=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["riemann", "fourier"]),
    kind=st.sampled_from(["regular", "complete", "tapered-complete"]),
)
def test_whittle_fit_is_causal(walk, n, p, seed, mode, kind):
    """Every fit, converged or not, is a causal AR(p).  Random walks put the
    unconstrained minimizer of a completed estimate outside that region, and
    short near-unit-root paths on the Fourier grid put the infimum on its
    boundary."""
    if walk:
        ts = TimeSeries(np.cumsum(np.random.default_rng(seed).standard_normal(n))).center()
    else:
        ts = simulate_arma(builtin_models("m1", 0.95), n, seed).center()
    cfg = SpectralMeanConfig() if mode == "riemann" else _FOURIER
    try:
        res = whittle_fit(ts, p, EstimatorSpec(kind), [0.0] * p, cfg)
    except NumericalError:
        return
    ArmaModel(res.theta, [], 1.0)
    assert res.value == res.trace[-1][1]


def test_ar_family_unit_variance_log_mean_vanishes():
    # Kolmogorov's formula: the log spectral density of a causal AR model
    # with sigma2=1 integrates to 0; the Riemann mean should be ~0 too
    w = FrequencyGrid.uniform(4096).frequencies
    for theta in ([0.5, -0.3], [0.0, -0.81], [1.2, -0.5]):
        aw = _transfer_polynomial(theta, w)
        assert np.mean(np.log(1.0 / (aw.real**2 + aw.imag**2))) == pytest.approx(0.0, abs=1e-9)


def test_quadratic_form_identity_small():
    """Flat-case preview of the acceptance identity: the Fourier-sum spectral
    mean of I_complete/f_theta equals the Toeplitz quadratic form, pathwise."""
    model = ArmaModel([0.5, -0.3], [], 1.0)
    cov = arma_expand(model, M=60).autocov
    n = 16
    rng = np.random.default_rng(5)
    ts = TimeSeries(rng.standard_normal(n))
    grid = FrequencyGrid.fourier(n)
    pg = complete_periodogram(ts, Explicit(model), grid)
    dens = model.density(grid.frequencies)
    lhs = np.mean(pg.values / dens).real
    Gamma = cov.toeplitz(n)
    rhs = ts.values @ np.linalg.solve(Gamma, ts.values) / n
    assert lhs == pytest.approx(rhs, rel=1e-10)
