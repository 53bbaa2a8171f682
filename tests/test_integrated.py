import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from predspec import (
    ArModel,
    ArmaModel,
    DomainError,
    EstimatorSpec,
    Explicit,
    FourierSum,
    FrequencyGrid,
    NumericalError,
    RiemannIntegral,
    SpectralFamily,
    SpectralMeanConfig,
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
from predspec.arfit import _transfer_polynomial
from predspec.integrated import _simplex


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
    got = spectral_mean(lambda w: np.ones_like(w), pg, SpectralMeanConfig(mode=FourierSum()))
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
        pg = complete_periodogram(ts, Explicit(model.pure_ar()), grid)
        cfg = SpectralMeanConfig(mode=RiemannIntegral(points=pts))
        vals[pts] = spectral_mean(lambda w: np.cos(2 * w), pg, cfg).real
    assert vals[500] == pytest.approx(vals[2000], rel=1e-3)


def test_spectral_mean_grid_mismatch_errors():
    ts = TimeSeries(np.ones(8))
    pg = raw_periodogram(ts, FrequencyGrid.fourier(8))
    with pytest.raises(DomainError):
        spectral_mean(np.cos, pg, SpectralMeanConfig(mode=RiemannIntegral(points=500)))
    pg_u = raw_periodogram(ts, FrequencyGrid.uniform(100))
    with pytest.raises(DomainError):
        spectral_mean(np.cos, pg_u, SpectralMeanConfig(mode=FourierSum()))
    with pytest.raises(DomainError):
        spectral_mean(np.cos, pg_u, SpectralMeanConfig(mode=RiemannIntegral(points=200)))
    for mode in ("bogus", None):
        with pytest.raises(DomainError, match="quadrature mode"):
            SpectralMeanConfig(mode=mode)


def test_riemann_points_floor():
    with pytest.raises(DomainError):
        RiemannIntegral(points=4)


# -------------------------------------------------------------------- acf

def test_acf_zero_lag_is_one():
    ts = simulate_arma(builtin_models("m1", 0.7), 30, 4)
    cfg = SpectralMeanConfig(mode=RiemannIntegral(points=500), threshold=1e-3)
    _, acf = acf_estimate(ts, 5, EstimatorSpec("complete"), cfg)
    assert acf[0] == 1.0


def test_acf_white_noise_small():
    # the Riemann grid must resolve the periodogram (cells >= n), otherwise
    # quadrature noise ~ 1/sqrt(cells) swamps the 1/sqrt(n) sampling noise
    rng = np.random.default_rng(88)
    ts = TimeSeries(rng.standard_normal(5000))
    _, acf = acf_estimate(
        ts, 10, EstimatorSpec("regular"), SpectralMeanConfig(mode=FourierSum())
    )
    assert np.max(np.abs(acf[1:])) < 0.05
    cfg = SpectralMeanConfig(mode=RiemannIntegral(points=5000))
    _, acf_r = acf_estimate(ts, 10, EstimatorSpec("regular"), cfg)
    assert np.max(np.abs(acf_r[1:])) < 0.05


def test_acf_regular_riemann_matches_sample_autocov():
    # with enough Riemann cells the integral of the regular periodogram
    # reproduces the biased sample autocovariances (Fejer/cosine algebra)
    rng = np.random.default_rng(30)
    ts = TimeSeries(rng.standard_normal(25))
    cfg = SpectralMeanConfig(mode=RiemannIntegral(points=2048))
    autocov, _ = acf_estimate(ts, 4, EstimatorSpec("regular"), cfg)
    np.testing.assert_allclose(autocov, sample_autocov(ts, 4).lags, rtol=1e-10)


def test_acf_thresholded_sequence_positive_definite():
    rng = np.random.default_rng(91)
    cfg = SpectralMeanConfig(mode=RiemannIntegral(points=500), threshold=1e-3)
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
    cfg = SpectralMeanConfig(mode=RiemannIntegral(points=500))
    spec = EstimatorSpec("complete-true", source=Explicit(ArModel([-0.95], 1.0)))
    try:
        acf_estimate(ts, 3, spec, cfg)
    except NumericalError as err:
        assert "threshold" in str(err)
    # same call with a threshold always succeeds
    cfg2 = SpectralMeanConfig(mode=RiemannIntegral(points=500), threshold=1e-3)
    autocov, _ = acf_estimate(ts, 3, spec, cfg2)
    assert autocov[0] >= 1e-3


# ----------------------------------------------------------------- whittle

def _ar1(a):
    from predspec import ArmaModel

    return ArmaModel([a], [], 1.0)


def test_whittle_recovers_ar1():
    ts = simulate_arma(_ar1(0.6), 2000, 10)
    res = whittle_fit(ts, ar_family(1), EstimatorSpec("regular"), [0.0])
    assert res.converged
    assert abs(res.theta[0] - 0.6) < 0.05


def test_whittle_objective_improves_on_init():
    ts = simulate_arma(_ar1(0.6), 300, 77)
    res = whittle_fit(ts, ar_family(1), EstimatorSpec("regular"), [0.3])
    init_value = res.trace[0][1]
    assert res.value <= init_value + 1e-12


def test_whittle_fourier_mode_matches_circular_yule_walker():
    n = 512
    ts = simulate_arma(_ar1(0.6), n, 8)
    cfg = SpectralMeanConfig(mode=FourierSum())
    res = whittle_fit(ts, ar_family(1), EstimatorSpec("regular"), [0.0], cfg=cfg)
    pg = raw_periodogram(ts, FrequencyGrid.fourier(n))
    w = pg.grid.frequencies
    c0 = pg.values.real.mean()
    c1 = (pg.values.real * np.cos(w)).mean()
    assert res.theta[0] == pytest.approx(c1 / c0, abs=1e-3)


def test_whittle_init_must_be_inside_box():
    ts = simulate_arma(_ar1(0.5), 100, 1)
    with pytest.raises(DomainError):
        whittle_fit(ts, ar_family(1), EstimatorSpec("regular"), [1.5])


def test_whittle_family_dimension_below_series_length():
    def unbound(w):
        raise AssertionError("the family must not be bound to a grid")

    ts = simulate_arma(_ar1(0.5), 3, 1)
    for dim in (3, 4, 100_000):
        family = SpectralFamily(on_grid=unbound, bounds=((-1.0, 1.0),) * dim)
        with pytest.raises(DomainError, match="below the series length"):
            whittle_fit(ts, family, EstimatorSpec("complete"), [0.0] * dim)
    assert whittle_fit(ts, ar_family(2), EstimatorSpec("regular"), [0.0, 0.0]).theta.size == 2


def _flat_family(shape):
    """A one-parameter family whose bound density has the given shape."""
    return SpectralFamily(
        on_grid=lambda w: lambda theta: np.ones(shape(w)), bounds=((-1.0, 1.0),)
    )


@pytest.mark.parametrize(
    "make_family",
    [
        lambda: _flat_family(lambda w: 3),
        lambda: _flat_family(lambda w: ()),
        lambda: _flat_family(lambda w: (1, w.size)),
        lambda: SpectralFamily(on_grid=ar_family(2).on_grid, bounds=((-1.0, 1.0), (0.0,))),
        lambda: SpectralFamily(on_grid=ar_family(1).on_grid, bounds=()),
        lambda: SpectralFamily(on_grid=ar_family(1).on_grid, bounds=((0.5, -0.5),)),
        lambda: SpectralFamily(on_grid=ar_family(1).on_grid, bounds=((np.nan, 1.0),)),
        lambda: SpectralFamily(on_grid=ar_family(1).on_grid, bounds=(0.5,)),
    ],
    ids=[
        "density-length-3",
        "density-scalar",
        "density-row",
        "bounds-short-pair",
        "bounds-empty",
        "bounds-reversed",
        "bounds-nan",
        "bounds-not-pairs",
    ],
)
def test_malformed_family_raises_domain_error(make_family):
    # a density that does not have the grid's shape would broadcast or fail
    # inside numpy; a malformed box would fail inside the optimizer or fit
    # nothing at all
    ts = simulate_arma(_ar1(0.5), 64, 3)
    with pytest.raises(DomainError):
        whittle_fit(ts, make_family(), EstimatorSpec("regular"), [0.0])


def test_family_bounds_allow_infinite_ends():
    fam = SpectralFamily(on_grid=ar_family(1).on_grid, bounds=((-np.inf, np.inf),))
    ts = simulate_arma(_ar1(0.5), 300, 4)
    res = whittle_fit(ts, fam, EstimatorSpec("regular"), [0.0])
    assert res.converged and abs(res.theta[0] - 0.5) < 0.15


# (series, order, quadrature, kind): (theta, value, len(trace), converged).
# Pinned exactly: the fit is deterministic, and how the family is evaluated
# on its grid must not move a bit of the search.
_WHITTLE_GOLDEN = {
    (0, 1, 'riemann', 'regular'): ([-0.030145425796508536], 1.4110722637404478, 57, True),
    (0, 1, 'riemann', 'complete'): ([-0.030046892166137443], 1.4110817391115982, 57, True),
    (0, 1, 'fourier', 'regular'): ([-0.03108464241027807], 1.4109899119297231, 57, True),
    (0, 1, 'fourier', 'complete'): ([-0.030954113006591545], 1.4155197683587872, 57, True),
    (0, 2, 'riemann', 'regular'): ([-0.04931493817327473, -0.6359011795574746], 0.8404765232881038, 140, True),
    (0, 2, 'riemann', 'complete'): ([-0.049208477090740686, -0.6377226962415545], 0.8372085687478461, 149, True),
    (0, 2, 'fourier', 'regular'): ([-0.050781137905294954, -0.6336410352119568], 0.8444761177781983, 143, True),
    (0, 2, 'fourier', 'complete'): ([-0.05073967211840623, -0.6391896481486348], 0.8371901816989439, 143, True),
    (0, 3, 'riemann', 'regular'): ([-0.05993322787018249, -0.6367246534209874, -0.01669803698893147], 0.8402421780124244, 263, True),
    (0, 3, 'riemann', 'complete'): ([-0.05935245157463806, -0.638505430091591, -0.015906547557514195], 0.8369967397185862, 272, True),
    (0, 3, 'fourier', 'regular'): ([-0.06332983072220084, -0.6346467054574159, -0.019804088843047348], 0.8441449124864908, 289, True),
    (0, 3, 'fourier', 'complete'): ([-0.06153390165279729, -0.6400465032281338, -0.016887373199304292], 0.8369514289034701, 256, True),
    (1, 1, 'riemann', 'regular'): ([0.4503812694549574], 0.9560695946938289, 61, True),
    (1, 1, 'riemann', 'complete'): ([0.45235136032104617], 0.9539387245850366, 61, True),
    (1, 1, 'fourier', 'regular'): ([0.45202062606811644], 0.9542953154185027, 61, True),
    (1, 1, 'fourier', 'complete'): ([0.4537662506103529], 0.9568774212420482, 61, True),
    (1, 2, 'riemann', 'regular'): ([0.6295306093720929, -0.3977726398793158], 0.8047973274487101, 141, True),
    (1, 2, 'riemann', 'complete'): ([0.6335980583070102, -0.40067684703642104], 0.8007915607767899, 138, True),
    (1, 2, 'fourier', 'regular'): ([0.6337797648641244, -0.40210362339775024], 0.799997856998685, 141, True),
    (1, 2, 'fourier', 'complete'): ([0.6370618071762679, -0.40394269705823704], 0.8007440191875226, 139, True),
    (1, 3, 'riemann', 'regular'): ([0.6184738736119455, -0.38027381531455673, -0.02779660141925533], 0.8041755001653824, 260, True),
    (1, 3, 'riemann', 'complete'): ([0.622508506206461, -0.383140708804093, -0.0276770545347065], 0.8001781388134774, 267, True),
    (1, 3, 'fourier', 'regular'): ([0.6228194796253725, -0.38482845955350453, -0.027257362492294844], 0.799403487394611, 266, True),
    (1, 3, 'fourier', 'complete'): ([0.6249264179622085, -0.3848038589340118, -0.030042344645116473], 0.8000213139727034, 261, True),
}


def _golden_series():
    return [
        simulate_arma(builtin_models("m1", 0.8), 160, 21).center(),
        simulate_arma(ArmaModel([0.5, -0.3], [], 1.0), 240, 5).center(),
    ]


_GOLDEN_MODES = {
    "riemann": SpectralMeanConfig(mode=RiemannIntegral(500), threshold=1e-3),
    "fourier": SpectralMeanConfig(mode=FourierSum()),
}


def test_whittle_golden_results():
    series = _golden_series()
    for (s, p, mode, kind), (theta, value, evals, converged) in _WHITTLE_GOLDEN.items():
        res = whittle_fit(
            series[s], ar_family(p), EstimatorSpec(kind), [0.1] * p, _GOLDEN_MODES[mode]
        )
        got = ([float(t) for t in res.theta], res.value, len(res.trace), res.converged)
        assert got == (theta, value, evals, converged), (s, p, mode, kind)


def _grid(draw):
    if draw(st.booleans()):
        return FrequencyGrid.fourier(draw(st.integers(2, 600)))
    return FrequencyGrid.uniform(draw(st.integers(1, 600)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_ar_family_on_grid_matches_transfer_polynomial(data):
    """The bound density is 1/|a_theta(w)|**2 of the one AR polynomial, bit for bit."""
    p = data.draw(st.integers(1, 4))
    w = _grid(data.draw).frequencies
    density = ar_family(p).on_grid(w)
    for _ in range(3):
        theta = np.array(data.draw(st.lists(st.floats(-0.99, 0.99), min_size=p, max_size=p)))
        aw = _transfer_polynomial(theta, w)
        want = 1.0 / (aw.real**2 + aw.imag**2)
        assert np.array_equal(density(theta), want)


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
    cfg = _GOLDEN_MODES.get(mode, SpectralMeanConfig(mode=RiemannIntegral(500)))
    ts = simulate_arma(builtin_models("m1", 0.7), n, seed).center()
    pg = evaluate_estimator(ts, EstimatorSpec(kind), cfg.grid_for(n))
    if cfg.threshold is not None:
        pg = threshold_real(pg, cfg.threshold)
    vals = pg.values.real
    w = pg.grid.frequencies
    res = whittle_fit(ts, ar_family(p), EstimatorSpec(kind), [0.1] * p, cfg)
    for theta, value in res.trace:
        aw = _transfer_polynomial(theta, w)
        f = 1.0 / (aw.real**2 + aw.imag**2)
        if np.all(np.isfinite(f)) and np.all(f > 0.0):
            want = float(np.mean(vals / f) + np.mean(np.log(f)))
        else:
            want = np.inf
        assert value == want


def _search_objective(kind, center, scale):
    """Smooth, non-smooth, plateau (many tied values) or +inf-region objectives."""
    c, s = np.array(center), np.array(scale)
    if kind == "smooth":
        return lambda x: float(np.sum(s * (x - c) ** 2))
    if kind == "kink":
        return lambda x: float(np.sum(s * np.abs(x - c)) + np.max(np.abs(x)))
    if kind == "plateau":
        return lambda x: float(np.floor(2.0 * np.sum(s * (x - c) ** 2)))
    return lambda x: float(np.sum(s * (x - c) ** 2)) if x[0] <= c[0] + 0.3 else np.inf


@st.composite
def _search_problems(draw):
    dim = draw(st.integers(1, 4))
    box, x0 = [], []
    for _ in range(dim):
        end = st.floats(-5.0, 5.0)
        kind = draw(st.sampled_from(["finite", "lower", "upper", "free"]))
        lo = draw(end) if kind in ("finite", "lower") else -np.inf
        hi = lo + draw(st.floats(1e-3, 8.0)) if kind == "finite" else np.inf
        if kind == "upper":
            hi = draw(end)
        start = draw(st.sampled_from(["inside", "zero", "upper"]))
        if start == "upper" and hi < np.inf:
            x0.append(hi)
        elif start == "zero" and lo <= 0.0 <= hi:
            x0.append(0.0)
        else:
            x0.append(float(np.clip(draw(end), lo, hi)))
        box.append((lo, hi))
    kind = draw(st.sampled_from(["smooth", "kink", "plateau", "inf-region"]))
    center = draw(st.lists(st.floats(-4.0, 4.0), min_size=dim, max_size=dim))
    scale = draw(st.lists(st.floats(0.1, 10.0), min_size=dim, max_size=dim))
    return box, x0, _search_objective(kind, center, scale), draw(st.integers(1, 2000))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_search_problems())
def test_simplex_matches_scipy_nelder_mead(problem):
    """`_simplex` evaluates the same points as scipy's bounded Nelder-Mead,
    in the same order, and returns the same point, value and convergence."""
    box, x0, fun, maxfev = problem
    ours, theirs = [], []

    def recorded(calls):
        def f(x):
            calls.append(x.tolist())
            return fun(x)
        return f

    x, value, converged = _simplex(recorded(ours), x0, box, maxfev)
    # scipy's own convergence test subtracts +inf from +inf when the best
    # vertex is infeasible
    with np.errstate(invalid="ignore"):
        res = scipy.optimize.minimize(
            recorded(theirs),
            x0,
            method="Nelder-Mead",
            bounds=box,
            options={"xatol": 1e-8, "fatol": 1e-12, "maxfev": maxfev},
        )
    assert ours == theirs
    assert x.tolist() == res.x.tolist()
    assert value == res.fun
    assert converged == (res.status == 0)


def test_ar_family_unit_variance_log_mean_vanishes():
    # Kolmogorov's formula: the log spectral density of a causal AR model
    # with sigma2=1 integrates to 0; the Riemann mean should be ~0 too
    density = ar_family(2).on_grid(FrequencyGrid.uniform(4096).frequencies)
    for theta in ([0.5, -0.3], [0.0, -0.81], [1.2, -0.5]):
        dens = density(np.asarray(theta))
        assert np.mean(np.log(dens)) == pytest.approx(0.0, abs=1e-9)


def test_quadratic_form_identity_small():
    """Flat-case preview of the acceptance identity: the Fourier-sum spectral
    mean of I_complete/f_theta equals the Toeplitz quadratic form, pathwise."""
    model = ArModel([0.5, -0.3], 1.0)
    cov = arma_expand(_arma_of(model), M=60).autocov
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


def _arma_of(model):
    from predspec import ArmaModel

    return ArmaModel(model.coeffs, [], model.sigma2)
