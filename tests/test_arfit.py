import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from predspec import (
    ArmaModel,
    CovarianceSequence,
    DomainError,
    FrequencyGrid,
    NumericalError,
    OrderSelection,
    TimeSeries,
    aic_select,
    arma_expand,
    EstimatorSpec,
    ExperimentSpec,
    Explicit,
    builtin_models,
    levinson_durbin,
    run_experiment,
    simulate_arma,
    yule_walker_fit,
)
from predspec import arfit
from predspec.arfit import _ma_weights
from predspec.simulation import _Prep


def test_armodel_rejects_noncausal():
    ArmaModel([0.5], [], 1.0)
    with pytest.raises(DomainError):
        ArmaModel([1.0], [], 1.0)  # unit root
    with pytest.raises(DomainError):
        ArmaModel([0.0, 1.1], [], 1.0)
    with pytest.raises(DomainError):
        ArmaModel([0.5], [], 0.0)


def test_armodel_density_convention():
    # AR(0): density identically sigma2, no 2*pi anywhere
    m = ArmaModel([], [], 2.5)
    g = FrequencyGrid.fourier(8)
    np.testing.assert_allclose(m.density(g.frequencies), 2.5)


def test_levinson_one_step():
    m = levinson_durbin(CovarianceSequence([1.0, 0.5]), 1)
    np.testing.assert_allclose(m.ar, [0.5])
    assert m.sigma2 == pytest.approx(0.75)


def test_levinson_m1_population():
    # population autocovariances of the squared-lag AR(2): c(0)=1/(1-l^4),
    # c(1)=0, c(2)=-l^2 c(0)
    lam = 0.9
    c0 = 1.0 / (1 - lam**4)
    m = levinson_durbin(CovarianceSequence([c0, 0.0, -(lam**2) * c0]), 2)
    np.testing.assert_allclose(m.ar, [0.0, -(lam**2)], atol=1e-12)
    assert m.sigma2 == pytest.approx(1.0, rel=1e-12)


def test_levinson_white_noise():
    m = levinson_durbin(CovarianceSequence([1.0, 0.0, 0.0]), 2)
    np.testing.assert_allclose(m.ar, [0.0, 0.0])
    assert m.sigma2 == pytest.approx(1.0)


def test_levinson_matches_dense_solve():
    rng = np.random.default_rng(31)
    for _ in range(25):
        p = int(rng.integers(1, 9))
        coeffs = rng.uniform(-0.9, 0.9, size=p) * 0.9 ** np.arange(1, p + 1)
        try:
            model = ArmaModel(coeffs, [], 1.0)
        except DomainError:
            continue
        cov = arma_expand(model, M=p + 5).autocov
        fit = levinson_durbin(cov, p)
        R = scipy.linalg.toeplitz(cov.lags[:p])
        direct = np.linalg.solve(R, cov.lags[1 : p + 1])
        np.testing.assert_allclose(fit.ar, direct, rtol=1e-8, atol=1e-10)


def test_levinson_monotone_prediction_error():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(200)
    ts = TimeSeries(x)
    prev = None
    for p in range(0, 8):
        m = yule_walker_fit(ts, p)
        if prev is not None:
            assert m.sigma2 <= prev + 1e-12
        prev = m.sigma2


def test_levinson_rejects_non_pd():
    with pytest.raises(NumericalError):
        levinson_durbin(CovarianceSequence([1.0, 1.0]), 1)
    with pytest.raises(NumericalError, match=r"c\(0\) <= 0"):
        levinson_durbin(CovarianceSequence([0.0, 0.0]), 1)  # the zero sequence is valid but singular


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: ArmaModel([], [2.0], 1.0), "MA polynomial root strictly inside"),
        (lambda: levinson_durbin(CovarianceSequence([1.0, 0.5]), 2), r"holds lags 0..1, need 0..2"),
        (lambda: yule_walker_fit(TimeSeries([1.0, -2.0, 0.5]), 3), r"order must be < 3, got 3"),
        (lambda: OrderSelection(0, 2, np.ones(2), ArmaModel([], [], 1.0)), r"selected order must lie in 1..k_n"),
        (lambda: OrderSelection(2, 3, np.ones(3), ArmaModel([0.5], [], 1.0)), "be the model's order"),
        (lambda: OrderSelection(1, 2, np.ones(3), ArmaModel([0.5], [], 1.0)), "one criterion value per candidate"),
    ],
    ids=["ma-root-inside", "levinson-lags", "yule-walker-order", "selection-order", "selection-model-order",
         "selection-values"],
)
def test_guard_raises(call, match):
    with pytest.raises(DomainError, match=match):
        call()


def test_yule_walker_order_zero():
    ts = TimeSeries([1.0, -2.0, 0.5, 1.5])
    m = yule_walker_fit(ts, 0)
    assert m.p == 0
    assert m.sigma2 == pytest.approx(np.mean(ts.values**2))


def test_yule_walker_consistency():
    ts = simulate_arma(builtin_models("m1", 0.9), 10000, 2024)
    m = yule_walker_fit(ts, 2)
    assert abs(m.ar[0] - 0.0) < 0.02
    assert abs(m.ar[1] + 0.81) < 0.02


def test_yule_walker_constant_series():
    with pytest.raises(NumericalError):
        yule_walker_fit(TimeSeries([0.0, 0.0, 0.0, 0.0]), 1)


def test_aic_default_candidate_cap():
    ts = TimeSeries(np.sin(np.arange(20)))
    sel = aic_select(ts)
    assert sel.k_n == 3  # floor(20**0.4)
    assert sel.aic_values.shape == (3,)
    assert 1 <= sel.chosen_p <= 3


# Reference: the residual path `_aic_rows` took before it read the residual
# sums off Levinson's variances, kept to check that identity against.
def _residual_variances(x, k_n):
    """s2_p for p = 1..k_n on the window t = k_n+1..n of each row of x,
    from the order-p residuals themselves."""
    n = x.shape[1]
    coeffs, _ = arfit._yule_walker_rows(x, k_n)
    lags = np.array([x[:, k_n - j : n - j] for j in range(1, k_n + 1)]).transpose(1, 0, 2)
    resid = coeffs[:, 1:, :] @ lags - x[:, None, k_n:]
    return np.einsum("ipt,ipt->ip", resid, resid) / (n - k_n)


def test_aic_rejects_zero_residual_variance():
    # a lone spike among the first k_n values leaves every candidate order
    # with zero residuals on the common window: log(0) must surface as an
    # error, not as an AIC of -inf.  Taken as n*sigma2_p less the edge sum,
    # that zero comes out as a rounding-sized number of either sign, so the
    # zero test must raise exactly where the residual path finds zeros; so
    # must a path whose values all lie in the first k_n - 1 places, which
    # order 1 predicts exactly on the window
    rng = np.random.default_rng(5)
    for n in (20, 57, 300):
        k_n = int(n**0.4)
        for position in range(n):
            for height in (1.0, 3e-7, -2e5):
                x = np.zeros(n)
                x[position] = height
                if position >= k_n:
                    assert _residual_variances(x[None], k_n).all()
                    assert aic_select(TimeSeries(x)).chosen_p == 1
                    continue
                assert not _residual_variances(x[None], k_n).any()
                with pytest.raises(NumericalError, match="zero residual variance at order 1"):
                    aic_select(TimeSeries(x))
        x = np.zeros(n)
        x[: k_n - 1] = rng.standard_normal(k_n - 1)
        assert not _residual_variances(x[None], k_n)[0, 0]
        with pytest.raises(NumericalError, match="zero residual variance at order 1"):
            aic_select(TimeSeries(x))


@st.composite
def _aic_paths(draw):
    """1 to 8 paths of length 4 to 600 (white noise, random walks, or AR(1)
    paths from zero with a root within 1e-4..0.1 of the unit circle) and a
    candidate cap: the default, or up to min(n - 2, 120), so up to n - 2
    itself for n <= 122 (the edge sums cost O(k_n**3) per row)."""
    n = draw(st.integers(4, 600))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((draw(st.integers(1, 8)), n))
    kind = draw(st.sampled_from(["noise", "walk", "near-unit-root"]))
    if kind == "walk":
        x = np.cumsum(noise, axis=1)
    elif kind == "near-unit-root":
        x = scipy.signal.lfilter([1.0], [1.0, draw(st.floats(1e-4, 0.1)) - 1.0], noise, axis=1)
    else:
        x = noise
    cap = min(n - 2, 120)
    return x, draw(st.none() | st.just(cap) | st.integers(1, cap))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_aic_paths())
def test_aic_matches_residual_path(case):
    """The AIC read off Levinson's variances chooses the residual path's
    orders, and its s2_p agree within 1e-12 relative plus the rounding of
    the identity, 32 * eps * n * c(0) * |v_p|_1**2 / (n - k_n): the residual
    sum is n*sigma2_p less the edge sum, both carrying the rounding of the
    sample autocovariances.  That second term is below 1e-13 relative on
    white noise at the default cap; near a unit root, and on a window of a
    few points, it admits the identity's loss (s2_p within about 1e-11
    relative measured for an AR(1) root 1e-4 from the circle)."""
    x, max_order = case
    n = x.shape[1]
    orders, _, _, aic = arfit._aic_rows(x, max_order)
    k_n = aic.shape[1]
    reference = _residual_variances(x, k_n)
    p = np.arange(1, k_n + 1)
    np.testing.assert_array_equal(orders, (np.log(reference) + 2.0 * p / n).argmin(axis=1) + 1)
    coeffs, _ = arfit._yule_walker_rows(x, k_n)
    rounding = n * np.mean(x * x, axis=1)[:, None] * (1.0 + np.abs(coeffs[:, 1:]).sum(axis=2)) ** 2 / (n - k_n)
    s2 = np.exp(aic - 2.0 * p / n)
    assert (np.abs(s2 - reference) <= 1e-12 * reference + 32 * np.finfo(float).eps * rounding).all()


def test_aic_memory_does_not_grow_with_n_times_order():
    # no array of n * k_n entries: one such array is 44 MB at n = 2**16 (k_n = 84)
    ts = simulate_arma(builtin_models("m2"), 2**16, 3)
    tracemalloc.start()
    try:
        sel = aic_select(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sel.k_n == 84
    assert peak < 4e6


def test_aic_determinism():
    ts = simulate_arma(builtin_models("m1", 0.9), 100, 42)
    a = aic_select(ts)
    b = aic_select(ts)
    assert a.chosen_p == b.chosen_p == 2
    np.testing.assert_array_equal(a.aic_values, b.aic_values)


def test_aic_recovers_order_mostly():
    """Order-2 truth wins AIC far more often than any other candidate.

    AIC overfits with positive probability by design (roughly
    sum_k P(chi2_k > 2k) ~ 0.3 across 20 candidates at this n), so the
    hit rate plateaus near 70%, never 90%+.
    """
    model = builtin_models("m1", 0.9)
    counts = np.zeros(21, dtype=int)
    for b in range(100):
        sel = aic_select(simulate_arma(model, 2000, 1000 + b))
        counts[sel.chosen_p] += 1
    assert counts[2] >= 60
    assert counts[2] == counts.max()
    assert counts[:2].sum() == 0  # underfitting essentially impossible here


def test_aic_bounds():
    with pytest.raises(DomainError):
        aic_select(TimeSeries([1.0, 2.0, 1.0]))
    ts = TimeSeries(np.arange(10.0))
    with pytest.raises(DomainError):
        aic_select(ts, max_order=9)


def test_ar_density_known_values():
    m = ArmaModel([0.0, -0.81], [], 1.0)
    dens = m.density(np.array([0.0, np.pi / 2]))
    assert dens[0] == pytest.approx((1 + 0.81) ** -2)
    assert dens[1] == pytest.approx((1 - 0.81) ** -2)  # ~27.7008


def test_arma_expand_pure_ar_passthrough():
    model = ArmaModel([0.5], [], 1.0)
    e = arma_expand(model, M=10)
    np.testing.assert_allclose(e.ar_inf, [0.5] + [0.0] * 9, atol=1e-15)
    # textbook AR(1) autocovariance 0.5^r / (1 - 0.25)
    np.testing.assert_allclose(e.autocov.lags, 0.5 ** np.arange(11) / 0.75, rtol=1e-12)


def test_arma_expand_arma11_recursion():
    e = arma_expand(ArmaModel([0.5], [0.4], 1.0), M=6)
    a = e.ar_inf
    assert a[0] == pytest.approx(0.9)
    assert a[1] == pytest.approx(-0.36)
    for j in range(2, 6):
        assert a[j] == pytest.approx(-0.4 * a[j - 1], rel=1e-12)


def test_arma_expand_ma1_autocov():
    e = arma_expand(ArmaModel([], [0.4], 1.0), M=4)
    np.testing.assert_allclose(e.autocov.lags, [1.16, 0.4, 0.0, 0.0, 0.0], atol=1e-14)


def test_arma_expand_requires_invertible_ma():
    with pytest.raises(DomainError):
        arma_expand(ArmaModel([], [1.0], 1.0), M=5)


def test_arma_expand_roundtrip_levinson():
    # population autocovariances fed back through the recursion recover
    # the generating coefficients
    for coeffs in ([0.6], [0.5, -0.3], [0.2, 0.1, -0.25]):
        model = ArmaModel(coeffs, [], 1.3)
        cov = arma_expand(model, M=len(coeffs) + 4).autocov
        fit = levinson_durbin(cov, len(coeffs))
        np.testing.assert_allclose(fit.ar, coeffs, rtol=1e-8, atol=1e-10)
        assert fit.sigma2 == pytest.approx(1.3, rel=1e-8)


def test_arma_expand_density_integrates_to_autocov():
    model = builtin_models("m2")
    e = arma_expand(model, M=50)
    w = (np.arange(4096) + 0.5) * 2 * np.pi / 4096
    f = model.density(w)
    for r in range(6):
        quad = np.mean(f * np.cos(r * w))
        assert quad == pytest.approx(e.autocov.lags[r], rel=1e-6)


def test_builtin_models_frozen_coefficients():
    m1 = builtin_models("m1", 0.7)
    np.testing.assert_allclose(m1.ar, [0.0, -0.49])
    assert m1.ma.size == 0
    m2 = builtin_models("m2")
    np.testing.assert_allclose(
        m2.ar, [1.6725441505626517, -1.4907809053938563, 0.5670000000000001]
    )
    np.testing.assert_allclose(m2.ma, [0.5, 0.5])
    with pytest.raises(DomainError):
        builtin_models("m1", 1.0)
    with pytest.raises(DomainError):
        builtin_models("m2", 0.5)


def test_explicit_takes_an_ar_model():
    # an AR(p) model is an ArmaModel with no MA part
    assert Explicit(builtin_models("m1", 0.9)).model.q == 0
    with pytest.raises(DomainError, match="moving-average part"):
        Explicit(builtin_models("m2"))


# Reference: the power-series recursions `arma_expand` ran before it took both
# series from `scipy.signal.lfilter`, kept to check the filter against.
def _series_quotient(num, den, count):
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


def _reference_ma_weights(model, tol=1e-14, cap=200_000):
    chi = [1.0]
    k = 0
    window = 1 + model.p + model.q
    while k < cap:
        k += 1
        v = model.ma[k - 1] if k <= model.q else 0.0
        for i in range(1, min(k, model.p) + 1):
            v += model.ar[i - 1] * chi[k - i]
        chi.append(v)
        if k >= window and max(abs(c) for c in chi[-window:]) < tol:
            return np.asarray(chi)
    raise NumericalError("MA-representation weights did not decay")


def _reference_expand(model, M=None):
    phi = np.concatenate(([1.0], -model.ar))
    psi = np.concatenate(([1.0], model.ma))
    if M is None:
        pi_full = _series_quotient(phi, psi, 5000)
        keep = np.nonzero(np.abs(pi_full) >= 1e-12)[0]
        M = int(keep[-1]) + 1 if keep.size else 1
        ar_inf = -pi_full[:M]
    else:
        ar_inf = -_series_quotient(phi, psi, M)
    chi = _reference_ma_weights(model)
    pad = np.concatenate((chi, np.zeros(M)))
    autocov = model.sigma2 * np.array([chi @ pad[r : r + chi.size] for r in range(M + 1)])
    return ar_inf, chi, autocov


@st.composite
def _inverse_roots(draw, max_degree):
    """Monic polynomial coefficients [1, c_1, .., c_d] of prod (u - r) over
    inverse roots of modulus <= 0.99, spread to z**stride (a sparse pattern
    with every second, third or fourth lag zero) when stride > 1."""
    stride = draw(st.sampled_from([1, 1, 2, 3, 4]))
    bound = 0.99 ** stride  # roots of the spread polynomial stay within 0.99
    degree = draw(st.integers(0, max_degree // stride))
    roots = []
    while len(roots) < degree:
        rho = draw(st.floats(0.0, bound))
        if degree - len(roots) >= 2 and draw(st.booleans()):
            angle = draw(st.floats(0.0, np.pi))
            roots += [rho * np.exp(1j * angle), rho * np.exp(-1j * angle)]
        else:
            roots.append(rho * draw(st.sampled_from([1.0, -1.0])))
    base = np.poly(roots).real if roots else np.ones(1)
    spread = np.zeros(degree * stride + 1)
    spread[::stride] = base
    return spread


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ar=_inverse_roots(4), ma=_inverse_roots(3), sigma2=st.floats(0.1, 10.0), M=st.integers(1, 60))
def test_arma_expand_matches_reference_recursions(ar, ma, sigma2, M):
    model = ArmaModel(-ar[1:], ma[1:], sigma2)
    ar_inf, chi, autocov = _reference_expand(model)
    e = arma_expand(model)
    assert e.ar_inf.size == ar_inf.size  # the same cut at 1e-12
    np.testing.assert_allclose(e.ar_inf, ar_inf, rtol=1e-12, atol=1e-12 * np.abs(ar_inf).max())
    weights = _ma_weights(model)
    assert weights.size == chi.size  # the same cut at 1e-14
    np.testing.assert_allclose(weights, chi, rtol=1e-12, atol=1e-12 * np.abs(chi).max())
    np.testing.assert_allclose(e.autocov.lags, autocov, rtol=1e-12, atol=1e-12 * autocov[0])
    fixed = arma_expand(model, M=M)
    ar_inf, _, autocov = _reference_expand(model, M)
    np.testing.assert_allclose(fixed.ar_inf, ar_inf, rtol=1e-12, atol=1e-12 * np.abs(ar_inf).max())
    np.testing.assert_allclose(fixed.autocov.lags, autocov, rtol=1e-12, atol=1e-12 * autocov[0])


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
def test_ma_weights_independent_of_chunk_length(monkeypatch, chunk):
    # the cut does not depend on the length of the first filter, however short
    models = [builtin_models("m2"), builtin_models("m1", 0.9), ArmaModel([0.0, 0.0, 0.5], [0.0, 0.3], 2.0),
              ArmaModel([0.995], [], 1.0), ArmaModel([], [0.4], 1.0), ArmaModel([], [], 1.0)]
    whole = [_ma_weights(m) for m in models]
    monkeypatch.setattr(arfit, "_MA_CHUNK", chunk)
    for model, weights in zip(models, whole):
        np.testing.assert_array_equal(_ma_weights(model), weights)
        reference = _reference_ma_weights(model)
        assert weights.size == reference.size
        np.testing.assert_allclose(weights, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max())


def test_arma_expand_weight_cap():
    # 0.9999**k falls below 1e-14 only past k = 322000, beyond the weight cap
    with pytest.raises(NumericalError):
        arma_expand(ArmaModel([0.9999], [], 1.0), M=5)


def test_acf_experiment_on_unit_circle_ma():
    # the MA root on the unit circle rules out the AR expansion, not the
    # autocovariances an ACF experiment is judged against
    model = ArmaModel([0.5], [1.0], 1.0)
    with pytest.raises(DomainError):
        arma_expand(model)
    spec = ExperimentSpec(model, n=20, replications=4, estimators=(EstimatorSpec("regular"),),
                          seed=3, acf_lags=3)
    # rho(1) = (1 + ar*ma) * (ar + ma) / (1 + 2*ar*ma + ma**2) = 0.75, then halving
    np.testing.assert_allclose(_Prep(spec).true_target, [0.75, 0.375, 0.1875], rtol=1e-12)
    table = run_experiment(spec)
    assert table.mode == "acf"
    assert np.isfinite(table.rows[0].imse)
