import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predspec import (
    ArmaModel,
    AutoAIC,
    CovarianceSequence,
    DomainError,
    Explicit,
    FixedOrder,
    FrequencyGrid,
    NumericalError,
    TimeSeries,
    Taper,
    TruncatedInfinite,
    dft,
    predictive_dft,
    raw_periodogram,
    sample_autocov,
    tukey_taper,
    yule_walker_fit,
)


def test_timeseries_basic():
    ts = TimeSeries([1.0, 2.0, 3.0])
    assert ts.n == 3
    c = ts.center()
    np.testing.assert_allclose(c.values, [-1.0, 0.0, 1.0])
    # original untouched
    np.testing.assert_allclose(ts.values, [1.0, 2.0, 3.0])


def test_timeseries_rejects_bad_input():
    with pytest.raises(DomainError):
        TimeSeries([])
    with pytest.raises(DomainError):
        TimeSeries([1.0, np.nan])
    with pytest.raises(DomainError):
        TimeSeries([1.0, np.inf])


def test_timeseries_values_read_only():
    ts = TimeSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        ts.values[0] = 5.0


def test_fourier_grid_layout():
    g = FrequencyGrid.fourier(4)
    np.testing.assert_allclose(g.frequencies, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert g.kind == "fourier"
    assert g.size == 4


def test_uniform_grid_midpoints():
    g = FrequencyGrid.uniform(4)
    np.testing.assert_allclose(g.frequencies, np.array([0.5, 1.5, 2.5, 3.5]) * np.pi / 2)
    assert g.kind == "uniform"


def test_explicit_grid_validation():
    g = FrequencyGrid.explicit([0.5, 1.0])
    assert g.kind == "explicit"
    with pytest.raises(DomainError):
        FrequencyGrid.explicit([1.0, 0.5])  # not increasing
    with pytest.raises(DomainError):
        FrequencyGrid.explicit([-0.1])
    with pytest.raises(DomainError):
        FrequencyGrid.explicit([2 * np.pi])  # half-open interval


def test_lattice_grid_validation():
    """dft evaluates fourier and uniform grids by FFT, so those kinds accept
    exactly the frequencies their classmethods build."""
    for kind, count in (("fourier", 6), ("uniform", 6), ("fourier", 1), ("uniform", 1)):
        g = getattr(FrequencyGrid, kind)(count)
        assert FrequencyGrid(g.frequencies.copy(), kind=kind).kind == kind
    with pytest.raises(DomainError):
        FrequencyGrid(np.array([0.1, 0.2]), kind="fourier")
    with pytest.raises(DomainError):
        FrequencyGrid(np.array([0.1, 0.2]), kind="uniform")
    with pytest.raises(DomainError):
        FrequencyGrid(FrequencyGrid.uniform(6).frequencies, kind="fourier")
    with pytest.raises(DomainError):
        FrequencyGrid(FrequencyGrid.fourier(6).frequencies, kind="uniform")
    with pytest.raises(DomainError):
        FrequencyGrid(FrequencyGrid.fourier(6).frequencies[:5], kind="fourier")  # spacing of 6
    with pytest.raises(DomainError):
        FrequencyGrid(np.nextafter(FrequencyGrid.fourier(6).frequencies, 7.0), kind="fourier")
    with pytest.raises(DomainError, match="unknown grid kind 'bogus'"):
        FrequencyGrid(FrequencyGrid.fourier(6).frequencies, kind="bogus")
    for bad in (0, -3):
        with pytest.raises(DomainError):
            FrequencyGrid.fourier(bad)
        with pytest.raises(DomainError):
            FrequencyGrid.uniform(bad)


def test_sample_autocov_known_values():
    # direct evaluation of the biased (divisor n) definition
    c = sample_autocov(TimeSeries([1.0, -1.0, 1.0, -1.0]), 3)
    np.testing.assert_allclose(c.lags, [1.0, -0.75, 0.5, -0.25])
    c2 = sample_autocov(TimeSeries([1.0, 2.0, 0.0, -1.0]), 3)
    np.testing.assert_allclose(c2.lags, [1.5, 0.5, -0.5, -0.25])


def test_sample_autocov_zero_series():
    c = sample_autocov(TimeSeries([0.0, 0.0, 0.0, 0.0]), 2)
    np.testing.assert_allclose(c.lags, [0.0, 0.0, 0.0])


def test_sample_autocov_lag_bounds():
    ts = TimeSeries([1.0, 2.0])
    with pytest.raises(DomainError):
        sample_autocov(ts, 2)
    with pytest.raises(DomainError):
        sample_autocov(ts, -1)


def test_sample_autocov_toeplitz_psd():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        ts = TimeSeries(rng.standard_normal(n))
        c = sample_autocov(ts, n - 1)
        eig = np.linalg.eigvalsh(c.toeplitz(n))
        assert eig.min() >= -1e-9 * c.lags[0]


def test_covariance_sequence_validation():
    cov = CovarianceSequence([1.0, 0.5])
    # upto(L) is c(0..L), and the one place a reader learns the lags fall short
    assert cov.upto(0).tolist() == [1.0] and cov.upto(1).tolist() == [1.0, 0.5]
    for L, match in ((2, "holds lags 0..1, need 0..2"), (-1, "lag L must be >= 0")):
        with pytest.raises(DomainError, match=match):
            cov.upto(L)
    # every autocovariance sequence, sampled or model-derived, has |c(k)| <= c(0)
    for lags in ([1.0, 1.5], [1.0, 0.5, -1.5], [0.0, 0.1], [-1.0, 0.0]):
        with pytest.raises(DomainError):
            CovarianceSequence(lags)


def test_dft_phase_convention():
    # single unit impulse at t=1: J(w) = n^{-1/2} e^{iw}
    ts = TimeSeries([1.0, 0.0, 0.0, 0.0])
    g = FrequencyGrid.explicit([np.pi / 2])
    val = dft(ts, g)[0]
    assert val == pytest.approx(0.5j)


def test_dft_at_zero_collapses_to_mean():
    ts = TimeSeries([3.0, 1.0, -2.0, 4.0, 0.5])
    g = FrequencyGrid.explicit([0.0])
    assert dft(ts, g)[0] == pytest.approx(np.sum(ts.values) / np.sqrt(5))


def test_dft_hermitian_symmetry():
    rng = np.random.default_rng(11)
    ts = TimeSeries(rng.standard_normal(16))
    w = 0.37
    g = FrequencyGrid.explicit([w, 2 * np.pi - w])
    vals = dft(ts, g)
    assert vals[1] == pytest.approx(np.conj(vals[0]), rel=1e-12)


@st.composite
def _lattice_case(draw):
    """A series of length 1..400, a fourier or uniform grid of 1..600 points
    (so M < n, M = n and M > n all occur) and an optional Tukey taper."""
    n = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(["fourier", "uniform"]))
    M = draw(st.one_of(st.just(n), st.integers(1, 600)))
    taper = None
    if n >= 2 and draw(st.booleans()):
        taper = tukey_taper(n, draw(st.integers(1, n // 2)))
    x = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(n)
    return TimeSeries(x), getattr(FrequencyGrid, kind)(M), taper


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lattice_case())
def test_dft_fft_path_matches_direct_sum(case):
    """The FFT path for lattice grids against the direct sum over the same
    frequencies given as an explicit grid."""
    ts, grid, taper = case
    direct = dft(ts, FrequencyGrid.explicit(grid.frequencies), taper)
    fast = dft(ts, grid, taper)
    np.testing.assert_allclose(fast, direct, rtol=0.0, atol=1e-10 * float(np.max(np.abs(direct))))


_PHASE_NS = (1, 7, 20, 50, 300, 997, 1024, 1399)
_PHASE_CASES = {
    **{f"fourier-n{n}": (n, FrequencyGrid.fourier(n)) for n in _PHASE_NS},
    **{f"uniform500-n{n}": (n, FrequencyGrid.uniform(500)) for n in _PHASE_NS},
    "uniform7-n300": (300, FrequencyGrid.uniform(7)),
}


@pytest.mark.parametrize("n, grid", list(_PHASE_CASES.values()), ids=list(_PHASE_CASES))
def test_phase_sums_equal_scipy_fft_bit_for_bit(n, grid):
    """`_phase_sums` (np.fft) against scipy.fft on the same folded buffer.

    From numpy 2.0 both run the C++ pocketfft, and they agreed bit for bit
    at numpy 2.4.6 and scipy 1.17.1, where the table digest was pinned.  If
    an upgrade moves the digest, this test says whether the FFT moved.  The
    buffer is folded here by chunks of M slots; Fourier grids fold slot n
    onto slot 0, and the 7-cell grid sums 43 chunks of a 300-point series."""
    import scipy.fft

    from predspec.core import _phase_sums

    M, w0 = grid.size, grid.frequencies[0]
    for rows in (1, 32):
        x = np.random.default_rng(n + rows).standard_normal((rows, n))
        phased = x * np.exp(1j * w0 * np.arange(1, n + 1)) if w0 else x
        chunks = np.zeros((rows, -(-(n + 1) // M), M), dtype=complex)
        chunks.reshape(rows, -1)[:, 1 : n + 1] = phased
        folded = chunks[:, 0].copy()
        for k in range(1, chunks.shape[1]):
            folded += chunks[:, k]
        want = scipy.fft.ifft(folded, norm="forward")
        assert _phase_sums(x, grid).tobytes() == want.tobytes(), rows


def test_tukey_taper_frozen_shape():
    """n=10, d=2: rise values and raw moments evaluated by hand."""
    t = tukey_taper(10, 2)
    raw1 = 0.5 * (1 - np.cos(np.pi * 0.5 / 2))
    assert t.weights[0] == pytest.approx(raw1 * 10 / 8)
    assert t.weights[4] == pytest.approx(1.25)
    assert t.h1 == pytest.approx(8.0)
    assert t.h2 == pytest.approx(7.5)
    assert np.sum(t.weights) == pytest.approx(10.0)


def test_tukey_taper_symmetry_and_bounds():
    for n, d in ((20, 2), (21, 3), (8, 4)):
        t = tukey_taper(n, d)
        np.testing.assert_allclose(t.weights, t.weights[::-1], atol=1e-14)
        assert np.sum(t.weights) == pytest.approx(n)
        # a Taper built from the same shape is the same taper, bit for bit
        same = Taper(t.shape)
        assert same.weights.tobytes() == t.weights.tobytes() and (same.h1, same.h2) == (t.h1, t.h2)
        assert not t.weights.flags.writeable
    with pytest.raises(DomainError):
        tukey_taper(10, 0)
    with pytest.raises(DomainError):
        tukey_taper(10, 6)  # 2d > n
    with pytest.raises(DomainError, match="must be nonnegative"):
        Taper(np.array([-1.0, 3.0]))
    for shape in (np.zeros(4), np.array([1e-200, 0.0])):  # the second's squares underflow to 0
        with pytest.raises(DomainError, match="positive, finite sum of squares"):
            Taper(shape)
    with pytest.raises(DomainError, match="taper length does not match"):
        dft(TimeSeries(np.ones(10)), FrequencyGrid.fourier(10), tukey_taper(12, 2))


def test_all_ones_taper_is_identity_for_dft():
    rng = np.random.default_rng(3)
    ts = TimeSeries(rng.standard_normal(12))
    g = FrequencyGrid.fourier(12)
    np.testing.assert_allclose(dft(ts, g, Taper(np.ones(12))), dft(ts, g), rtol=1e-14)


def test_raw_periodogram_known_values():
    ts = TimeSeries([1.0, -1.0, 1.0, -1.0])
    pg = raw_periodogram(ts, FrequencyGrid.fourier(4))
    assert pg.kind == "regular"
    np.testing.assert_allclose(pg.values.imag, 0.0)
    vals = pg.values.real
    assert vals[0] == pytest.approx(0.0, abs=1e-14)  # w = 0
    assert vals[1] == pytest.approx(0.0, abs=1e-14)  # w = pi/2
    assert vals[2] == pytest.approx(4.0)             # w = pi


def test_raw_periodogram_parseval():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(17)
    ts = TimeSeries(x)
    pg = raw_periodogram(ts, FrequencyGrid.fourier(17))
    assert np.sum(pg.values.real) == pytest.approx(np.sum(x**2), rel=1e-9)


def test_tapered_periodogram_uses_raw_shape():
    # tapered value = |sum h_raw x e|^2 / H2, independent of the sum-n rescale
    rng = np.random.default_rng(9)
    x = rng.standard_normal(10)
    t = tukey_taper(10, 2)
    g = FrequencyGrid.explicit([0.9])
    pg = raw_periodogram(TimeSeries(x), g, t)
    raw = t.weights * t.h1 / 10.0
    expect = np.abs(np.sum(raw * x * np.exp(1j * 0.9 * np.arange(1, 11)))) ** 2 / t.h2
    assert pg.kind == "tapered"
    assert pg.values.real[0] == pytest.approx(expect, rel=1e-12)
    # the periodogram depends on the shape only up to scale
    for c in (0.5, 3.0):
        scaled = raw_periodogram(TimeSeries(x), g, Taper(c * t.shape))
        np.testing.assert_allclose(scaled.values, pg.values, rtol=1e-14)


def test_periodogram_estimate_kind_validation():
    g = FrequencyGrid.fourier(3)
    from predspec import PeriodogramEstimate, PgMeta

    with pytest.raises(DomainError):
        PeriodogramEstimate(g, np.array([1.0 + 1j, 1.0, 1.0]), "regular", PgMeta())
    with pytest.raises(DomainError):
        PeriodogramEstimate(g, np.array([-0.1, 1.0, 1.0], dtype=complex), "regular", PgMeta())
    with pytest.raises(DomainError):
        PeriodogramEstimate(g, np.array([1.0, 1.0], dtype=complex), "regular", PgMeta())
    with pytest.raises(DomainError, match="unknown periodogram kind 'bogus'"):
        PeriodogramEstimate(g, np.ones(3, dtype=complex), "bogus", PgMeta())
    with pytest.raises(DomainError, match="must record its threshold"):
        PeriodogramEstimate(g, np.ones(3, dtype=complex), "thresholded-real", PgMeta())
    with pytest.raises(DomainError, match="must be real and >= threshold"):
        PeriodogramEstimate(g, np.array([1.0, 0.5, 1.0], dtype=complex), "thresholded-real", PgMeta(threshold=0.6))
    # complete estimates may be complex
    PeriodogramEstimate(g, np.array([1.0 + 0.3j, 1.0, 1.0]), "complete", PgMeta(order=2))


_HUGE = TimeSeries([1.7e308, -1.7e308, 1.0, 1.7e308] * 4)
_GRIDS = {
    "fourier": FrequencyGrid.fourier(16),
    "uniform": FrequencyGrid.uniform(7),
    "explicit": FrequencyGrid.explicit([0.0, 1.0, 3.0]),
}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: sample_autocov(_HUGE, 2), "sample autocovariances overflow"),
        (lambda g: yule_walker_fit(_HUGE, 2), "sample autocovariances overflow"),
        (lambda g: dft(_HUGE, g), "DFT overflows"),
        (lambda g: dft(_HUGE, g, tukey_taper(16, 2)), "DFT overflows"),
        (lambda g: predictive_dft(_HUGE, Explicit(ArmaModel([0.9], [], 1.0)), g), "predictive DFT overflows"),
        (lambda g: predictive_dft(_HUGE, TruncatedInfinite([0.9, 0.0, 0.0]), g), "predictive DFT overflows"),
        (lambda g: predictive_dft(_HUGE, AutoAIC(), g), "sample autocovariances overflow"),
        (lambda g: predictive_dft(_HUGE, FixedOrder(1), g), "sample autocovariances overflow"),
        (lambda g: raw_periodogram(_HUGE, g), "periodogram overflows"),
    ],
    ids=["sample_autocov", "yule_walker_fit", "dft", "tapered-dft", "predictive_dft-explicit",
         "predictive_dft-truncated", "predictive_dft-aic", "predictive_dft-fixed", "raw_periodogram"],
)
@pytest.mark.parametrize("grid", list(_GRIDS), ids=list(_GRIDS))
def test_overflow_is_numerical_error(call, message, grid):
    # finite values near the float maximum: numerical breakdown with one
    # message per quantity, not bad input, a numpy warning (an error under
    # this suite's filterwarnings) or an infinity
    with pytest.raises(NumericalError, match=f"^{message}: the series is too large$"):
        call(_GRIDS[grid])
