"""Time grids: the routes of spectra._phase_sums, and the carpet's phases, against per-time evaluation.

Each route must agree with per-sample calls to the float64 rounding of the
largest phase chi E t, plus the product chains of spectra._phase_factors and
the summation of N terms. The folded route's values against mpmath are in
test_mpmath_referee.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from revivals import spectra
from revivals.carpets import carpet, position_wavefunction
from revivals.fock import CoherentLabel, number_distribution
from revivals.moments import autocorrelation
from revivals.spectra import Spectrum, _folded_sums, _phase_factors, revival_time

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

EPS = float(np.finfo(np.float64).eps)

SPECTRA = {
    "kerr": Spectrum.kerr,
    "harmonic": Spectrum.harmonic,
    "square_well": Spectrum.square_well,
    # Non-integer levels 7n/5 + 3n^2/11 at sqrt(2) times the rate: spacings
    # that are irrational multiples of chi, with no integer structure.
    "irrational": lambda chi: Spectrum((0, Fraction(7, 5), Fraction(3, 11)), math.sqrt(2.0) * chi),
}


def _bound(spectrum, levels, times):
    """16 eps (chi E_max max|t| + N): phase rounding plus an N-term sum."""
    e_max = float(np.max(np.abs(spectrum.energies(levels - 1))))
    t_max = float(np.max(np.abs(times))) if np.size(times) else 0.0
    return 16.0 * EPS * (spectrum.chi * e_max * t_max + levels)


def _per_sample(label, spectrum, times):
    return np.array([autocorrelation(label, spectrum, float(t)) for t in times])


def _giant_rows(spectrum, times):
    giant, baby = _phase_factors(spectrum, 4, times, 1.0)
    assert giant.shape[1] == baby.shape[1] == 5
    return giant.shape[0], baby.shape[0]


sizes = st.one_of(
    st.sampled_from([1, 2, 3]),
    st.integers(2, 12).flatmap(lambda b: st.sampled_from([b * b, b * b + 1])),
)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(SPECTRA)),
    nu=st.floats(0.0, 150.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    chi=st.floats(0.2, 3.0),
    t0=st.floats(-12.0, 12.0),
    span=st.floats(-12.0, 12.0).filter(lambda s: abs(s) > 1e-3),
    m=sizes,
)
def test_even_grid_matches_per_sample_calls(name, nu, angle, chi, t0, span, m):
    spectrum = SPECTRA[name](chi)
    label = CoherentLabel.from_alpha(math.sqrt(nu) * complex(math.cos(angle), math.sin(angle)))
    times = np.linspace(t0, t0 + span, m)
    # linspace grids take the factored route with B = isqrt(M - 1) + 1.
    step = math.isqrt(m - 1) + 1 if m > 2 else 1
    assert _giant_rows(spectrum, times) == (-(-m // step), step)
    values = autocorrelation(label, spectrum, times)
    assert values.shape == (m,)
    reference = _per_sample(label, spectrum, times)
    levels = number_distribution(label).size
    assert np.max(np.abs(values - reference)) <= _bound(spectrum, levels, times)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(SPECTRA)),
    nu=st.floats(0.0, 150.0),
    t_end=st.floats(0.5, 20.0),
    m=st.integers(3, 120),
    shuffle_seed=st.integers(0, 2**32 - 1),
    geometric=st.booleans(),
)
def test_uneven_times_take_one_exponential_each(name, nu, t_end, m, shuffle_seed, geometric):
    spectrum = SPECTRA[name](1.3)
    label = CoherentLabel.from_alpha(math.sqrt(nu))
    if geometric:
        times = np.geomspace(1e-2, t_end, m)
    else:
        times = np.random.default_rng(shuffle_seed).permutation(np.linspace(0.0, t_end, m))
        if abs(np.sum(np.sign(np.diff(times)))) == m - 1:
            # A sorted or reversed shuffle is still an even grid.
            times[[0, 1]] = times[[1, 0]]
    assert _giant_rows(spectrum, times) == (m, 1)
    values = autocorrelation(label, spectrum, times)
    levels = number_distribution(label).size
    reference = _per_sample(label, spectrum, times)
    assert np.max(np.abs(values - reference)) <= _bound(spectrum, levels, times)


def test_scalar_one_element_and_empty_times():
    spectrum = Spectrum.kerr(1.0)
    label = CoherentLabel(1.0, 2.0)
    assert _giant_rows(spectrum, np.array([0.5])) == (1, 1)
    value = autocorrelation(label, spectrum, 0.5)
    assert isinstance(value, complex)
    (table,) = autocorrelation(label, spectrum, np.array([0.5]))
    levels = number_distribution(label).size
    assert abs(table - value) <= _bound(spectrum, levels, [0.5])
    assert autocorrelation(label, spectrum, np.array([])).shape == (0,)
    grid = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    assert autocorrelation(label, spectrum, grid).shape == (2, 3)


def test_twenty_thousand_samples_across_blocks(monkeypatch):
    # nu = 50: 142 levels, of which the first two weigh below 2^-64 and are
    # left out. An uneven grid takes one exponential per cell in blocks of
    # 2_000_000 // 140 = 14285 times, so 20001 times split in two; both edges
    # of the split are checked. The even grid is factored, and its
    # (141 + 142) 140 cells of giant and baby rows run in one block.
    spectrum = Spectrum.kerr(0.9)
    label = CoherentLabel.from_alpha(math.sqrt(50.0) * 1j)
    weights = number_distribution(label)
    levels = weights.size
    assert levels == 142 and np.sum(weights[:2]) < 2.0**-64 <= np.sum(weights[:3])
    blocks = []

    def counted(spectrum, truncation, times, sign, first, step):
        blocks.append((times.size, truncation + 1 - first))
        return _phase_factors(spectrum, truncation, times, sign, first, step)

    monkeypatch.setattr(spectra, "_phase_factors", counted)
    even = np.linspace(-3.0, 17.0, 20001)
    uneven = even.copy()
    uneven[[0, 1]] = uneven[[1, 0]]
    block = 2_000_000 // 140
    picks = np.unique(np.r_[0:20001:197, block - 2 : block + 2, 19995:20001])
    for times, sizes in ((uneven, [block, 20001 - block]), (even, [20001])):
        blocks.clear()
        values = autocorrelation(label, spectrum, times)
        assert blocks == [(size, 140) for size in sizes]
        reference = _per_sample(label, spectrum, times[picks])
        assert np.max(np.abs(values[picks] - reference)) <= _bound(spectrum, levels, times)


def test_factored_grid_too_large_for_one_block(monkeypatch):
    # With 30_000 cells a block, the even grid's giant and baby rows,
    # (141 + 142) 140 cells, do not fit, so it runs in blocks of
    # 30_000 // 140 = 214 times, each factored on its own with
    # B = isqrt(213) + 1 = 15; the last 99 times take B = 10. The whole grid
    # passed the evenness test, so no block is tested again: blocks 13 and
    # 14 straddle t = 0, where linspace's rounding exceeds 4 eps of the
    # block's own max|t|, and are factored all the same.
    spectrum = Spectrum.kerr(0.9)
    label = CoherentLabel.from_alpha(math.sqrt(50.0) * 1j)
    levels = number_distribution(label).size
    blocks = []

    def counted(spectrum, truncation, times, sign, first, step):
        giant, baby = _phase_factors(spectrum, truncation, times, sign, first, step)
        blocks.append((times.size, baby.shape[0]))
        return giant, baby

    monkeypatch.setattr(spectra, "_phase_factors", counted)
    monkeypatch.setattr(spectra, "_BLOCK_CELLS", 30_000)
    times = np.linspace(-3.0, 17.0, 20001)
    values = autocorrelation(label, spectrum, times)
    assert blocks == [(214, 15)] * 93 + [(99, 10)]
    edges = 214 * np.array([1, 13, 14, 15, 46, 93])
    picks = np.r_[0, edges - 1, edges, 20000]
    reference = _per_sample(label, spectrum, times[picks])
    assert np.max(np.abs(values[picks] - reference)) <= _bound(spectrum, levels, times)


def _label_at(nu):
    return CoherentLabel.from_alpha(math.sqrt(nu) * complex(0.6, -0.8))


@pytest.mark.parametrize("samples", [785, 801])
@pytest.mark.parametrize("nu", [100.0, 1100.0, 2500.0])
@pytest.mark.parametrize("name", ["kerr", "harmonic", "square_well"])
def test_cli_default_grid_folds_from_nu_100(monkeypatch, name, nu, samples):
    # The CLI's default grid, linspace(0, T_rev, M), cuts the period into
    # P = M - 1 steps, and (N + 1) M >= 8 P log2 P from nu = 100 up.
    spectrum = SPECTRA[name](1.7)
    label = _label_at(nu)
    times = np.linspace(0.0, revival_time(spectrum), samples)
    folded = _folded_sums(spectrum, number_distribution(label), times)
    assert folded is not None
    monkeypatch.setattr(spectra, "_phase_factors", lambda *args: pytest.fail("factored route"))
    assert autocorrelation(label, spectrum, times).tobytes() == folded.tobytes()


def test_grids_the_fold_does_not_serve_stay_factored():
    spectrum = Spectrum.kerr(1.3)
    period = revival_time(spectrum)
    weights = number_distribution(_label_at(400.0))
    off_period = np.linspace(0.0, 0.7137 * period, 801)
    uneven = np.linspace(0.0, period, 801)
    uneven[[5, 6]] = uneven[[6, 5]]
    for times in (off_period, uneven, np.geomspace(1e-3 * period, period, 801)):
        assert _folded_sums(spectrum, weights, times) is None
    # P = 2^22 + 1 steps lies above the cap, though 3 times at 3e8 levels
    # would pay for it; the broadcast weights take no memory.
    many = np.broadcast_to(1e-9, (300_000_000,))
    assert _folded_sums(spectrum, many, np.arange(3) * (period / (2**22 + 1))) is None
    # trace_export's autocorr jobs: nu <= 10 and 1k-20k samples over one
    # period, where 8 P log2 P exceeds (N + 1) M.
    for name in ("kerr", "square_well"):
        spectrum = SPECTRA[name](2.1)
        for nu in (1.0, 10.0):
            for samples in (1_000, 7_000, 20_000):
                times = np.linspace(0.0, revival_time(spectrum), samples)
                assert _folded_sums(spectrum, number_distribution(_label_at(nu)), times) is None


def test_refusals_come_before_the_fold(monkeypatch):
    label = _label_at(400.0)
    grid = np.linspace(0.0, math.pi, 801)
    assert _folded_sums(Spectrum.kerr(1.0), number_distribution(label), grid) is not None
    monkeypatch.setattr(spectra, "_folded_sums", lambda *args: pytest.fail("fold before the refusal"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for chi in (math.inf, math.nan, 0.0, -1.0):
            broken = Spectrum.kerr(1.0)
            object.__setattr__(broken, "chi", chi)   # past the constructor's own check
            with pytest.raises(ValueError, match="chi must be finite and positive"):
                autocorrelation(label, broken, grid)
        for bad in (math.inf, -math.inf, math.nan):
            times = grid.copy()
            times[400] = bad
            with pytest.raises(ValueError, match="time must be finite"):
                autocorrelation(label, Spectrum.kerr(1.0), times)
        overflowing = Spectrum.kerr(1.0)
        object.__setattr__(overflowing, "chi", 1e308)
        with pytest.raises(ValueError, match="phases chi E t overflow float64"):
            autocorrelation(label, overflowing, grid)


def test_fold_keeps_shapes():
    spectrum = Spectrum.square_well(0.8)
    label = _label_at(400.0)
    period = revival_time(spectrum)
    levels = number_distribution(label).size
    assert autocorrelation(label, spectrum, np.array([])).shape == (0,)
    for times in (np.array([period]), np.array([0.0, period])):
        values = autocorrelation(label, spectrum, times)
        assert values.shape == times.shape
        assert np.max(np.abs(values - _per_sample(label, spectrum, times))) <= _bound(spectrum, levels, times)
    grid = np.linspace(0.0, period, 801)[:800]
    folded = autocorrelation(label, spectrum, grid)
    assert autocorrelation(label, spectrum, grid.reshape(20, 40)).tobytes() == folded.tobytes()


@pytest.mark.parametrize("nt", [2, 3, 401])
@pytest.mark.parametrize("name", ["kerr", "irrational"])
def test_carpet_rows_match_position_wavefunction(nt, name):
    spectrum = SPECTRA[name](1.1)
    label = CoherentLabel.from_alpha(4.0 * complex(0.6, 0.8))
    grid = carpet(label, spectrum, nx=48, t_min=-0.4, t_max=3.3, nt=nt)
    x = grid.x_axis()
    times = grid.t_axis()
    reference = np.array(
        [abs(position_wavefunction(label, x, t, spectrum)) ** 2 for t in times]
    )
    levels = number_distribution(label).size
    assert np.max(np.abs(grid.density - reference)) <= _bound(spectrum, levels, times)


# Kerr at nu = 2500: N = 3021 levels, E_max = 3020 * 3019.
KERR_2500 = Spectrum.kerr(1.0).energies(3020)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize(
    "t0, t1, m",
    [(0.0, math.pi, 801), (0.0, math.pi, 20001), (-2.3, 4.1, 20001)],
    ids=["cli-grid-801", "20001", "negative-t0-20001"],
)
def test_recurrence_rows_match_one_exponential_per_cell(sign, t0, t1, m):
    times = np.linspace(t0, t1, m)
    giant, baby = _phase_factors(Spectrum.kerr(1.0), 3020, times, sign)
    step = math.isqrt(m - 1) + 1
    rows = -(-m // step)
    assert giant.shape == (rows, KERR_2500.size) and baby.shape == (step, KERR_2500.size)
    dt = (times[-1] - times[0]) / (m - 1)
    rate = sign * 1j
    giant_ref = np.exp(rate * ((t0 + step * dt * np.arange(rows))[:, None] * KERR_2500))
    baby_ref = np.exp(rate * ((dt * np.arange(step))[:, None] * KERR_2500))
    e_max = float(KERR_2500[-1])
    bound = 16.0 * EPS * (e_max * np.max(np.abs(times)) + step + rows)
    assert np.max(np.abs(giant - giant_ref)) <= bound
    assert np.max(np.abs(baby - baby_ref)) <= bound
    drift = (step + rows) * EPS
    assert np.max(np.abs(np.abs(giant) - 1.0)) <= drift
    assert np.max(np.abs(np.abs(baby) - 1.0)) <= drift


class _CountingExp:
    """numpy namespace whose exp counts the elements it evaluates."""

    def __init__(self):
        self.cells = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x):
        self.cells += np.size(x)
        return np.exp(x)


@pytest.mark.parametrize("m", [3, 4, 801, 20001])
def test_even_grid_evaluates_three_exponential_rows(monkeypatch, m):
    counter = _CountingExp()
    monkeypatch.setattr(spectra, "np", counter)
    _phase_factors(Spectrum.kerr(1.0), 3020, np.linspace(-1.0, 2.0, m), 1.0)
    assert counter.cells == 3 * KERR_2500.size


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize(
    "times",
    [np.array([0.7]), np.array([-0.3, 2.9]), np.geomspace(1e-3, 40.0, 50)],
    ids=["one", "two", "uneven"],
)
def test_dense_route_is_one_exponential_per_cell(sign, times):
    spectrum = Spectrum.kerr(0.9)
    energies = spectrum.energies(200)
    giant, baby = _phase_factors(spectrum, 200, times, sign)
    rate = sign * 1j * spectrum.chi
    np.testing.assert_array_equal(giant, np.exp(rate * (times[:, None] * energies)))
    np.testing.assert_array_equal(baby, np.ones((1, energies.size)))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_stride_seed_overflow_takes_the_dense_route(sign):
    # Every chi (t E) is finite (E up to 90), but the stride seed B dt = 3e306
    # times 90 is not: the grid is served one exponential per cell.
    spectrum = Spectrum.kerr(1.0)
    times = np.linspace(-1.5e306, 1.5e306, 3)
    energies = spectrum.energies(10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        giant, baby = _phase_factors(spectrum, 10, times, sign)
        expected = np.exp(sign * 1j * (spectrum.chi * (times[:, None] * energies)))
    assert giant.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(baby, np.ones((1, energies.size)))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_times_are_refused(bad):
    spectrum = Spectrum.kerr(1.0)
    label = CoherentLabel(1.0, 2.0)
    grid = np.linspace(0.0, 1.0, 9)
    grid[4] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: autocorrelation(label, spectrum, bad),
            lambda: autocorrelation(label, spectrum, np.float64(bad)),
            lambda: autocorrelation(label, spectrum, grid),
            lambda: autocorrelation(label, spectrum, grid.reshape(3, 3)),
            lambda: position_wavefunction(label, np.linspace(-3.0, 3.0, 5), bad, spectrum),
        ):
            with pytest.raises(ValueError, match="time must be finite"):
                call()
