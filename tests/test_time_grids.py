"""Evenly spaced time grids: the factored phase route against per-time evaluation.

On an evenly spaced grid, autocorrelation and carpet build their phases from
giant-step x baby-step factors (spectra._phase_factors); a scalar time or an
uneven array takes one exponential per time. Both must agree with the
per-sample evaluation to the float64 rounding of the largest phase chi E t,
plus the summation of N terms.
"""

import math

import numpy as np
import pytest

from revivals.carpets import carpet, position_wavefunction
from revivals.fock import CoherentLabel, number_distribution
from revivals.moments import autocorrelation
from revivals.spectra import Spectrum, _phase_factors

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

EPS = float(np.finfo(np.float64).eps)

SPECTRA = {
    "kerr": Spectrum.kerr,
    "harmonic": Spectrum.harmonic,
    "square_well": Spectrum.square_well,
    # Irrational level spacings: no revival time, no integer structure.
    "irrational": lambda chi: Spectrum.custom(
        lambda n: math.sqrt(2.0) * n + n * n / math.pi, chi
    ),
}


def _bound(spectrum, levels, times):
    """16 eps (chi E_max max|t| + N): phase rounding plus an N-term sum."""
    e_max = float(np.max(np.abs(spectrum.energies(levels - 1))))
    t_max = float(np.max(np.abs(times))) if np.size(times) else 0.0
    return 16.0 * EPS * (spectrum.chi * e_max * t_max + levels)


def _per_sample(label, spectrum, times):
    return np.array([autocorrelation(label, spectrum, float(t)) for t in times])


def _giant_rows(spectrum, times):
    giant, baby = _phase_factors(spectrum, spectrum.energies(4), times, 1.0)
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


def test_twenty_thousand_samples_across_blocks():
    # N = 142 levels: blocks of 2_000_000 // 142 = 14084 times, so the grid
    # is factored in two blocks; both edges of the split are checked.
    spectrum = Spectrum.kerr(0.9)
    label = CoherentLabel.from_alpha(math.sqrt(50.0) * 1j)
    times = np.linspace(-3.0, 17.0, 20001)
    values = autocorrelation(label, spectrum, times)
    levels = number_distribution(label).size
    block = 2_000_000 // levels
    picks = np.unique(np.r_[0:20001:197, block - 2 : block + 2, 19995:20001])
    reference = _per_sample(label, spectrum, times[picks])
    assert np.max(np.abs(values[picks] - reference)) <= _bound(spectrum, levels, times)


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
