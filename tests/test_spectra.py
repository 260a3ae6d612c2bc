"""Spectrum arithmetic, evolution, revival times, cat decompositions."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from revivals import spectra
from revivals.angular import TriModeLabel, angular_moment, lx_moment_oracle
from revivals.carpets import carpet, position_wavefunction
from revivals.fock import CoherentLabel, auto_truncation, coherent_amplitudes, inner_product
from revivals.moments import autocorrelation, expect_x2, ladder_moment
from revivals.spectra import (
    Spectrum,
    decompose_fractional,
    evolve,
    fractional_revival_times,
    revival_time,
)


def test_named_spectra_energies():
    kerr = Spectrum.kerr(1.0)
    harm = Spectrum.harmonic(1.0)
    well = Spectrum.square_well(1.0)
    n = np.arange(6)
    assert np.allclose(kerr.energies(5), n * (n - 1))
    assert np.allclose(harm.energies(5), n + 0.5)
    assert np.allclose(well.energies(5), n * n)
    # Level vectors are cached read-only, each with its max |E_n|.
    levels, level_max = kerr._levels(5)
    assert levels is kerr.energies(5) and not levels.flags.writeable
    assert level_max == 20.0


def test_spectrum_requires_positive_chi():
    with pytest.raises(ValueError):
        Spectrum.kerr(0.0)
    with pytest.raises(ValueError):
        Spectrum.harmonic(-2.0)
    for chi in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="chi must be finite and positive"):
            Spectrum.kerr(chi)
        with pytest.raises(ValueError, match="chi must be finite and positive"):
            Spectrum((0, 1), chi)


@pytest.mark.parametrize(
    "factory, level",
    [
        (Spectrum.harmonic, lambda n: n + 0.5),
        (Spectrum.kerr, lambda n: n * (n - 1.0)),
        (Spectrum.square_well, lambda n: float(n * n)),
    ],
    ids=["harmonic", "kerr", "square_well"],
)
def test_named_energies_bit_identical_to_per_level_calls(factory, level):
    spectrum = factory(0.7)
    for truncation in (0, 1, 59, 220, 3020, 200_000):
        expected = [float(level(n)) for n in range(truncation + 1)]
        values = spectrum.energies(truncation)
        assert values.dtype == np.float64
        assert values.tolist() == expected


def test_custom_energies_match_exact_levels():
    # (3 + 7 n/5 + 3 n^2/11 - n^3/2): Horner over the codes q c_k, one division by q.
    coefficients = (3, Fraction(7, 5), Fraction(3, 11), Fraction(-1, 2))
    values = Spectrum(coefficients).energies(300)
    exact = [sum(c * n**k for k, c in enumerate(coefficients)) for n in range(301)]
    assert values.tolist() == pytest.approx([float(e) for e in exact], rel=4 * np.finfo(float).eps)


def test_coefficients_are_exact_and_canonical():
    assert Spectrum((0, -1, 1, 0, 0)).coefficients == (0, -1, 1)
    assert Spectrum([0, -1, 1], 2.0) == Spectrum.kerr(2.0)
    assert Spectrum((Fraction(1, 2), Fraction(2, 2))).kind == "harmonic"
    assert Spectrum((5, Fraction(7, 5), Fraction(3, 11))).kind == "custom"
    for bad in ((0, 0.5), (0, 1, math.sqrt(2)), (np.float64(1.0), 1)):
        with pytest.raises(ValueError, match="int or Fraction.*into chi"):
            Spectrum(bad)
    for constant in ((), (0,), (7, 0, 0), (Fraction(1, 3),)):
        with pytest.raises(ValueError, match="constant levels"):
            Spectrum(constant)
    # Codes beyond float64 would make levels that no array holds and a period of 0.
    for huge in ((0, 10**400), (0, 1, 10**400), (0, Fraction(1, 10**400))):
        with pytest.raises(ValueError, match="must fit in float64"):
            Spectrum(huge)


def test_revival_times_named():
    assert revival_time(Spectrum.kerr(2.0)) == pytest.approx(math.pi / 2.0)
    assert revival_time(Spectrum.harmonic(2.0)) == pytest.approx(math.pi)
    assert revival_time(Spectrum.square_well(0.5)) == pytest.approx(4 * math.pi)


def test_revival_time_custom_spectrum():
    half_kerr = Spectrum((0, Fraction(-1, 2), Fraction(1, 2)), 1.0)
    assert revival_time(half_kerr) == 2.0 * math.pi
    # The harmonic levels written out are the named kind, with its period.
    harmonic = Spectrum((Fraction(1, 2), 1), 1.0)
    assert harmonic.kind == "harmonic"
    assert revival_time(harmonic) == revival_time(Spectrum.harmonic(1.0))


@pytest.mark.parametrize("offset", [0.3, 0.5, 1e3, 1e6, 1e9])
@pytest.mark.parametrize(
    "coefficients, chi, period",
    [
        ((0, -1, 1), 1.0, math.pi),
        ((0, 1), 1.0, 2.0 * math.pi),
        ((0, 1), math.sqrt(2), math.sqrt(2) * math.pi),
        ((0, 1, math.sqrt(2)), 1.0, None),
    ],
    ids=["kerr", "linear", "sqrt2-linear", "incommensurate"],
)
def test_revival_time_ignores_a_constant_offset(coefficients, chi, period, offset):
    # A constant added to every level is a global phase: only the phase
    # differences set the period. sqrt(2) n is n at chi = sqrt(2); n + sqrt(2) n^2
    # has no exact form and no period, and is refused.
    shifted = (Fraction(str(offset)) + coefficients[0], *coefficients[1:])
    if period is None:
        with pytest.raises(ValueError, match="int or Fraction"):
            Spectrum(shifted, chi)
        return
    got = revival_time(Spectrum(shifted, chi))
    assert got == revival_time(Spectrum(coefficients, chi))
    assert got == pytest.approx(period, rel=1e-15)


@pytest.mark.parametrize(
    "coefficients, period",
    [
        ((0, Fraction(1, 10**10)), 2.0 * math.pi * 1e10),
        ((0, 0, Fraction(1, 10**13)), 2.0 * math.pi * 1e13),
        ((0, 0, 0, 0, 0, 1), 2.0 * math.pi),
        ((0, 0, 0, 0, 0, 0, 0, 1), 2.0 * math.pi),
        ((0, 0, 0, 0, 0, Fraction(1, 10)), 20.0 * math.pi),
    ],
    ids=["linear-1e-10", "square-1e-13", "quintic", "septic", "quintic-0.1"],
)
def test_revival_time_of_tiny_and_wide_spectra(coefficients, period):
    # Tiny levels, and levels spread up to 1e14 times their gcd: exact either way.
    assert revival_time(Spectrum(coefficients, 1.0)) == period


@pytest.mark.parametrize(
    "spectrum",
    [Spectrum.kerr(1e-308), Spectrum.harmonic(5e-324), Spectrum((0, Fraction(1, 10**10)), 1e-300)],
    ids=["kerr", "harmonic", "slow-linear"],
)
def test_overflowing_revival_period_is_refused_naming_chi(spectrum):
    # 2 pi q/(chi g) beyond float64 raises instead of returning inf, and so
    # does every call that starts from the period.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: revival_time(spectrum),
            lambda: fractional_revival_times(spectrum, 3),
            lambda: carpet(CoherentLabel(1.0, 1.0), spectrum, nx=4, nt=3),
        ):
            with pytest.raises(ValueError, match=r"revival period .* overflows float64 at chi = "):
                call()
    # A tiny chi whose period still fits keeps its exact value.
    assert revival_time(Spectrum.kerr(1e-307)) == math.pi / 1e-307


def test_evolution_preserves_norm_and_revives():
    label = CoherentLabel(2.0, 3.0)
    spectrum = Spectrum.kerr(1.0)
    state = coherent_amplitudes(label)
    mid = evolve(state, spectrum, 0.4)
    assert mid.norm_sq() == pytest.approx(state.norm_sq(), abs=1e-14)
    # Kerr phases n(n-1) are even integers, so the revival is componentwise.
    back = evolve(state, spectrum, math.pi)
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


def test_harmonic_revival_is_global_phase():
    # At 2 pi / chi every phase is e^{-i 2 pi (n + 1/2)} = -1.
    label = CoherentLabel(1.0, 2.0)
    spectrum = Spectrum.harmonic(1.0)
    state = coherent_amplitudes(label)
    back = evolve(state, spectrum, 2.0 * math.pi)
    assert np.max(np.abs(back.amplitudes + state.amplitudes)) < 1e-12


def test_fractional_revival_times_listing():
    spectrum = Spectrum.kerr(1.0)
    listed = fractional_revival_times(spectrum, 4)
    fractions = [(l, m) for l, m, _ in listed]
    assert fractions == [(1, 4), (1, 3), (1, 2), (2, 3), (3, 4)]
    for l, m, t in listed:
        assert t == pytest.approx((l / m) * math.pi)
    assert [Fraction(l, m) for l, m, _ in listed] == sorted(
        Fraction(l, m) for l, m, _ in listed
    )
    with pytest.raises(ValueError):
        fractional_revival_times(spectrum, 1)


def test_fractional_times_of_a_custom_spectrum():
    # Every exact spectrum revives, so every one has fractional times.
    half_kerr = Spectrum((0, Fraction(-1, 2), Fraction(1, 2)), 2.0)
    listed = fractional_revival_times(half_kerr, 3)
    assert [(l, m) for l, m, _ in listed] == [(1, 3), (1, 2), (2, 3)]
    for l, m, t in listed:
        assert t == (l / m) * math.pi


@pytest.mark.parametrize("chi", [1.0, 10.0 / math.pi, 0.7, 3.3])
def test_cat_time_is_the_listed_fractional_time(chi):
    # One rule, (1/m) revival_time, for both; pi/(m chi) differs by one ulp
    # at chi = 10/pi, m = 3.
    spectrum = Spectrum.kerr(chi)
    listed = {(l, m): t for l, m, t in fractional_revival_times(spectrum, 8)}
    for m in range(2, 9):
        cat = decompose_fractional(CoherentLabel(1.0, 1.0), m, spectrum)
        assert cat.time == listed[1, m]


def _reconstruct(cat, truncation):
    total = np.zeros(truncation + 1, dtype=np.complex128)
    for coeff, comp in zip(cat.coefficients, cat.component_labels):
        total += coeff * coherent_amplitudes(comp, truncation).amplitudes
    return total


def test_cat_decomposition_fidelity_small_orders():
    label = CoherentLabel(2.0, 2.0)  # nu = 4
    spectrum = Spectrum.kerr(1.0)
    for m in range(1, 7):
        cat = decompose_fractional(label, m, spectrum)
        assert cat.fidelity >= 1.0 - 1e-9
        assert cat.time == pytest.approx(math.pi / m)
        assert len(cat.component_labels) == m
        assert cat.coefficients.size == m
        # Component weights must sum to unit probability in the overlap
        # sense: check the reconstruction against the evolved state anew.
        state = evolve(coherent_amplitudes(label), spectrum, cat.time)
        rebuilt = _reconstruct(cat, state.truncation)
        overlap = np.vdot(state.amplitudes, rebuilt)
        assert abs(overlap) >= 1.0 - 1e-9


def test_cat_two_components_structure():
    # At half the revival the state is (e^{-i pi/4} |i alpha> +
    # e^{+i pi/4} |-i alpha>) / sqrt(2); coefficients (1 -+ i)/2.
    label = CoherentLabel(0.0, 4.0)  # alpha = 2 sqrt(2) i... nu = 8
    cat = decompose_fractional(label, 2, Spectrum.kerr(1.0))
    coeffs = sorted(cat.coefficients, key=lambda c: c.imag)
    assert coeffs[0] == pytest.approx(0.5 - 0.5j, abs=1e-12)
    assert coeffs[1] == pytest.approx(0.5 + 0.5j, abs=1e-12)
    alphas = sorted((c.alpha for c in cat.component_labels), key=lambda a: a.real)
    base = label.alpha
    # The two components sit at +-i alpha; with alpha on the imaginary
    # axis that is the pair of real points -+|alpha|.
    assert alphas[0] == pytest.approx(1j * base, abs=1e-12)
    assert alphas[1] == pytest.approx(-1j * base, abs=1e-12)


def test_cat_decomposition_guards():
    label = CoherentLabel(2.0, 2.0)
    with pytest.raises(ValueError):
        decompose_fractional(label, 2, Spectrum.harmonic(1.0))
    with pytest.raises(ValueError):
        decompose_fractional(label, 0, Spectrum.kerr(1.0))
    # The component labels share |alpha| with the input, so each truncated
    # component amplitude is the input amplitude times a pure phase and the
    # reconstruction is exact per Fock component at any truncation: the
    # fidelity cannot see a starved basis. The state's tail is checked
    # instead, so N = 3 at nu = 4 (tail 0.567) is refused.
    with pytest.raises(ValueError, match=r"truncation N = 3 cuts tail mass 5\.665e-01"):
        decompose_fractional(label, 2, Spectrum.kerr(1.0), truncation=3)
    # The order is read from the coefficients; a constructor order that
    # disagrees with them is refused, and it is not stored.
    cat = decompose_fractional(label, 3, Spectrum.kerr(1.0))
    assert cat.m == 3
    rebuilt = type(cat)(3, cat.coefficients, cat.component_labels, cat.time, cat.fidelity)
    assert rebuilt.m == 3 and np.array_equal(rebuilt.coefficients, cat.coefficients)
    with pytest.raises(ValueError, match="order 4 needs 4 coefficients"):
        type(cat)(4, cat.coefficients, cat.component_labels, cat.time, cat.fidelity)
    assert [f.name for f in dataclasses.fields(cat)] == [
        "coefficients", "component_labels", "time", "fidelity"
    ]


def test_cat_order_must_be_an_integer():
    # m = 2.5 once ran to a failed fidelity check that asked for a larger truncation.
    label = CoherentLabel(2.0, 2.0)
    for bad in (2.5, 2.0):
        with pytest.raises(ValueError, match="m must be an integer"):
            decompose_fractional(label, bad, Spectrum.kerr(1.0))
    assert decompose_fractional(label, np.int64(2), Spectrum.kerr(1.0)).m == 2


def test_cat_order_bounded_by_the_kept_levels(monkeypatch):
    # Beyond the N + 1 kept levels the m components are linearly dependent.
    label = CoherentLabel(1.0, 1.0)
    cat = decompose_fractional(label, 21, Spectrum.kerr(1.0), truncation=20)
    assert cat.m == 21 and cat.fidelity == pytest.approx(1.0, abs=1e-12)
    # Refused before any length-m work; the default N at nu = 1 is 31.
    monkeypatch.setattr(spectra, "_quadratic_phase_split", lambda m: pytest.fail("length-m work"))
    for m, truncation, levels in ((22, 20, 21), (33, None, 32), (10**9, None, 32)):
        with pytest.raises(ValueError, match=rf"m = {m} exceeds N \+ 1 = {levels}, the kept"):
            decompose_fractional(label, m, Spectrum.kerr(1.0), truncation)


def test_cat_self_check_names_the_disagreement_not_truncation(monkeypatch):
    # Both sides of the check are cut at the same N, so a failure says that
    # the m-term sum and direct evolution disagree, never to raise N.
    split = spectra._quadratic_phase_split

    def corrupted(m):
        sequence, rotation = split(m)
        return sequence[::-1], rotation

    monkeypatch.setattr(spectra, "_quadratic_phase_split", corrupted)
    with pytest.raises(ValueError) as info:
        decompose_fractional(CoherentLabel(2.0, 2.0), 3, Spectrum.kerr(1.0))
    message = str(info.value)
    assert message.startswith("cat reconstruction fidelity ")
    assert "disagrees with direct evolution" in message and "rounding of the phases" in message
    assert "truncation" not in message


_LABEL = CoherentLabel(1.0, 1.0)
_MODES = TriModeLabel.from_alphas(0.5, 1.0 - 0.5j, -0.7 + 1.2j)

#: Library calls whose phases chi E t overflow float64: chi t itself for the
#: spectra, chi (2s) t of the Kerr envelope for the closed forms.
_OVERFLOWING_CALLS = {
    "autocorrelation-scalar": lambda: autocorrelation(_LABEL, Spectrum.kerr(1e200), 1e200),
    "autocorrelation-array": lambda: autocorrelation(
        _LABEL, Spectrum.kerr(1e200), np.array([0.0, 0.5e200, 1e200])
    ),
    "evolve": lambda: evolve(coherent_amplitudes(_LABEL), Spectrum.kerr(1e200), 1e200),
    "position_wavefunction": lambda: position_wavefunction(
        _LABEL, np.linspace(-3.0, 3.0, 5), 1e200, Spectrum.kerr(1e200)
    ),
    "ladder_moment": lambda: ladder_moment(1, 2, _LABEL, 1.7e308, 1.0),
    "expect_x2": lambda: expect_x2(_LABEL, 1.7e308, np.array([0.0, 1.0])),
    "angular_moment": lambda: angular_moment("y", 2, _MODES, 1.7e308, 1.0),
    "lx_moment_oracle": lambda: lx_moment_oracle(2, _MODES, 1e200, 1e200),
}


@pytest.mark.parametrize("name", sorted(_OVERFLOWING_CALLS))
def test_library_calls_refuse_overflowing_phases(name):
    # The guard sits in the one phase kernel, so library calls are refused
    # as the CLI's are, before numpy warns or writes nan.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="phases chi E t overflow float64"):
            _OVERFLOWING_CALLS[name]()


def test_evolve_takes_one_time():
    # An array of N + 1 times paired time k with level k, silently; any other
    # length met NumPy's broadcast error. evolve names the shape instead.
    label = CoherentLabel(1.0, 1.0)
    levels = coherent_amplitudes(label).truncation + 1
    cases = (
        (lambda t: evolve(coherent_amplitudes(label), Spectrum.kerr(), t), levels),
        (lambda t: position_wavefunction(label, 0.3, t, Spectrum.kerr()), levels),
        (lambda t: lx_moment_oracle(2, _MODES, 1.0, t), auto_truncation(_MODES.mode_c.nu) + 1),
    )
    for call, size in cases:
        for times in (np.linspace(0.0, 1.0, size), np.linspace(0.0, 1.0, 32), [0.1, 0.2]):
            with pytest.raises(ValueError, match=r"^evolve takes one time t, got an array of shape \("):
                call(times)
        call(np.float64(0.5))   # a NumPy scalar is one time
