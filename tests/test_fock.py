"""Fock-space primitive checks: amplitudes, operators, inner products."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from conftest import ladder

from revivals import fock
from revivals.carpets import carpet, hermite_functions
from revivals.fock import (
    CoherentLabel,
    FockVector,
    auto_truncation,
    coherent_amplitudes,
    inner_product,
    ladder_product_matrix,
    number_distribution,
)
from revivals.moments import detect_bursts, ladder_moment
from revivals.spectra import Spectrum, decompose_fractional, evolve, fractional_revival_times


def test_label_alpha_roundtrip():
    label = CoherentLabel(1.0, 1.0)
    assert label.alpha == pytest.approx((1 + 1j) / math.sqrt(2))
    back = CoherentLabel.from_alpha(label.alpha)
    assert back.p == pytest.approx(1.0)
    assert back.q == pytest.approx(1.0)
    assert label.nu == pytest.approx(1.0)


def test_label_rejects_nonfinite():
    with pytest.raises(ValueError):
        CoherentLabel(math.inf, 0.0)


@pytest.mark.parametrize(
    "p, q",
    [(1e200, 0.0), (0.0, -1e200), (1e154, 1e154), (np.float64(1e200), 1.0)],
    ids=["p", "q", "sum", "numpy-scalar"],
)
def test_label_refuses_overflowing_mean_photon_number(p, q):
    # Finite coordinates whose nu = (p^2 + q^2)/2 is not a float64; a NumPy
    # scalar must reach the error without an overflow warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"coherent label p = .*, q = .*: .* overflows float64"):
            CoherentLabel(p, q)
    assert math.isfinite(CoherentLabel(1.3e154, 0.0).nu)   # just inside the range


def test_label_from_alpha_refuses_overflowing_mean_photon_number():
    with pytest.raises(ValueError, match="p = 1.41421e\\+200, q = 0: its mean photon number"):
        CoherentLabel.from_alpha(1e200)


def test_vacuum_amplitudes():
    state = coherent_amplitudes(CoherentLabel(0.0, 0.0), truncation=6)
    expected = np.zeros(7)
    expected[0] = 1.0
    assert np.allclose(state.amplitudes, expected)
    assert state.tail_mass == pytest.approx(0.0, abs=1e-15)


def test_ground_amplitude_known_values():
    # c_0 = e^{-nu/2}; for p = q = 1, nu = 1.
    state = coherent_amplitudes(CoherentLabel(1.0, 1.0))
    assert abs(state.amplitudes[0]) == pytest.approx(math.exp(-0.5), abs=1e-15)
    # alpha = 1 + 1j has nu = 2.
    state2 = coherent_amplitudes(CoherentLabel.from_alpha(1 + 1j))
    assert abs(state2.amplitudes[0]) == pytest.approx(
        0.36787944117144233, abs=1e-15
    )


def test_normalization_across_nu():
    for nu, bound in ((1.0, 1e-14), (10.0, 1e-13), (100.0, 1e-12)):
        p = math.sqrt(2.0 * nu)
        state = coherent_amplitudes(CoherentLabel(p, 0.0))
        assert abs(state.norm_sq() - 1.0) < bound


def test_small_truncation_reports_tail_mass():
    state = coherent_amplitudes(CoherentLabel(4.0, 0.0), truncation=5)
    assert state.tail_mass is not None
    assert state.tail_mass > 1e-3
    assert state.norm_sq() + state.tail_mass == pytest.approx(1.0, abs=1e-12)


def test_lossy_explicit_truncation_refused_where_a_state_is_built():
    # nu = 100 at N = 20 keeps about 1e-22 of the weight: the carpet rows
    # integrated to 2e-22 and the cat reported fidelity 1 before this rule.
    label = CoherentLabel(math.sqrt(200.0), 0.0)
    assert coherent_amplitudes(label, 20).tail_mass == 1.0   # reported, not refused
    message = r"^truncation N = 20 cuts tail mass 1\.000e\+00 of the state, above the tolerance 1e-10;"
    with pytest.raises(ValueError, match=message):
        carpet(label, Spectrum.kerr(1.0), nx=4, nt=3, truncation=20)
    with pytest.raises(ValueError, match=message):
        decompose_fractional(label, 2, Spectrum.kerr(1.0), truncation=20)
    # Below the auto truncation N = 220 a tail within the tolerance is kept.
    assert decompose_fractional(label, 2, Spectrum.kerr(1.0), truncation=200).m == 2


def test_truncation_at_or_above_auto_never_refused():
    # At nu = 3e5 the Poisson weight cut at the auto N is about 7e-24, and
    # tail_mass reports it, not the 1.2e-10 rounding of 1 - sum |c_n|^2; so
    # one below the auto N is kept too.
    label = CoherentLabel(math.sqrt(6e5), 0.0)
    auto = auto_truncation(label.nu)
    for truncation in (auto - 1, auto, auto + 1000):
        state = fock._kept_state(label, truncation)
        assert state.truncation == truncation and state.tail_mass < 1e-20
    # 4.5 standard deviations above the mean the cut weight is real (2.6e-6).
    with pytest.raises(ValueError, match=rf"truncation N = {auto - 3000} cuts tail mass 2\.61"):
        fock._kept_state(label, auto - 3000)


_TIMES = np.linspace(0.0, 1.0, 5)
_COUNTS = {
    "nx": lambda n: carpet(CoherentLabel(1.0, 1.0), Spectrum.kerr(1.0), nx=n, nt=3),
    "nt": lambda n: carpet(CoherentLabel(1.0, 1.0), Spectrum.kerr(1.0), nx=3, nt=n),
    "m": lambda n: decompose_fractional(CoherentLabel(1.0, 1.0), n, Spectrum.kerr(1.0)),
    "m_max": lambda n: fractional_revival_times(Spectrum.kerr(1.0), n),
    "k_max": lambda n: detect_bursts(_TIMES, np.ones(5), 1.0, n),
    "n_max": lambda n: hermite_functions(_TIMES, n),
}


@pytest.mark.parametrize("name", list(_COUNTS))
def test_counts_must_be_integers(name):
    # One rule (fock._check_count) for every count, before NumPy or range()
    # meets the value with a TypeError of its own.
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got 2.5$"):
        _COUNTS[name](2.5)
    assert _COUNTS[name](np.int64(3)) is not None   # a NumPy integer is a count


def test_coherent_overlap_matches_closed_form():
    # <alpha|-alpha> = e^{-2 nu}; here nu = 4.
    p = math.sqrt(8.0)
    plus = coherent_amplitudes(CoherentLabel(p, 0.0), truncation=80)
    minus = coherent_amplitudes(CoherentLabel(-p, 0.0), truncation=80)
    overlap = inner_product(plus, minus)
    assert overlap == pytest.approx(math.exp(-8.0), abs=1e-15)


def test_number_distribution_moments():
    rng = np.random.default_rng(7)
    for _ in range(5):
        p, q = rng.uniform(-4, 4, size=2)
        label = CoherentLabel(float(p), float(q))
        weights = number_distribution(label)
        n = np.arange(weights.size)
        mean = float(np.sum(weights * n))
        var = float(np.sum(weights * (n - mean) ** 2))
        assert mean == pytest.approx(label.nu, abs=1e-9)
        assert var == pytest.approx(label.nu, abs=1e-8)


def test_auto_truncation_covers_tail():
    for nu in (0.5, 5.0, 50.0, 500.0):
        n = auto_truncation(nu)
        p = math.sqrt(2.0 * nu)
        state = coherent_amplitudes(CoherentLabel(p, 0.0), truncation=n)
        assert state.tail_mass < 1e-11


def test_ladder_product_matches_matrix_powers():
    n = 12
    a, adag = ladder(n)
    for r, k in ((0, 1), (1, 0), (2, 3), (3, 2), (2, 2)):
        direct = ladder_product_matrix(r, k, n)
        powered = np.linalg.matrix_power(adag, r) @ np.linalg.matrix_power(a, k)
        # Rows that would overflow the truncation are zero in the direct
        # build; compare only rows both constructions can represent.
        rows = n + 1 - max(r - k, 0)
        assert np.max(np.abs(direct[:rows] - powered[:rows])) < 1e-12


def _fresh_level_table(count):
    n = np.arange(count, dtype=np.float64)
    return np.array([n, [0.5 * math.lgamma(k + 1.0) for k in range(count)]])


def test_log_factorial_table_grows_and_matches_lgamma(monkeypatch):
    # Start from an empty table so growth is exercised whatever ran before.
    monkeypatch.setattr(fock, "_LEVEL_TABLE", np.zeros((2, 0)))
    first = coherent_amplitudes(CoherentLabel(1.0, -2.0), truncation=7).amplitudes
    sizes = []
    for count in (10, 3101, 5):   # small, large, small again
        table = fock._level_table(count)
        sizes.append(table.shape[1])
        assert table is fock._LEVEL_TABLE
        assert table[:, :count].tobytes() == _fresh_level_table(count).tobytes()
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1, 0] = 1.0
    # Doubling: 8 levels for the amplitudes, then 16 (twice 8) for 10, then
    # 3101 (more than twice 16), then no change.
    assert sizes == [16, 3101, 3101]
    grown = fock._level_table(3200)
    assert grown.shape == (2, 6202)
    # One request for 6202 levels on an empty table gives the same bits, and
    # so do the amplitudes read from the grown table.
    monkeypatch.setattr(fock, "_LEVEL_TABLE", np.zeros((2, 0)))
    assert fock._level_table(6202).tobytes() == grown.tobytes() == _fresh_level_table(6202).tobytes()
    again = coherent_amplitudes(CoherentLabel(1.0, -2.0), truncation=7).amplitudes
    assert again.tobytes() == first.tobytes()


def _ladder_product_by_rule(r, k, truncation):
    """(a†)^r a^k entry by entry with math.lgamma and math.exp, one level at a time."""
    dim = truncation + 1
    out = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(k, dim):
        row = n - k + r
        if row >= dim:
            continue
        log_entry = 0.5 * (math.lgamma(n + 1.0) - math.lgamma(n - k + 1.0)) + 0.5 * (
            math.lgamma(n - k + r + 1.0) - math.lgamma(n - k + 1.0)
        )
        out[row, n] = math.exp(log_entry)
    return out


def test_ladder_product_matches_entry_rule():
    eps = float(np.finfo(np.float64).eps)
    for truncation in (0, 1, 3, 17, 60):
        for r in range(5):
            for k in range(5):
                built = ladder_product_matrix(r, k, truncation)
                rule = _ladder_product_by_rule(r, k, truncation)
                assert np.array_equal(built != 0, rule != 0), (r, k, truncation)
                scale = np.where(rule != 0, np.abs(rule), 1.0)
                assert np.max(np.abs(built - rule) / scale) <= 4 * eps, (r, k, truncation)


def _ladder_product_by_fancy_index(r, k, truncation):
    """The construction by np.arange and a 2-d fancy scatter that the strided diagonal replaced."""
    dim = truncation + 1
    out = np.zeros((dim, dim), dtype=np.complex128)
    log_fact = np.array([math.lgamma(n + 1.0) for n in range(dim)])
    n = np.arange(k, min(dim, dim + k - r))
    base = log_fact[n - k]
    out[n - k + r, n] = np.exp(0.5 * (log_fact[n] - base) + 0.5 * (log_fact[n - k + r] - base))
    return out


@pytest.mark.parametrize("truncation", [0, 1, 2, 3, 5, 10, 40, 127])
def test_ladder_product_matches_fancy_index_construction_bit_for_bit(truncation):
    # r, k up to 6 include r - k > N at the small truncations: an empty diagonal.
    for r in range(7):
        for k in range(7):
            built = ladder_product_matrix(r, k, truncation)
            assert built.shape == (truncation + 1,) * 2 and built.flags.c_contiguous
            assert built.tobytes() == _ladder_product_by_fancy_index(r, k, truncation).tobytes(), (r, k)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: ladder_product_matrix(1.5, 1, 3), "r"),
        (lambda: ladder_product_matrix(1, 2.0, 3), "k"),
        (lambda: ladder_product_matrix(1, 1, 2.5), "truncation"),
        (lambda: ladder_product_matrix(-1, 1, 3), "r"),
        (lambda: ladder_product_matrix(1, 1, -1), "truncation"),
        (lambda: coherent_amplitudes(CoherentLabel(1.0, 0.0), 2.5), "truncation"),
        (lambda: coherent_amplitudes(CoherentLabel(1.0, 0.0), -3), "truncation"),
        (lambda: coherent_amplitudes(CoherentLabel(1.0, 0.0), 4).padded(5.5), "truncation"),
        (lambda: ladder_moment(1.5, 2, CoherentLabel(1.0, 0.0), 1.0, 0.3), "i"),
        (lambda: ladder_moment(1, "2", CoherentLabel(1.0, 0.0), 1.0, 0.3), "j"),
        (lambda: ladder_moment(0, -1, CoherentLabel(1.0, 0.0), 1.0, 0.3), "j"),
    ],
)
def test_powers_and_truncations_must_be_nonnegative_integers(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be (an integer, got|>= 0$)"):
        call()


def test_powers_and_truncations_accept_numpy_integers():
    label = CoherentLabel(1.0, 0.5)
    assert np.array_equal(ladder_product_matrix(np.int64(2), np.uint8(1), np.int32(6)),
                          ladder_product_matrix(2, 1, 6))
    state = coherent_amplitudes(label, np.int64(6))
    assert state.amplitudes.tobytes() == coherent_amplitudes(label, 6).amplitudes.tobytes()
    assert state.padded(np.int16(9)).truncation == 9
    assert ladder_moment(np.int64(1), np.int64(2), label, 1.0, 0.3) == ladder_moment(1, 2, label, 1.0, 0.3)


def test_inner_product_requires_matching_truncation():
    a = coherent_amplitudes(CoherentLabel(1.0, 0.0), truncation=10)
    b = coherent_amplitudes(CoherentLabel(1.0, 0.0), truncation=12)
    with pytest.raises(ValueError):
        inner_product(a, b)
    # self overlap is exactly the stored squared norm, which sits a tail
    # mass below one at this hard truncation
    norm_sq = float(np.sum(np.abs(a.amplitudes) ** 2))
    assert inner_product(a, a) == pytest.approx(norm_sq, abs=1e-15)
    assert inner_product(a, a) == pytest.approx(1.0, abs=1e-9)


def test_fock_vector_padding():
    state = coherent_amplitudes(CoherentLabel(1.0, 1.0), truncation=8)
    padded = state.padded(12)
    assert padded.truncation == 12
    assert np.allclose(padded.amplitudes[:9], state.amplitudes)
    assert np.all(padded.amplitudes[9:] == 0)
    with pytest.raises(ValueError):
        state.padded(4)


def test_fock_vector_validation():
    with pytest.raises(ValueError):
        FockVector(np.zeros((2, 2)))
    vec = FockVector(np.array([1.0, 0.0]))
    assert vec.truncation == 1
    with pytest.raises(ValueError):
        vec.amplitudes[0] = 5.0


def test_fock_vector_copies_what_it_is_given():
    source = np.array([1.0, 2j, 3.0])
    vec = FockVector(source)
    assert not np.shares_memory(vec.amplitudes, source)
    source[0] = 7.0
    assert vec.amplitudes.tolist() == [1.0, 2j, 3.0]
    assert not vec.amplitudes.flags.writeable


def test_library_states_share_no_memory_with_their_inputs():
    # Built states are adopted without a copy, so each must be a fresh,
    # read-only array of its own: never a view of its input or of the
    # per-level table.
    state = coherent_amplitudes(CoherentLabel(1.0, 1.0), truncation=9)
    built = {
        "coherent_amplitudes": state,
        "evolve": evolve(state, Spectrum.kerr(1.0), 0.4),
        "padded": state.padded(12),
    }
    for name, vec in built.items():
        assert vec.amplitudes.dtype == np.complex128 and vec.amplitudes.flags.owndata, name
        assert not vec.amplitudes.flags.writeable, name
        assert not np.shares_memory(vec.amplitudes, fock._LEVEL_TABLE), name
        if vec is not state:
            assert not np.shares_memory(vec.amplitudes, state.amplitudes), name
            assert vec.tail_mass == state.tail_mass, name


def test_fock_vector_truncation_is_derived_not_accepted():
    vec = FockVector(np.ones(3), tail_mass=0.25)
    assert (vec.truncation, vec.tail_mass) == (2, 0.25)
    with pytest.raises(TypeError):
        FockVector(np.ones(3), truncation=99)
    with pytest.raises(TypeError):
        FockVector(np.ones(3), 0.25)   # tail_mass is keyword-only
    with pytest.raises(AttributeError):
        vec.truncation = 5


@pytest.mark.parametrize(
    "build, levels, nu",
    [
        (lambda: coherent_amplitudes(CoherentLabel(1e150, 1.0)), "5.000e+299", "5e+299"),
        (lambda: number_distribution(CoherentLabel(1e10, 1.0)), "5.000e+19", "5e+19"),
        (lambda: coherent_amplitudes(CoherentLabel(0.0, 0.0), 10**19), "1.000e+19", "0"),
        (lambda: coherent_amplitudes(CoherentLabel(1.0, 1.0), 10**400), "1.000e+400", "1"),
        # The smallest count refused: 16 (N + 1) bytes first exceed sys.maxsize.
        (lambda: coherent_amplitudes(CoherentLabel(1.0, 1.0), sys.maxsize // 16), "5.765e+17", "1"),
    ],
    ids=["auto-huge-nu", "auto-weights", "vacuum", "past-float", "boundary"],
)
def test_level_count_no_array_can_hold_is_refused(build, levels, nu):
    message = (
        f"N + 1 = {levels} Fock levels at nu = {nu}: that many complex128 "
        "amplitudes exceed sys.maxsize bytes, the largest array"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
