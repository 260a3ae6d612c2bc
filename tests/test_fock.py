"""Fock-space primitive checks: amplitudes, operators, inner products."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from conftest import ladder

from revivals import fock
from revivals.fock import (
    CoherentLabel,
    FockVector,
    auto_truncation,
    coherent_amplitudes,
    inner_product,
    ladder_product_matrix,
    number_distribution,
)


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


def test_log_factorial_table_grows_and_matches_lgamma(monkeypatch):
    # Start from an empty table so growth is exercised whatever ran before.
    monkeypatch.setattr(fock, "_LOG_FACTORIALS", np.zeros(0))
    sizes = []
    for count in (10, 3101, 5):
        values = fock._log_factorials(count)
        sizes.append(fock._LOG_FACTORIALS.size)
        expected = [math.lgamma(k + 1.0) for k in range(count)]
        assert values.tolist() == expected
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1.0
    # Doubling: 10 entries, then 3101 (more than twice 10), then no change.
    assert sizes == [10, 3101, 3101]
    assert fock._log_factorials(3200).size == 3200
    assert fock._LOG_FACTORIALS.size == 6202
    assert fock._LOG_FACTORIALS.tolist() == [math.lgamma(k + 1.0) for k in range(6202)]
    assert not fock._LOG_FACTORIALS.flags.writeable


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
