"""Angular-momentum moments: closed forms, tensor oracle, burst structure."""

import math
import warnings

import numpy as np
import pytest
from conftest import ladder

from revivals import angular, moments
from revivals.angular import (
    TriModeLabel,
    angular_moment,
    lx_moment,
    lx_moment_oracle,
)
from revivals.fock import CoherentLabel, auto_truncation, coherent_amplitudes
from revivals.moments import ladder_moment
from revivals.ordering import interference_power_terms
from revivals.spectra import Spectrum, evolve

VACUUM = CoherentLabel(0.0, 0.0)


def _label(p2, q2, p3, q3):
    return TriModeLabel(VACUUM, CoherentLabel(p2, q2), CoherentLabel(p3, q3))


def test_from_alphas():
    label = TriModeLabel.from_alphas(0.0, 1 + 2j, 3 - 1j)
    assert label.mode_b.alpha == pytest.approx(1 + 2j)
    assert label.mode_c.alpha == pytest.approx(3 - 1j)


def test_expansion_orders_guarded():
    label = _label(1.0, 0.5, -0.7, 1.2)
    for n in (0, -1):
        for moment in (lx_moment, lx_moment_oracle):
            with pytest.raises(ValueError, match=f"interference power must be at least 1, got {n}"):
                moment(n, label, 1.0, 0.0)
    for n in range(1, 7):
        assert math.isfinite(angular_moment("x", n, label, 1.0, 0.3))


def test_initial_value_is_cross_product_half():
    rng = np.random.default_rng(3)
    for _ in range(8):
        p2, q2, p3, q3 = rng.uniform(-2.0, 2.0, size=4)
        value = lx_moment(1, _label(p2, q2, p3, q3), 1.0, 0.0)
        assert value == pytest.approx(0.5 * (p2 * q3 - q2 * p3), abs=1e-12)


def test_mean_lx_vanishes_for_parallel_and_antiparallel_modes():
    t = np.linspace(0.0, math.pi, 301)
    equal = _label(1.3, 0.7, 1.3, 0.7)  # gamma = beta
    opposite = _label(1.3, 0.7, -1.3, -0.7)  # gamma = -beta
    assert float(np.max(np.abs(lx_moment(1, equal, 1.0, t)))) < 1e-12
    assert float(np.max(np.abs(lx_moment(1, opposite, 1.0, t)))) < 1e-12


def test_mean_lx_does_not_vanish_for_unequal_diagonal_labels():
    # p2 = q2 and p3 = q3 makes beta* gamma real, but unequal photon
    # numbers still wind the relative phase, so <Lx> oscillates; the
    # oracle confirms the closed form rather than the naive expectation.
    label = _label(1.0, 1.0, 2.0, 2.0)
    t = np.linspace(0.0, math.pi, 101)
    trace = np.asarray(lx_moment(1, label, 1.0, t))
    peak = float(np.max(np.abs(trace)))
    assert peak > 1.0
    for ti in (0.11, 0.43, 1.7):
        assert lx_moment(1, label, 1.0, ti) == pytest.approx(
            lx_moment_oracle(1, label, 1.0, ti), abs=1e-10
        )


def test_closed_form_n1_polar_expression():
    label = _label(0.9, -0.4, 1.2, 0.8)
    beta = label.mode_b.alpha
    gamma = label.mode_c.alpha
    nu2, nu3 = label.mode_b.nu, label.mode_c.nu
    chi = 1.0
    for t in np.linspace(0.0, math.pi, 37):
        envelope = math.exp(-(nu2 + nu3) * (1.0 - math.cos(2.0 * chi * t)))
        winding = np.conj(beta) * gamma * np.exp(
            1j * (nu2 - nu3) * math.sin(2.0 * chi * t)
        )
        assert lx_moment(1, label, chi, float(t)) == pytest.approx(
            envelope * winding.imag, abs=1e-12
        )


def test_closed_form_n2_polar_expression():
    label = _label(1.1, 0.3, -0.5, 0.9)
    r2sq, r3sq = label.mode_b.nu, label.mode_c.nu
    theta = label.mode_c.angle - label.mode_b.angle
    chi = 1.0
    for t in np.linspace(0.0, math.pi, 37):
        envelope = math.exp(-(r2sq + r3sq) * (1.0 - math.cos(4.0 * chi * t)))
        bracket = 2.0 * r2sq * r3sq * math.cos(
            2.0 * theta + (r2sq - r3sq) * math.sin(4.0 * chi * t)
        )
        expected = 0.25 * (
            2.0 * r2sq * r3sq + r2sq + r3sq - envelope * bracket
        )
        assert lx_moment(2, label, chi, float(t)) == pytest.approx(
            expected, abs=1e-12
        )


def test_closed_forms_match_oracle_all_orders():
    rng = np.random.default_rng(17)
    label = _label(1.0, 2.0, 2.0, 1.5)  # per-mode nu 2.5 and 3.125
    chi = 1.0
    for n in range(1, 5):
        for t in rng.uniform(0.0, math.pi, size=12):
            closed = lx_moment(n, label, chi, float(t))
            oracle = lx_moment_oracle(n, label, chi, float(t))
            assert abs(closed - oracle) < 1e-8 * (1.0 + abs(oracle))


def _magnitude_bound(n, first, second):
    """Σ |coeff| |beta|^(i1+j1) |gamma|^(i2+j2): the size of the terms <Lx^n> sums."""
    return sum(
        abs(coeff) * first.radius ** (i1 + j1) * second.radius ** (i2 + j2)
        for (i1, j1, i2, j2), coeff in interference_power_terms(n)
    )


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_high_orders_match_oracle_on_every_axis(axis):
    # Ly pairs modes (c, a) and Lz pairs (a, b), so the x-axis oracle runs on
    # the label re-ordered to put that pair in the (b, c) slots. Measured
    # worst error: 5.3e-16 of the magnitude bound over n = 5..10.
    a = CoherentLabel.from_alpha(0.8 - 0.3j)
    b = CoherentLabel.from_alpha(1.2 + 0.9j)
    c = CoherentLabel.from_alpha(-0.7 + 1.1j)
    label = TriModeLabel(a, b, c)
    as_x = {"x": label, "y": TriModeLabel(b, c, a), "z": TriModeLabel(c, a, b)}[axis]
    chi = 0.9
    for n in range(5, 11):
        scale = _magnitude_bound(n, as_x.mode_b, as_x.mode_c)
        for t in (0.0, 0.37, 1.3, 2.9):
            closed = angular_moment(axis, n, label, chi, t)
            oracle = lx_moment_oracle(n, as_x, chi, t)
            assert abs(closed - oracle) <= 1e-15 * scale


#: Largest closed-form-vs-oracle error at per-mode nu = 100 and 200, relative
#: to the magnitude bound; measured worst 6.5e-14, at nu = 200. The phase
#: rounding both routes carry grows with nu, hence a margin of its own.
LARGE_NU_MARGIN = 1e-13


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("nu", [100.0, 200.0])
def test_high_orders_match_oracle_at_large_nu(nu, n):
    first = CoherentLabel.from_alpha(math.sqrt(nu) * np.exp(0.3j))
    second = CoherentLabel.from_alpha(math.sqrt(nu) * np.exp(-1.1j))
    label = TriModeLabel(VACUUM, first, second)
    scale = _magnitude_bound(n, first, second)
    for t in (0.0, 0.37, 1.3, 2.9):
        closed = lx_moment(n, label, 0.9, t)
        oracle = lx_moment_oracle(n, label, 0.9, t)
        assert abs(closed - oracle) <= LARGE_NU_MARGIN * scale


def _dense_oracle(n, label, chi, t):
    """<Lx^n> by dense per-mode ladder matrices acting on the two-mode amplitude array."""
    truncation = auto_truncation(max(label.mode_b.nu, label.mode_c.nu))
    lower, raise_ = ladder(truncation)
    state = np.outer(*(
        evolve(coherent_amplitudes(mode, truncation), Spectrum.kerr(chi), t).amplitudes
        for mode in (label.mode_b, label.mode_c)
    ))
    applied = state
    for _ in range(n):
        applied = (raise_ @ applied @ lower.T - lower @ applied @ raise_.T) / 2j
    return np.vdot(state, applied).real


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_shifts_equal_dense_ladder_products(n):
    # Each ladder matrix has one nonzero diagonal, so the dense products only
    # add exact zeros to the shifted slices: the values must be bit-identical.
    labels = (
        TriModeLabel.from_alphas(0.0, 1.2 + 0.9j, -0.7 + 1.1j),
        TriModeLabel.from_alphas(0.3j, 2.5 - 1.9j, 0.4 + 3.0j),
    )
    for label in labels:
        for t in (0.0, 0.37, 1.3):
            assert lx_moment_oracle(n, label, 0.9, t) == _dense_oracle(n, label, 0.9, t)


def test_hermiticity_guard_scales_with_magnitude():
    # <Lx^4> ~ 2e10 at per-mode nu = 400 leaves an imaginary residue of
    # ~1e-7 at t = 0, which an absolute limit once reported as a bug.
    label = TriModeLabel.from_alphas(
        0.0, 20.0 * np.exp(0.3j), 20.0 * np.exp(-1.1j)
    )
    closed = lx_moment(4, label, 1.0, 0.0)
    oracle = lx_moment_oracle(4, label, 1.0, 0.0)
    assert closed == pytest.approx(oracle, rel=1e-11)


@pytest.mark.parametrize("n", [21, 31, 39])
def test_oracle_hermiticity_guard_holds_where_the_moment_vanishes(n):
    # Equal labels make every odd <Lx^n> vanish by symmetry, while its
    # terms round at the size of |psi| |Lx^n psi|; a limit scaled by the
    # vanishing value once reported that rounding as an expansion bug.
    label = TriModeLabel.from_alphas(0.0, 1.0, 1.0)
    scale = _magnitude_bound(n, label.mode_b, label.mode_c)
    assert abs(lx_moment_oracle(n, label, 1.0, 0.2)) <= 1e-13 * scale
    assert abs(lx_moment(n, label, 1.0, 0.2)) <= 1e-13 * scale


def test_full_revival_periodicity():
    label = _label(1.4, -0.6, 0.8, 1.1)
    chi = 1.0
    t = np.linspace(0.0, math.pi, 50)
    for n in range(1, 5):
        now = np.asarray(lx_moment(n, label, chi, t))
        later = np.asarray(lx_moment(n, label, chi, t + math.pi / chi))
        assert float(np.max(np.abs(now - later))) < 1e-9


def test_axis_permutation():
    # Ly pairs modes (c, a) and Lz pairs (a, b); each must agree with the
    # x engine run on the re-ordered label.
    a = CoherentLabel(0.5, -0.2)
    b = CoherentLabel(1.0, 0.8)
    c = CoherentLabel(-0.7, 0.4)
    label = TriModeLabel(a, b, c)
    t = np.linspace(0.0, 2.0, 21)
    y_direct = np.asarray(angular_moment("y", 2, label, 1.0, t))
    y_via_x = np.asarray(lx_moment(2, TriModeLabel(b, c, a), 1.0, t))
    assert np.allclose(y_direct, y_via_x, atol=1e-14)
    z_direct = np.asarray(angular_moment("z", 2, label, 1.0, t))
    z_via_x = np.asarray(lx_moment(2, TriModeLabel(c, a, b), 1.0, t))
    assert np.allclose(z_direct, z_via_x, atol=1e-14)
    with pytest.raises(ValueError):
        angular_moment("w", 1, label, 1.0, 0.0)


def test_oracle_memory_guard(monkeypatch):
    # Per-mode nu = 1700 has auto truncation 2133: (N + 1)^2 = 4.55e6 entries.
    def refuse(*args, **kwargs):
        raise AssertionError("amplitudes built for an oracle the guard refuses")

    monkeypatch.setattr(angular, "coherent_amplitudes", refuse)
    side = (2.0 * 1700.0) ** 0.5
    label = _label(side, 0.0, 0.0, side)
    with pytest.raises(ValueError, match="exceeds the memory guard"):
        lx_moment_oracle(1, label, 1.0, 0.0)


def test_oracle_refuses_bad_chi_and_time_before_any_warning():
    label = _label(1.0, 0.5, -0.7, 1.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for chi in (math.inf, math.nan, 0.0):
            with pytest.raises(ValueError, match="chi must be finite and positive"):
                lx_moment_oracle(2, label, chi, 0.3)
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="time must be finite"):
                lx_moment_oracle(2, label, 1.0, t)


def test_oracle_agrees_at_t0_mixed_labels():
    label = TriModeLabel.from_alphas(
        0.0, (1 + 2j) / math.sqrt(2.0), (3 + 4j) / math.sqrt(2.0)
    )
    closed = lx_moment(2, label, 1.0, 0.0)
    oracle = lx_moment_oracle(2, label, 1.0, 0.0)
    assert abs(closed - oracle) < 1e-8 * (1.0 + abs(oracle))


def _unshared_sum(axis, n, label, chi, t):
    """<L_axis^n> summed term by term, both factors evaluated for every term."""
    first, second = angular._pair_labels(axis, label)
    t_arr = np.asarray(t, dtype=np.float64)
    total = np.zeros(t_arr.shape, dtype=np.complex128)
    for (j1, j2, j3, j4), coeff in interference_power_terms(n):
        factor_first = ladder_moment(j1, j2, first, chi, t_arr)
        factor_second = ladder_moment(j3, j4, second, chi, t_arr)
        total = total + coeff * factor_first * factor_second
    return total.real


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_shared_factors_bit_identical_to_term_by_term_sum(axis, n):
    label = TriModeLabel.from_alphas(0.8 - 0.3j, 1.5 + 2.0j, 2.4 - 1.2j)
    chi = 0.9
    for t in (0.37, np.linspace(0.0, math.pi / chi, 41)):
        shared = np.asarray(angular_moment(axis, n, label, chi, t), dtype=np.float64)
        reference = _unshared_sum(axis, n, label, chi, t)
        assert shared.shape == reference.shape
        assert shared.tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "n, distinct", [(1, 4), (2, 8), (3, 12), (4, 18), (5, 24), (6, 32), (7, 40), (8, 50)]
)
def test_each_distinct_factor_evaluated_once(monkeypatch, n, distinct):
    # The terms of a Hermitian power come in conjugate pairs, so the distinct
    # factors (i, j) of a mode are the evaluated ones and their conjugates
    # (j, i), which are taken from them; zero-shift factors get one time.
    calls = []

    def counted(i, j, mode, chi, t):
        calls.append((i, j, mode))
        assert i != j or np.size(t) == 1
        return ladder_moment(i, j, mode, chi, t)

    monkeypatch.setattr(moments, "ladder_moment", counted)
    label = _label(1.0, 0.5, -0.7, 1.2)
    times = np.linspace(-0.5, 0.5, 5)
    angular_moment("x", n, label, 1.0, times)
    evaluated = set(calls)
    conjugates = {(j, i, mode) for i, j, mode in calls}
    assert len(calls) == len(evaluated)
    assert all(i == j for i, j, _ in evaluated & conjugates)
    assert len(evaluated | conjugates) == distinct
