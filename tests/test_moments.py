"""Closed-form moment engine vs the truncated-matrix oracle, and traces."""

import cmath
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import ladder

from revivals import moments
from revivals.angular import TriModeLabel, angular_moment
from revivals.fock import (
    CoherentLabel,
    coherent_amplitudes,
    ladder_product_matrix,
)
from revivals.moments import (
    autocorrelation,
    detect_bursts,
    expect_p,
    expect_p2,
    expect_x,
    expect_x2,
    expect_x_power,
    ladder_moment,
    numerical_expectation,
    uncertainty_trace,
)
from revivals.ordering import interference_power_terms, x_power_terms
from revivals.spectra import Spectrum, evolve


def _oracle_moment(r, s, label, chi, t, extra=8):
    """<a†^r a^(r+s)> by dense matrices on an enlarged truncation."""
    state = coherent_amplitudes(label)
    state = state.padded(state.truncation + extra)
    evolved = evolve(state, Spectrum.kerr(chi), t)
    op = ladder_product_matrix(r, r + s, state.truncation)
    return numerical_expectation(evolved, op)


def test_ladder_moment_validation():
    label = CoherentLabel(1.0, 0.0)
    with pytest.raises(ValueError):
        ladder_moment(-1, -1, label, 1.0, 0.0)
    with pytest.raises(ValueError):
        ladder_moment(0, 1, label, 0.0, 0.0)
    for chi in (math.inf, math.nan):
        with pytest.raises(ValueError, match="chi must be finite and positive"):
            ladder_moment(0, 1, label, chi, 0.0)


def test_ladder_moment_against_oracle_sweep():
    rng = np.random.default_rng(23)
    chi = 1.0
    worst = 0.0
    for nu in (0.5, 1.0, 2.5, 10.0):
        p = math.sqrt(2.0 * nu)
        label = CoherentLabel(p, 0.0)
        for r in range(4):
            for s in range(4):
                for t in rng.uniform(0.0, math.pi, size=6):
                    closed = ladder_moment(r, r + s, label, chi, float(t))
                    oracle = _oracle_moment(r, s, label, chi, float(t))
                    err = abs(closed - oracle) / (1.0 + abs(oracle))
                    worst = max(worst, err)
    assert worst < 1e-8


def test_mean_photon_number_is_conserved():
    label = CoherentLabel(3.0, -1.0)
    for t in (0.0, 0.3, 1.1):
        value = ladder_moment(1, 1, label, 2.0, t)
        assert value == pytest.approx(label.nu, abs=1e-12)
        assert value.imag == pytest.approx(0.0, abs=1e-14)


def test_ladder_moment_conjugation():
    label = CoherentLabel(1.5, 0.5)
    t = np.array([0.2, 0.7])
    lower = ladder_moment(1, 3, label, 1.0, t)
    upper = ladder_moment(3, 1, label, 1.0, t)
    assert np.allclose(upper, np.conj(lower), atol=1e-14)


def test_quadrature_symmetry_exact():
    # Rotating the label (p, q) -> (q, -p) swaps the roles of x and p.
    label = CoherentLabel(2.0, -1.0)
    swapped = CoherentLabel(-1.0, -2.0)
    t = np.linspace(0.0, math.pi, 101)
    assert np.max(np.abs(expect_p(label, 1.0, t) - expect_x(swapped, 1.0, t))) == 0.0


def test_quadratures_against_oracle():
    chi = 1.0
    label = CoherentLabel(math.sqrt(10.0), math.sqrt(10.0))  # nu = 10
    times = np.linspace(0.0, math.pi, 40)
    state = coherent_amplitudes(label)
    big = state.padded(state.truncation + 4)
    n = big.truncation
    a, adag = ladder(n)
    x_op = (a + adag) / math.sqrt(2.0)
    p_op = (a - adag) / (1j * math.sqrt(2.0))
    x2_op = x_op @ x_op
    p2_op = p_op @ p_op
    spectrum = Spectrum.kerr(chi)
    for t in times:
        evolved = evolve(big, spectrum, float(t))
        assert expect_x(label, chi, float(t)) == pytest.approx(
            numerical_expectation(evolved, x_op).real, abs=1e-8
        )
        assert expect_p(label, chi, float(t)) == pytest.approx(
            numerical_expectation(evolved, p_op).real, abs=1e-8
        )
        assert expect_x2(label, chi, float(t)) == pytest.approx(
            numerical_expectation(evolved, x2_op).real, abs=1e-8
        )
        assert expect_p2(label, chi, float(t)) == pytest.approx(
            numerical_expectation(evolved, p2_op).real, abs=1e-8
        )


def test_quadratures_are_the_engine_moments_to_rounding():
    # x = √2 Re<a>, p = √2 Im<a> and x², p² = ½ + nu ± Re<a²> on the same
    # envelope: only the last few roundings differ. Measured at most 1.79
    # eps times the magnitude bound over this grid.
    eps = np.finfo(np.float64).eps
    for nu in (0.5, 10.0, 400.0, 2500.0):
        for angle in (0.0, 0.3, 2.0, -2.6, math.pi / 2.0):
            label = CoherentLabel.from_alpha(math.sqrt(nu) * np.exp(1j * angle))
            for chi in (1.0, 10.0 / math.pi, 0.37):
                t = np.linspace(0.0, 3.0 * math.pi / chi, 1201)
                a = ladder_moment(0, 1, label, chi, t)
                a2 = ladder_moment(0, 2, label, chi, t)
                first = 4.0 * eps * math.sqrt(2.0 * label.nu)
                second = 4.0 * eps * (0.5 + 2.0 * label.nu)
                assert np.max(np.abs(expect_x(label, chi, t) - math.sqrt(2.0) * a.real)) <= first
                assert np.max(np.abs(expect_p(label, chi, t) - math.sqrt(2.0) * a.imag)) <= first
                assert np.max(np.abs(expect_x2(label, chi, t) - (0.5 + label.nu + a2.real))) <= second
                assert np.max(np.abs(expect_p2(label, chi, t) - (0.5 + label.nu - a2.real))) <= second


_LABEL = CoherentLabel(1.5, -0.5)

#: Every closed form, as f(chi, t); each reaches the Kerr envelope's guard.
_CLOSED_FORMS = {
    "ladder_moment": lambda chi, t: ladder_moment(1, 3, _LABEL, chi, t),
    "expect_x": lambda chi, t: expect_x(_LABEL, chi, t),
    "expect_p": lambda chi, t: expect_p(_LABEL, chi, t),
    "expect_x2": lambda chi, t: expect_x2(_LABEL, chi, t),
    "expect_p2": lambda chi, t: expect_p2(_LABEL, chi, t),
    "expect_x_power": lambda chi, t: expect_x_power(3, _LABEL, chi, t),
    "uncertainty_trace": lambda chi, t: uncertainty_trace(_LABEL, chi, np.atleast_1d(t)),
    "angular_moment": lambda chi, t: angular_moment(
        "y", 2, TriModeLabel(_LABEL, CoherentLabel(0.5, 1.0), CoherentLabel(-1.0, 0.2)), chi, t
    ),
}


@pytest.mark.parametrize("name", sorted(_CLOSED_FORMS))
def test_closed_forms_refuse_bad_chi_and_time_before_any_warning(name):
    closed_form = _CLOSED_FORMS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for chi in (math.inf, -math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="chi must be finite and positive"):
                closed_form(chi, 0.3)
        for t in (math.inf, -math.inf, math.nan, np.array([0.1, 0.2, math.inf])):
            with pytest.raises(ValueError, match="time must be finite"):
                closed_form(1.0, t)
        closed_form(1.0, np.array([0.1, 0.2, 0.3]))


def test_second_moment_sum_rule():
    # <x^2> + <p^2> = 1 + p^2 + q^2 at every instant (energy conservation).
    label = CoherentLabel(1.0, 2.0)
    t = np.linspace(0.0, math.pi, 301)
    total = expect_x2(label, 1.0, t) + expect_p2(label, 1.0, t)
    assert np.max(np.abs(total - (1.0 + 1.0**2 + 2.0**2))) < 1e-12


def test_x_power_matches_quadratic_form():
    label = CoherentLabel(1.0, -2.0)
    t = np.linspace(0.0, 2.0, 50)
    assert np.allclose(
        expect_x_power(1, label, 1.0, t), expect_x(label, 1.0, t), atol=1e-12
    )
    assert np.allclose(
        expect_x_power(2, label, 1.0, t), expect_x2(label, 1.0, t), atol=1e-12
    )


def test_x_cubed_against_oracle():
    chi = 1.0
    label = CoherentLabel(2.0, 1.0)
    state = coherent_amplitudes(label)
    big = state.padded(state.truncation + 6)
    n = big.truncation
    a, adag = ladder(n)
    x3 = np.linalg.matrix_power((a + adag) / math.sqrt(2.0), 3)
    spectrum = Spectrum.kerr(chi)
    for t in np.linspace(0.0, math.pi, 25):
        closed = expect_x_power(3, label, chi, float(t))
        oracle = numerical_expectation(evolve(big, spectrum, float(t)), x3).real
        assert closed == pytest.approx(oracle, abs=1e-8)


def test_x_powers_to_twenty_against_dense_matrix_power():
    # The error is measured against Σ |coeff| |alpha|^(i+j) 2^(-k/2), the size
    # of the terms the expansion sums; measured worst: 2.0e-15 of it.
    chi = 1.0
    label = CoherentLabel(1.0, -1.5)
    state = coherent_amplitudes(label)
    spectrum = Spectrum.kerr(chi)
    for k in range(1, 21):
        big = state.padded(state.truncation + k)
        a, adag = ladder(big.truncation)
        xk = np.linalg.matrix_power((a + adag) / math.sqrt(2.0), k)
        scale = 2.0 ** (-k / 2.0) * sum(
            abs(coeff) * label.radius ** (i + j) for (i, j), coeff in x_power_terms(k)
        )
        for t in (0.0, 0.21, 0.8, 2.3):
            closed = expect_x_power(k, label, chi, t)
            oracle = numerical_expectation(evolve(big, spectrum, t), xk).real
            assert abs(closed - oracle) <= 4e-15 * scale


@pytest.mark.parametrize("k, nu", [(8, 100.0), (10, 25.0)])
def test_high_power_hermiticity_guard_scales_with_magnitude(k, nu):
    # At t = 0 the imaginary residue is ~1e-8 on values of ~1e8, which an
    # absolute limit once reported as an expansion bug.
    chi = 1.0
    label = CoherentLabel.from_alpha(math.sqrt(nu) * np.exp(0.7j))
    big = coherent_amplitudes(label)
    big = big.padded(big.truncation + k)
    a, adag = ladder(big.truncation)
    xk = np.linalg.matrix_power((a + adag) / math.sqrt(2.0), k)
    spectrum = Spectrum.kerr(chi)
    times = np.array([0.0, 0.05, 0.3, 1.1])
    trace = expect_x_power(k, label, chi, times)
    for t, closed in zip(times, trace):
        oracle = numerical_expectation(evolve(big, spectrum, float(t)), xk).real
        assert expect_x_power(k, label, chi, float(t)) == closed
        assert closed == pytest.approx(oracle, rel=1e-11)


def test_hermiticity_guard_still_catches_a_wrong_expansion(monkeypatch):
    import revivals.moments as moments

    # <a> alone is not Hermitian: its imaginary part is a real residue.
    monkeypatch.setattr(moments, "x_power_terms", lambda k: (((0, 1), 1),))
    with pytest.raises(ArithmeticError, match="expansion bug"):
        expect_x_power(1, CoherentLabel(0.0, 1e-3), 1.0, 0.0)
    with pytest.raises(ArithmeticError, match="expansion bug"):
        expect_x_power(1, CoherentLabel(0.0, 1e4), 1.0, 0.0)


def test_moment_overflow_names_the_moment():
    label = CoherentLabel(30.0, 1.0)
    with pytest.raises(ArithmeticError, match=r"r = 0, s = 400 overflows float64"):
        ladder_moment(0, 400, label, 1.0, 0.0)
    with pytest.raises(ArithmeticError, match=r"r = 60, s = 200 overflows float64"):
        ladder_moment(260, 60, label, 1.0, np.zeros(3))
    # Python's complex ** 40 at |alpha| ~ 7e15 overflows to nan + nan j, not inf.
    label = CoherentLabel(40.0, 1e16)
    assert cmath.isnan(label.alpha**40)
    with pytest.raises(ArithmeticError, match=r"r = 0, s = 40 overflows float64"):
        ladder_moment(0, 40, label, 1.0, 0.0)


def test_uncertainty_trace_floor_and_start():
    label = CoherentLabel(2.0, 2.0)
    times = np.linspace(0.0, math.pi, 200)
    dx, dp = uncertainty_trace(label, 1.0, times)
    product = dx * dp
    assert product[0] == pytest.approx(0.5, abs=1e-12)
    assert float(np.min(product)) >= 0.5 - 1e-9
    assert dx.dtype == dp.dtype == np.float64
    assert dx.shape == dp.shape == times.shape


def test_autocorrelation_bounds_and_revival():
    label = CoherentLabel(math.sqrt(10.0), math.sqrt(10.0))  # nu = 10
    spectrum = Spectrum.kerr(1.0)
    t = np.linspace(0.0, math.pi, 500)
    values = autocorrelation(label, spectrum, t)
    assert float(np.max(np.abs(values))) <= 1.0 + 1e-12
    assert abs(autocorrelation(label, spectrum, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert abs(autocorrelation(label, spectrum, math.pi)) == pytest.approx(
        1.0, abs=1e-10
    )


def test_scalar_and_array_times_agree_to_rounding():
    # A scalar t keeps its own route, cheaper per call than a one-element
    # array: Python complex products and one pairwise sum, where the array
    # takes NumPy's complex loops and a matrix product. The two agree only to
    # rounding; the bounds sit a little above the worst of several seeds.
    eps = float(np.finfo(np.float64).eps)
    rng = np.random.default_rng(7)
    for _ in range(5000):
        i, j = (int(v) for v in rng.integers(0, 4, size=2))
        p, q = rng.uniform(-10.0, 10.0, size=2)   # nu up to 100
        label = CoherentLabel(float(p), float(q))
        chi, t = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 3.0))
        scalar = ladder_moment(i, j, label, chi, t)
        (array,) = ladder_moment(i, j, label, chi, np.array([t]))
        # Relative to the rounding of the damping exponent and the angle.
        r, s = min(i, j), abs(i - j)
        scale = 1.0 + label.nu + chi * t * (s * s + 2 * r * s)
        assert abs(scalar - array) <= 2.0 * eps * scale * abs(array), (i, j, label, chi, t)
    kinds = (Spectrum.kerr, Spectrum.harmonic, Spectrum.square_well)
    for k in range(300):
        label = CoherentLabel.from_alpha(math.sqrt(rng.uniform(0.0, 2500.0)) * cmath.exp(1j * k))
        spectrum = kinds[k % 3](float(rng.uniform(0.1, 3.0)))
        t = float(rng.uniform(0.0, 3.0))
        (array,) = autocorrelation(label, spectrum, np.array([t]))
        assert abs(autocorrelation(label, spectrum, t) - array) <= 2.0 * eps, (label, spectrum, t)


def test_half_revival_overlap_by_spectrum():
    # At t = pi/(2 chi) the Kerr cat components are +-i alpha, nearly
    # orthogonal to the original at nu = 10, so the overlap is tiny. The
    # square-well quarter revival, by contrast, contains the original
    # label itself with weight 1/sqrt(2): |A|^2 lands on 0.5.
    label = CoherentLabel(math.sqrt(10.0), math.sqrt(10.0))
    t = math.pi / 2.0
    kerr_overlap = abs(autocorrelation(label, Spectrum.kerr(1.0), t)) ** 2
    well_overlap = abs(autocorrelation(label, Spectrum.square_well(1.0), t)) ** 2
    assert kerr_overlap < 1e-8
    assert well_overlap == pytest.approx(0.5, abs=1e-3)


def _term_sum_per_pair(terms, labels, chi, t):
    """_term_sum with every factor of every term evaluated by ladder_moment over all of t."""
    t = np.asarray(t, dtype=np.float64)
    total = np.zeros(t.shape, dtype=np.complex128)
    for key, coeff in terms:
        value = coeff
        for m, label in zip(range(0, 2 * len(labels), 2), labels):
            value = value * ladder_moment(*key[m : m + 2], label, chi, t)
        total = total + value
    return total


@pytest.mark.parametrize("t", [0.0, -0.0, 0.41, -1.7, np.linspace(-2.0, 2.0, 41), np.array([]),
                               np.array([[0.3, -0.0], [0.0, -2.2]])],
                         ids=["zero", "minus-zero", "positive", "negative", "grid", "empty", "2d"])
def test_term_sum_keeps_the_bits_of_per_pair_evaluation(t):
    # Conjugates are taken from their partners and zero-shift factors are
    # evaluated once; neither may move a bit, on any sign of t, with a
    # nu = 0 mode too.
    modes = (CoherentLabel(0.0, 0.0), CoherentLabel(1.3, -0.4), CoherentLabel.from_alpha(2.0 - 1.5j))
    pairs = [(m, n) for m in modes for n in modes]
    for k in (1, 2, 5, 8):
        for label in modes:
            total, _ = moments._term_sum(x_power_terms(k), (label,), 0.8, t)
            assert total.tobytes() == _term_sum_per_pair(x_power_terms(k), (label,), 0.8, t).tobytes()
    for n in (1, 2, 4):
        for first, second in pairs:
            terms = interference_power_terms(n)
            total, _ = moments._term_sum(terms, (first, second), 0.8, t)
            assert total.shape == np.shape(t)
            assert total.tobytes() == _term_sum_per_pair(terms, (first, second), 0.8, t).tobytes()


def test_degenerate_vacuum_traces_are_flat():
    vacuum = CoherentLabel(0.0, 0.0)
    t = np.linspace(0.0, 3.0, 50)
    assert np.all(expect_x(vacuum, 1.0, t) == 0.0)
    assert np.all(np.asarray(ladder_moment(0, 2, vacuum, 1.0, t)) == 0.0)
    assert np.allclose(expect_x2(vacuum, 1.0, t), 0.5, atol=1e-15)


def test_numerical_expectation_examples():
    label = CoherentLabel(math.sqrt(10.0), math.sqrt(10.0))  # nu = 10
    state = coherent_amplitudes(label)
    identity = np.eye(state.truncation + 1)
    assert numerical_expectation(state, identity).real == pytest.approx(
        1.0, abs=1e-12
    )
    number = np.diag(np.arange(state.truncation + 1.0))
    assert numerical_expectation(state, number).real == pytest.approx(
        10.0, abs=1e-8
    )
    small = np.eye(3)
    with pytest.raises(ValueError):
        numerical_expectation(state, small)
    # a†² a³ dual path on the Kerr-evolved state.
    big = state.padded(state.truncation + 6)
    op = ladder_product_matrix(2, 3, big.truncation)
    evolved = evolve(big, Spectrum.kerr(1.0), 0.37)
    direct = numerical_expectation(evolved, op)
    closed = ladder_moment(2, 3, label, 1.0, 0.37)
    assert abs(direct - complex(closed)) < 1e-9 * (1.0 + abs(direct))


def test_numerical_expectation_refuses_non_square_or_mismatched_array():
    state = coherent_amplitudes(CoherentLabel(1.0, 0.5), truncation=3)
    for shape in ((4, 5), (5, 4), (3, 3), (5, 5), (16,), (4, 4, 1)):
        with pytest.raises(ValueError, match=r"dimension mismatch: operator shape .*needs \(4, 4\)"):
            numerical_expectation(state, np.ones(shape))
    assert numerical_expectation(state, np.eye(4)) == pytest.approx(state.norm_sq(), abs=1e-15)


def test_second_quadrature_moments_finite_at_the_largest_nu():
    # nu = 5e307: 1 + p^2 + q^2 plus the bracket used to overflow before halving.
    huge = CoherentLabel(1e154, 1.0)
    t = np.linspace(0.0, math.pi, 5)
    x2, p2 = expect_x2(huge, 1.0, t), expect_p2(huge, 1.0, t)
    assert np.isfinite(x2).all() and np.isfinite(p2).all()
    assert expect_x2(huge, 1.0, 0.0) == huge.p * huge.p
    # Halving is exact, so wherever the old sum was finite the bits agree.
    rng = np.random.default_rng(5)
    for p, q in rng.uniform(-30.0, 30.0, size=(20, 2)):
        label = CoherentLabel(p, q)
        damping, angle = moments._kerr_envelope(0, 2, label.nu, 1.0, t)
        bracket = damping * ((p * p - q * q) * np.cos(angle) + 2.0 * p * q * np.sin(angle))
        base = 1.0 + p * p + q * q
        assert expect_x2(label, 1.0, t).tobytes() == (0.5 * (base + bracket)).tobytes()
        assert expect_p2(label, 1.0, t).tobytes() == (0.5 * (base - bracket)).tobytes()


def test_in_place_quadratures_keep_the_bits_of_the_expressions():
    rng = np.random.default_rng(11)
    t = np.concatenate([rng.uniform(-4.0, 4.0, 500), [0.0, 1e-9, math.pi]])
    for p, q in [(2.0, 1.0), (0.0, -3.0), *rng.uniform(-9.0, 9.0, size=(8, 2))]:
        label = CoherentLabel(p, q)
        for times in (t, 0.77, np.asarray(0.77)):
            damping, angle = moments._kerr_envelope(0, 1, label.nu, 1.3, times)
            cos, sin = np.cos(angle), np.sin(angle)
            x, p_ = damping * (p * cos + q * sin), damping * (q * cos - p * sin)
            assert np.asarray(expect_x(label, 1.3, times)).tobytes() == np.asarray(x).tobytes()
            assert np.asarray(expect_p(label, 1.3, times)).tobytes() == np.asarray(p_).tobytes()
            x2, p2 = expect_x2(label, 1.3, times), expect_p2(label, 1.3, times)
            dx, dp = uncertainty_trace(label, 1.3, times)
            assert np.asarray(dx).tobytes() == np.asarray(np.sqrt(x2 - x**2)).tobytes()
            assert np.asarray(dp).tobytes() == np.asarray(np.sqrt(p2 - p_**2)).tobytes()


def test_uncertainty_trace_peak_memory_is_a_few_arrays():
    # The result is two float64 arrays, 16 B a sample; with the quadratures
    # formed in place the whole call peaks at 56 B a sample (80 before).
    label = CoherentLabel(2.0, 1.0)
    times = np.linspace(0.0, 3.0, 200_000)
    uncertainty_trace(label, 1.0, times)   # caches filled outside the measurement
    tracemalloc.start()
    try:
        dx, dp = uncertainty_trace(label, 1.0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dx.shape == dp.shape == times.shape
    assert peak < 64 * times.size


def test_uncertainty_trace_refuses_a_cancelled_variance():
    with pytest.raises(
        ArithmeticError,
        match=r"^uncertainty trace at nu = 5e\+307: <x\^2> - <x>\^2 or <p\^2> - <p>\^2 "
        r"is not positive, so the subtraction lost every digit$",
    ):
        uncertainty_trace(CoherentLabel(1e154, 1.0), 1.0, np.linspace(0.0, math.pi, 3))


def test_detect_bursts_refuses_malformed_traces():
    with pytest.raises(ValueError, match="1-d and equal length"):
        detect_bursts(np.array([0.0, 1.0]), np.array([1.0]), 1.0, 1)
    with pytest.raises(ValueError, match="1-d and equal length"):
        detect_bursts(np.zeros((2, 2)), np.zeros((2, 2)), 1.0, 1)
    with pytest.raises(ValueError, match="strictly increasing"):
        detect_bursts(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]), 1.0, 1)
    times = np.linspace(0.0, 1.0, 101)
    for period in (math.inf, math.nan):
        with pytest.raises(ValueError, match="revival_time must be finite and positive"):
            detect_bursts(times, np.sin(7 * times), period, 3)
    report = detect_bursts(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 3.0]), 1.0, 1)
    assert tuple(report.ratios) == (Fraction(1, 1),)
