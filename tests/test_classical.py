"""Pendulum-wave recurrences and the Talbot self-imaging length."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from revivals.classical import (
    PendulumArray,
    paraxial_talbot_length,
    pendulum_positions,
    period_increment_positions,
    talbot_length,
    wave_count,
)


def test_array_validation_and_defaults():
    array = PendulumArray()
    assert (array.count, array.base_cycles) == (100, 30)
    assert array.t_rev == 1.0 and array.amplitude == 1.0
    with pytest.raises(ValueError):
        PendulumArray(count=1)
    with pytest.raises(ValueError):
        PendulumArray(base_cycles=0)
    with pytest.raises(ValueError):
        PendulumArray(t_rev=0.0)


def test_positions_at_recurrence_endpoints():
    array = PendulumArray()
    assert np.allclose(pendulum_positions(array, 0.0), 1.0)
    assert np.allclose(pendulum_positions(array, array.t_rev), 1.0, atol=1e-12)


def test_half_period_alternation():
    array = PendulumArray()
    x = pendulum_positions(array, 0.5)
    signs = (-1.0) ** (np.arange(100) + 30)
    assert np.max(np.abs(x - signs)) < 1e-12


def test_full_recurrence_shift_invariance():
    array = PendulumArray()
    rng = np.random.default_rng(2)
    for t in rng.uniform(0.0, 1.0, size=6):
        now = pendulum_positions(array, float(t))
        later = pendulum_positions(array, float(t) + array.t_rev)
        assert np.max(np.abs(now - later)) < 1e-12


def test_wave_counts_at_named_fractions():
    array = PendulumArray()
    assert wave_count(array, 0.5) == (2, 50)
    assert wave_count(array, 0.25) == (4, 25)
    assert wave_count(array, 0.1) == (10, 10)
    assert wave_count(array, 0.0) == (1, 100)
    assert wave_count(array, 1.0) == (1, 100)
    with pytest.raises(ValueError):
        wave_count(array, -0.1)
    with pytest.raises(ValueError):
        wave_count(array, 1.5)


def test_wave_count_mirror_symmetry():
    array = PendulumArray()
    rng = np.random.default_rng(4)
    for t in rng.uniform(0.0, 1.0, size=10):
        assert wave_count(array, float(t)) == wave_count(
            array, array.t_rev - float(t)
        )


def test_strength_law_large_array():
    # 50 400 is divisible by every k in 2..12 except 11, so the strength
    # M/k comes out exact for every reduced fraction at those k.
    array = PendulumArray(count=50400)
    for k in list(range(2, 11)) + [12]:
        for j in range(1, k):
            if math.gcd(j, k) != 1:
                continue
            waves, strength = wave_count(array, j / k)
            assert (waves, strength) == (k, 50400 // k)
    assert 50400 % 11 != 0


def test_period_increment_variant_does_not_revive():
    array = PendulumArray(count=20)
    start = period_increment_positions(array, 0.0, period_step=1e-3)
    assert np.allclose(start, array.amplitude)
    later = period_increment_positions(array, array.t_rev, period_step=1e-3)
    assert np.max(np.abs(later - start)) > 0.1


def test_talbot_exact_points():
    assert talbot_length(1.0, 1.0) == pytest.approx(1.0, abs=0.0)
    lam = 0.6
    z = talbot_length(lam, 1.0)
    assert z == pytest.approx(5.0 * lam, rel=1e-12)
    assert z == pytest.approx(3.0, rel=1e-12)


def test_talbot_paraxial_limit():
    lam, a = 500e-9, 50e-6
    exact = talbot_length(lam, a)
    approx = paraxial_talbot_length(lam, a)
    assert abs(exact - approx) / approx < 1e-4
    # The stable algebraic form keeps precision where the naive
    # 1 - sqrt(1 - eps) subtraction would shed digits.
    tiny = talbot_length(1e-9, 1.0)
    assert tiny == pytest.approx(2.0 / 1e-9, rel=1e-12)


def test_talbot_domain_errors():
    with pytest.raises(ValueError):
        talbot_length(2.0, 1.0)
    with pytest.raises(ValueError):
        talbot_length(0.0, 1.0)
    with pytest.raises(ValueError):
        talbot_length(1.0, -1.0)


def test_talbot_refuses_non_finite_and_unrepresentable_inputs():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for wavelength, period in ((math.inf, math.inf), (1e-300, math.inf), (math.nan, 1.0)):
            for length in (talbot_length, paraxial_talbot_length):
                with pytest.raises(ValueError, match="must be finite and positive"):
                    length(wavelength, period)
        # (lambda/a)^2 = 1e-600 underflows to zero; 1e-310 is subnormal.
        for wavelength, period in ((1e-300, 1.0), (1e-155, 1.0)):
            with pytest.raises(ValueError, match="--wavelength .* and --grating-period .*; rescale"):
                talbot_length(wavelength, period)
        with pytest.raises(ValueError, match="Talbot length overflows float64"):
            talbot_length(1e307, 1e308)
        with pytest.raises(ValueError, match="paraxial Talbot length overflows float64"):
            paraxial_talbot_length(1e199, 1e200)
        # A square of the ratio that is still a normal float is kept.
        assert talbot_length(1e-300, 1e-150) == pytest.approx(2.0, rel=1e-12)


def test_array_refuses_non_finite_inputs():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ({"t_rev": math.inf}, {"t_rev": math.nan}, {"amplitude": math.inf},
                    {"amplitude": -1.0}):
            with pytest.raises(ValueError, match="t_rev and amplitude must be finite and positive"):
                PendulumArray(**bad)
        with pytest.raises(ValueError, match="frequencies overflow"):
            PendulumArray(t_rev=1e-310)


def test_wave_count_reduced_fraction_logic():
    # Composite fractions reduce before counting: 2/4 of t_rev is the
    # half-revival pattern, not a four-wave one.
    array = PendulumArray()
    assert wave_count(array, Fraction(2, 4) * array.t_rev) == (2, 50)
