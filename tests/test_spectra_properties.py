"""Property tests of revival_time over exact rational polynomial spectra."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from revivals.spectra import Spectrum, _phase_angles, revival_time

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402


def _quintic(d, c, a, b, e, q, scale=1):
    """Coefficients of scale (d n^5 + c n^3 + a n^2 + b n + e) / q, lowest power first."""
    return tuple(scale * Fraction(k, q) for k in (e, b, a, c, 0, d))


def _exact_period(d, c, a, b, e, q, chi, scale=1):
    """2 pi q / (chi scale g), with g the gcd of the integer level differences over n <= 100."""
    def poly(n):
        return d * n**5 + c * n**3 + a * n * n + b * n

    g = math.gcd(*(poly(n) for n in range(101)))
    # The exact ratio is rounded once, as revival_time rounds its q / g.
    return 2.0 * math.pi * float(Fraction(q, g) / scale) / chi


@settings(max_examples=120, deadline=None)
@given(
    d=st.integers(-9, 9),
    c=st.integers(-9, 9),
    a=st.integers(-9, 9),
    b=st.integers(-9, 9),
    e=st.integers(-10**9, 10**9),
    q=st.integers(1, 12),
    power=st.integers(-40, 40),
    chi=st.floats(0.1, 10.0),
)
def test_revival_time_of_rational_polynomial_spectra(d, c, a, b, e, q, power, chi):
    # E_n = s (d n^5 + c n^3 + a n^2 + b n + e) / q with s = 2^power has
    # common period 2 pi q / (chi s g), g the gcd of the integer differences;
    # the constant e is a global phase and leaves g as it is. The quintic
    # term spreads the levels up to about 1e10 times g, and e offsets them
    # by up to 1e9.
    assume(d or c or a or b)
    scale = Fraction(2) ** power
    spectrum = Spectrum(_quintic(d, c, a, b, e, q, scale), chi)
    assert revival_time(spectrum) == _exact_period(d, c, a, b, e, q, chi, scale)


def test_revival_time_of_random_rational_quintics():
    # 3000 quintics with |d|, |c|, |a|, |b| <= 9, |e| <= 1e9 and q <= 12, each
    # against the exact rule; a float search over sampled levels missed some.
    rng = random.Random(7)
    for _ in range(3000):
        d, c, a, b = (rng.randint(-9, 9) for _ in range(4))
        e, q = rng.randint(-10**9, 10**9), rng.randint(1, 12)
        if not (d or c or a or b):
            continue
        spectrum = Spectrum(_quintic(d, c, a, b, e, q), 1.0)
        assert revival_time(spectrum) == _exact_period(d, c, a, b, e, q, 1.0), (d, c, a, b, e, q)


def test_revival_time_of_a_widely_spread_offset_quintic():
    # (4 n^5 + 6 n^3 + 2 n^2 + 3 n + 770600743) / 9: levels spread over about
    # 1e10 and offset by about 1e8, where the float period search returned None.
    spectrum = Spectrum(_quintic(4, 6, 2, 3, 770600743, 9), 1.0)
    assert revival_time(spectrum) == _exact_period(4, 6, 2, 3, 770600743, 9, 1.0)
    assert revival_time(spectrum) == 18.0 * math.pi


@settings(max_examples=200, deadline=None)
@given(chi=st.floats(1e-300, 1e300))
def test_named_periods_are_pi_and_two_pi_over_chi_bitwise(chi):
    assert revival_time(Spectrum.kerr(chi)) == math.pi / chi
    assert revival_time(Spectrum.harmonic(chi)) == 2 * math.pi / chi
    assert revival_time(Spectrum.square_well(chi)) == 2 * math.pi / chi


@settings(max_examples=120, deadline=None)
@given(
    rational=st.integers(1, 9),
    irrational=st.sampled_from([math.sqrt(2), math.sqrt(3), math.pi, math.e, math.log(2)]),
    multiple=st.integers(1, 9),
    powers=st.permutations([1, 2, 3, 4, 5]),
)
def test_incommensurate_coefficients_are_refused(rational, irrational, multiple, powers):
    # Two monomials with an irrational coefficient ratio share no period and
    # have no exact form; the refusal says where an irrational scale belongs.
    coefficients = [0] * 6
    coefficients[powers[0]] = rational
    coefficients[powers[1]] = multiple * irrational
    with pytest.raises(ValueError, match="must be int or Fraction.*into chi"):
        Spectrum(tuple(coefficients), 1.0)


_MANTISSAS = st.floats(0.5, 1.0, exclude_max=True)


def _wide():
    """Floats +-m 2^e with m in [0.5, 1) and e in [-1021, 1024]: every normal magnitude."""
    magnitude = st.builds(math.ldexp, _MANTISSAS, st.integers(-1021, 1024))
    return st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())


@settings(max_examples=400, deadline=None)
@given(
    levels=st.lists(_wide(), min_size=1, max_size=4),
    times=st.lists(_wide(), min_size=1, max_size=4),
    data=st.data(),
)
def test_phase_guard_is_exact(levels, times, data):
    # The guard raises exactly when some chi * (t * level) is not finite, for
    # one time and level as Python floats and for arrays paired by
    # broadcasting, the array with its largest |level| as every array caller
    # passes it. Half the rates put the largest product within a factor
    # of 8 of the float64 limit, where a guard off by one rounding or one
    # factor of two would show.
    edge = 1024 - math.frexp(max(map(abs, times)))[1] - math.frexp(max(map(abs, levels)))[1]
    exponent = data.draw(st.one_of(st.integers(-1021, 1024), st.integers(edge - 1, edge + 2)))
    chi = math.ldexp(data.draw(_MANTISSAS), min(1024, max(-1021, exponent)))
    pairs = (
        (times[0], levels[0], None),
        (np.array(times)[:, None], np.array(levels), max(map(abs, levels))),
    )
    for t, level, level_max in pairs:
        with np.errstate(over="ignore"):
            expected = chi * (t * level)
        if np.isfinite(expected).all():
            assert np.array_equal(_phase_angles(chi, level, t, level_max), expected)
        else:
            with pytest.raises(ValueError, match="phases chi E t overflow float64"):
                _phase_angles(chi, level, t, level_max)
