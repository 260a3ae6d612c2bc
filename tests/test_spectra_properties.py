"""Property tests of revival_time over rational custom spectra."""

import math
from fractions import Fraction

import pytest

from revivals.spectra import PERIOD_PROBE_LIMIT, Spectrum, revival_time

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402


@settings(max_examples=120, deadline=None)
@given(
    d=st.integers(0, 8),
    c=st.integers(0, 8),
    a=st.integers(0, 8),
    b=st.integers(-8, 8),
    e=st.integers(-10**6, 10**6),
    q=st.integers(1, 12),
    power=st.integers(-40, 40),
    chi=st.floats(0.1, 10.0),
)
def test_revival_time_of_rational_polynomial_spectra(d, c, a, b, e, q, power, chi):
    # E_n = s (d n^5 + c n^3 + a n^2 + b n + e) / q has common period
    # 2 pi / (chi g), with g the exact gcd of the probed level differences:
    # s gcd(...) / q. The constant e is a global phase and leaves g as it is.
    # A quintic term spreads the levels up to about 1e10 times g.
    assume(d or c or a or b)
    scale = 2.0**power

    def poly(n):
        return d * n**5 + c * n**3 + a * n * n + b * n

    spectrum = Spectrum.custom(lambda n: scale * (poly(n) + e) / q, chi)
    levels = range(PERIOD_PROBE_LIMIT + 1)
    g = Fraction(scale) * Fraction(math.gcd(*(poly(n) for n in levels)), q)
    assert revival_time(spectrum) == pytest.approx(2.0 * math.pi / (chi * float(g)), rel=1e-9)


@settings(max_examples=120, deadline=None)
@given(
    rational=st.integers(1, 9),
    irrational=st.sampled_from([math.sqrt(2), math.sqrt(3), math.pi, math.e, math.log(2)]),
    multiple=st.integers(1, 9),
    powers=st.permutations([1, 2, 3, 4, 5]),
    power=st.integers(-40, 40),
)
def test_revival_time_of_incommensurate_spectra_is_none(rational, irrational, multiple, powers, power):
    # Two monomials with an irrational coefficient ratio share no period.
    scale = 2.0**power
    p1, p2 = powers[:2]
    spectrum = Spectrum.custom(lambda n: scale * (rational * n**p1 + multiple * irrational * n**p2), 1.0)
    assert revival_time(spectrum) is None
