"""Autocorrelation and ladder moments against 40-digit mpmath sums, the third referee.

The float64 routes agree with each other to about 1e-9 at nu = 2500, which
is too loose to say which of them is right. mpmath sums the same truncated
series, e^{-nu} sum_n nu^n/n! e^{i chi E_n t}, with 40 significant digits
at the float sample times themselves, so what remains is the float64 error
of the library alone. The bound 4 eps chi E_max t_max is the rounding of
the largest phase the grid needs, a few times over. On grids that cut the
revival period into P steps the folded route's values belong to the ideal
times k T_rev/P; there mpmath sums the library's own weights with phases
reduced exactly, and the bound is 1e-14, independent of nu and t.

The moments <(a†)^i a^j> are summed the same way over the Fock levels of
the Kerr-evolved state, with no use of the closed form, the Hermite
functions of the carpets are checked where phi_0 alone underflows, and the
tail mass a truncation reports against the regularized incomplete gamma.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from revivals.carpets import hermite_functions
from revivals.fock import CoherentLabel, auto_truncation, coherent_amplitudes, number_distribution
from revivals import moments
from revivals.moments import autocorrelation, ladder_moment, uncertainty_trace
from revivals.spectra import Spectrum, _folded_sums, revival_time

mpmath = pytest.importorskip("mpmath")

EPS = float(np.finfo(np.float64).eps)


def _mpmath_autocorrelation(label, spectrum, t):
    energies = spectrum.energies(number_distribution(label).size - 1)
    with mpmath.workdps(40):
        nu = mpmath.mpf(label.nu)
        rate = mpmath.mpf(spectrum.chi) * mpmath.mpf(float(t))
        weight = mpmath.exp(-nu)
        total = mpmath.mpc(0)
        for n, energy in enumerate(energies):
            if n:
                weight = weight * nu / n
            total += weight * mpmath.expj(rate * mpmath.mpf(float(energy)))
        return complex(total)


@pytest.mark.parametrize(
    "label, spectrum, t_max, samples",
    [
        # Kerr, nu = 2500, the CLI's default 801-sample [0, T_rev] grid. It
        # folds, so the values belong to the ideal times k T_rev/800, which
        # the float times miss by an ulp or so. Measured: largest error
        # 7.7e-10 at k = 800, bound 2.5e-8.
        (CoherentLabel.from_alpha(50.0), Spectrum.kerr(1.0), math.pi,
         [0, 137, 400, 640, 799, 800]),
        # Square well, nu = 900, t_max = 4.4 (0.70 T_rev, no multiple of
        # any revival). Measured: largest error 4.7e-11 at k = 799, bound 5.8e-9.
        (CoherentLabel.from_alpha(30.0 * (0.6 + 0.8j)), Spectrum.square_well(1.0),
         4.4, [0, 137, 400, 656, 799, 800]),
    ],
    ids=["kerr-nu2500", "square-well-nu900"],
)
def test_autocorrelation_matches_mpmath(label, spectrum, t_max, samples):
    times = np.linspace(0.0, t_max, 801)
    values = autocorrelation(label, spectrum, times)
    e_max = float(np.max(np.abs(spectrum.energies(number_distribution(label).size - 1))))
    bound = 4.0 * EPS * spectrum.chi * e_max * t_max
    errors = [
        abs(values[k] - _mpmath_autocorrelation(label, spectrum, times[k]))
        for k in samples
    ]
    assert max(errors) <= bound, (errors, bound)
    # A(0) is the norm of the truncated state.
    assert abs(values[0] - 1.0) < 1e-12


def test_long_negative_grid_at_chain_ends_matches_mpmath(monkeypatch):
    # The grid cuts the period into 800 steps and would fold, so the fold is
    # switched off: this test is about the factored route's product chains.
    monkeypatch.setattr(moments, "_folded_sums", lambda *args: None)
    # Kerr, nu = 900, 4001 samples over [-2T, 3T]: B = 64 baby rows and 63
    # giant rows, each a chain of products from one exponential seed. The
    # samples sit at both ends of the baby chain (k = 0, 63), of the giant
    # chain (k = 64, 3968) and of the longest product of the two (k = 3967),
    # plus t = 0, T/2 and the last time. Measured: largest error 2.5e-10 at
    # k = 4000, bound 1.3e-8.
    spectrum = Spectrum.kerr(0.7)
    label = CoherentLabel.from_alpha(30.0 * (0.8 - 0.6j))
    period = math.pi / spectrum.chi
    times = np.linspace(-2.0 * period, 3.0 * period, 4001)
    values = autocorrelation(label, spectrum, times)
    e_max = float(np.max(spectrum.energies(number_distribution(label).size - 1)))
    bound = 4.0 * EPS * spectrum.chi * e_max * 3.0 * period
    samples = [0, 63, 64, 1600, 2000, 3967, 3968, 4000]
    errors = [
        abs(values[k] - _mpmath_autocorrelation(label, spectrum, times[k]))
        for k in samples
    ]
    assert max(errors) <= bound, (errors, bound)
    # Every full revival, -2T to 3T, returns the norm of the truncated state.
    revivals = np.abs(values[::800])
    assert np.max(np.abs(revivals - 1.0)) < 1e-12


#: T_rev as a multiple of pi/chi, the referee's own knowledge of each kind.
_PERIODS = {"kerr": 1, "harmonic": 2, "square_well": 2}


def _mpmath_ideal_autocorrelation(weights, levels, half_turns):
    """sum_n w_n e^{i pi E_n h} for float weights w_n, exact levels E_n and an exact fraction h.

    Each E_n h is reduced mod 2 exactly before mpmath takes its exponential
    at 40 digits.
    """
    with mpmath.workdps(40):
        total = mpmath.mpc(0)
        for weight, level in zip(weights, levels):
            turns = level * half_turns % 2
            total += mpmath.mpf(float(weight)) * mpmath.expjpi(mpmath.mpf(turns.numerator) / turns.denominator)
        return complex(total)


_KINDS = {"kerr": Spectrum.kerr, "harmonic": Spectrum.harmonic, "square_well": Spectrum.square_well}


@pytest.mark.parametrize(
    "nu, first, periods, samples",
    [
        # The CLI's default grid over one period, P = 800 steps, at three nu.
        (100.0, 0, 1, 801),
        (1100.0, 0, 1, 801),
        (2500.0, 0, 1, 801),
        # An offset grid (K0 = 200), one over two periods, and a negative one
        # (K0 = -900, P = 600).
        (400.0, 200, 1, 801),
        (400.0, 0, 2, 1601),
        (400.0, -900, 1, 601),
    ],
    ids=["nu100", "nu1100", "nu2500", "offset", "two-periods", "negative"],
)
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_folded_autocorrelation_matches_mpmath_at_the_ideal_times(kind, nu, first, periods, samples):
    # Measured: at most 6.1e-16 over every case.
    spectrum = _KINDS[kind](1.3)
    label = CoherentLabel.from_alpha(math.sqrt(nu) * (0.6 + 0.8j))
    period = revival_time(spectrum)
    steps = (samples - 1) // periods
    times = np.linspace(first * period / steps, (first + samples - 1) * period / steps, samples)
    assert _folded_sums(spectrum, number_distribution(label), times) is not None
    values = autocorrelation(label, spectrum, times)
    # chi E_n t = pi E_n (K0 + k)(chi T_rev/pi)/P at the ideal times.
    weights = number_distribution(label)
    levels = [sum(Fraction(c) * n**power for power, c in enumerate(spectrum.coefficients))
              for n in range(weights.size)]
    errors = [
        abs(values[k] - _mpmath_ideal_autocorrelation(weights, levels, Fraction((first + k) * _PERIODS[kind], steps)))
        for k in (0, 1, 137, samples // 2, samples - 2, samples - 1)
    ]
    assert max(errors) <= 1e-14, errors


def _mpmath_poisson_weights(label):
    """e^{-nu} nu^k / k! for k = 0..auto_truncation(nu), at 40 digits."""
    nu = mpmath.mpf(label.p) ** 2 / 2 + mpmath.mpf(label.q) ** 2 / 2
    weights = [mpmath.exp(-nu)]
    for k in range(1, auto_truncation(label.nu) + 1):
        weights.append(weights[-1] * nu / k)
    return weights


def _mpmath_ladder_moment(i, j, label, weights, chi, t):
    """<(a†)^i a^j> on the Kerr-evolved truncated state, summed over Fock levels.

    With c_n = e^{-nu/2} alpha^n / sqrt(n!) and phase e^{-i chi n(n-1) t},
    the level n = k + j term of <psi|(a†)^i a^j|psi> is
    conj(alpha)^i alpha^j (e^{-nu} nu^k / k!) conj(phase_{k+i}) phase_{k+j}.
    """
    rate = mpmath.mpf(chi) * mpmath.mpf(t)
    levels = len(weights)
    phase = [mpmath.expj(-rate * n * (n - 1)) for n in range(levels)]
    total = mpmath.fsum(
        weights[k] * mpmath.conj(phase[k + i]) * phase[k + j]
        for k in range(levels - max(i, j))
    )
    alpha = mpmath.sqrt(mpmath.mpf(0.5)) * mpmath.mpc(label.p, label.q)
    return complex(mpmath.conj(alpha) ** i * alpha**j * total)


@pytest.mark.parametrize("nu", [400.0, 2500.0])
def test_ladder_moments_match_mpmath(nu):
    chi = 0.8
    period = math.pi / chi
    label = CoherentLabel.from_alpha(math.sqrt(nu) * (0.6 + 0.8j))
    with mpmath.workdps(40):
        weights = _mpmath_poisson_weights(label)
        # The Poisson weights go through the log-factorial table, grown here
        # to N + 1 = 3021 entries at nu = 2500. The log-amplitude is a
        # difference of terms up to N ln(nu), each rounded once; relative to
        # the peak weight, measured: 0.16 (nu = 400) and 0.24 (nu = 2500) of
        # the bound 4 eps N ln(nu).
        dist = number_distribution(label)
        assert dist.size == len(weights)
        peak = float(max(weights))
        weight_error = max(abs(d - float(w)) for d, w in zip(dist, weights)) / peak
        assert weight_error <= 4 * EPS * (dist.size - 1) * math.log(nu)

        # Partial collapse (2e-4 T, 1e-3 T), the third-order revival of a^3
        # at T/3 and the full revival T. The closed form rounds two terms of
        # size nu (the envelope exponent and the phase nu sin(2 chi s t)),
        # whose arguments carry 2 chi s t of relative rounding: bound
        # 4 eps nu (1 + 2 chi |j - i| t) |alpha|^(i+j). Measured: at most
        # 0.143 of the bound (<a^3> at T, both nu).
        for t in (2e-4 * period, 1e-3 * period, period / 3, period):
            for i, j in ((0, 1), (1, 2), (2, 2), (0, 3)):
                value = complex(ladder_moment(i, j, label, chi, t))
                reference = _mpmath_ladder_moment(i, j, label, weights, chi, t)
                scale = label.radius ** (i + j)
                bound = 4 * EPS * nu * (1 + 2 * chi * abs(j - i) * t) * scale
                assert abs(value - reference) <= bound, (t, i, j, value, reference)


@pytest.mark.parametrize("angle", [1e-9, 1e-6, 1e-3])
def test_kerr_damping_matches_mpmath_at_small_angles(angle):
    # The s = 1 damping e^{-nu(1 - cos 2 chi s t)} at nu = 5e7. Written as
    # 1 - cos, it rounds to 1 at chi s t = 1e-9 (exponent 1e-10) and loses
    # about 5e-9 of itself at 1e-6 and 1e-3. The exponent E = 2 nu sin²(chi
    # s t) is rounded a few times, so the relative error stays within
    # 4 eps (1 + E). Measured: at most 0.04 of that bound.
    nu = 5e7
    damping, _ = moments._kerr_envelope(0, 1, nu, 1.0, angle)
    with mpmath.workdps(40):
        exponent = 2 * mpmath.mpf(nu) * mpmath.sin(mpmath.mpf(angle)) ** 2
        reference = mpmath.exp(-exponent)
        error = abs((mpmath.mpf(float(damping)) - reference) / reference)
    assert float(error) <= 4 * EPS * (1 + float(exponent)), (damping, reference)


def test_uncertainty_product_at_nu_5e7_matches_mpmath():
    # p = 1e4, q = 1 (nu = 5e7 + 1/2) at chi t = 1e-9 x 10/pi: the product
    # the xptrace command writes at its default chi. The variances are
    # differences of moments of size nu, so they keep about eps nu / Δx² of
    # relative accuracy, about 1e-7 here. Measured: 1.1e-8.
    label = CoherentLabel(1e4, 1.0)
    chi, t = 10.0 / math.pi, 1e-9
    dx, dp = uncertainty_trace(label, chi, np.array([t]))
    product = float(dx[0] * dp[0])
    with mpmath.workdps(40):
        p, q, rate = mpmath.mpf(label.p), mpmath.mpf(label.q), mpmath.mpf(chi) * mpmath.mpf(t)
        nu = (p * p + q * q) / 2
        alpha = mpmath.mpc(p, q) / mpmath.sqrt(2)

        def moment(s):   # <a^s>, the closed form at r = 0
            damping = mpmath.exp(-2 * nu * mpmath.sin(s * rate) ** 2)
            angle = s * (s - 1) * rate + nu * mpmath.sin(2 * s * rate)
            return alpha**s * damping * mpmath.expj(-angle)

        a1, a2 = moment(1), moment(2)
        mean_x, mean_p = mpmath.sqrt(2) * a1.real, mpmath.sqrt(2) * a1.imag
        var_x = mpmath.mpf(0.5) + nu + a2.real - mean_x**2
        var_p = mpmath.mpf(0.5) + nu - a2.real - mean_p**2
        reference = float(mpmath.sqrt(var_x * var_p))
    assert product >= 0.5
    assert abs(product - reference) <= 1e-6 * reference, (product, reference)


@pytest.mark.parametrize("n, x", [(2450, 70.0), (3000, -74.0), (800, 40.0)])
def test_far_hermite_functions_match_mpmath(n, x):
    # phi_0(x) underflows beyond |x| ~ 38.6, so these cells come from the
    # scaled recurrence; phi_n = H_n(x) e^{-x^2/2} / sqrt(sqrt(pi) 2^n n!).
    # Measured: relative error at most 2.1e-13.
    value = hermite_functions(np.array([x]), n)[n, 0]
    with mpmath.workdps(40):
        point = mpmath.mpf(x)
        norm = mpmath.sqrt(mpmath.sqrt(mpmath.pi) * mpmath.mpf(2) ** n * mpmath.factorial(n))
        reference = mpmath.hermite(n, point) * mpmath.exp(-point * point / 2) / norm
        error = abs((mpmath.mpf(float(value)) - reference) / reference)
    assert float(error) <= 1e-12, (value, reference)


@pytest.mark.parametrize("nu", [40.0, 1.5e5, 1e6])
def test_tail_mass_matches_mpmath_poisson_tail(nu):
    # tail_mass is the Poisson weight beyond N, not the rounding of
    # 1 - sum |c_n|^2 (about 1e-10 at the auto N for nu >= 1.5e5). Its error is
    # that of the exponent (N + 1) ln nu - ln (N + 1)! - nu, a few eps times
    # (N + 1) ln nu; measured: 1.5e-14 at nu = 40 and 1.7e-9 at nu = 1e6.
    label = CoherentLabel(math.sqrt(2.0 * nu), 0.0)
    auto = auto_truncation(nu)
    for truncation in (auto, math.ceil(nu + 3.0 * math.sqrt(nu))):
        tail = coherent_amplitudes(label, truncation).tail_mass
        with mpmath.workdps(40):
            reference = mpmath.gammainc(truncation + 1, 0, nu, regularized=True)
        bound = max(1e-13, 4 * EPS * (truncation + 1) * math.log(nu))
        assert abs(tail - reference) <= bound * reference, (truncation, tail, reference)
    assert tail > 1e-3 and coherent_amplitudes(label, auto).tail_mass < 1e-23
