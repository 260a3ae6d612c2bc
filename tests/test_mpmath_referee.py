"""Autocorrelation against a 40-digit mpmath sum, the third referee.

The float64 routes agree with each other to about 1e-9 at nu = 2500, which
is too loose to say which of them is right. mpmath sums the same truncated
series, e^{-nu} sum_n nu^n/n! e^{i chi E_n t}, with 40 significant digits
at the float sample times themselves, so what remains is the float64 error
of the library alone. The bound 4 eps chi E_max t_max is the rounding of
the largest phase the grid needs, a few times over.
"""

import math

import numpy as np
import pytest

from revivals.fock import CoherentLabel, number_distribution
from revivals.moments import autocorrelation
from revivals.spectra import Spectrum

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
        # Kerr, nu = 2500, the CLI's default 801-sample [0, T_rev] grid.
        # Measured: largest error 9.6e-10 at k = 640, bound 2.5e-8.
        (CoherentLabel.from_alpha(50.0), Spectrum.kerr(1.0), math.pi,
         [0, 137, 400, 640, 799, 800]),
        # Square well, nu = 900, t_max = 4.4 (0.70 T_rev, no multiple of
        # any revival). Measured: largest error 6.0e-11 at k = 800, bound 5.8e-9.
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
