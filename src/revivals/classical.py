"""Classical recurrence analogs: pendulum waves and the Talbot length.

A pendulum wave is an array of M oscillators tuned so oscillator j
completes exactly K0 + j full cycles during one recurrence period t_rev.
At t = (j/k) t_rev in lowest terms the array organizes into k traveling
waves of M/k oscillators each, the classical face of fractional revivals.
The Talbot self-imaging length of a diffraction grating plays the same
role for a monochromatic wave.
"""

from __future__ import annotations

__all__ = [
    "PendulumArray", "paraxial_talbot_length", "pendulum_positions", "talbot_length", "wave_count",
]

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fock import _check_count


@dataclass(frozen=True)
class PendulumArray:
    """Oscillator array with integer-spaced cycle counts per period.

    Oscillator j swings at frequency (base_cycles + j) / t_rev, so after
    t_rev every phase difference is a whole number of turns and the array
    recurs exactly. count and base_cycles must be integers (NumPy integers
    included); any other type raises ValueError.
    """

    count: int = 100
    base_cycles: int = 30
    t_rev: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        for name in ("count", "base_cycles"):
            _check_count(name, getattr(self, name), None)
        if self.count < 2:
            raise ValueError("need at least two oscillators")
        if self.base_cycles < 1:
            raise ValueError("base_cycles must be a positive integer")
        if not (0.0 < self.t_rev < math.inf and 0.0 < self.amplitude < math.inf):
            raise ValueError("t_rev and amplitude must be finite and positive")
        if math.isinf((self.base_cycles + self.count - 1) / self.t_rev):
            raise ValueError(f"t_rev {self.t_rev:g} is too small: the frequencies overflow")

    def frequencies(self) -> np.ndarray:
        j = np.arange(self.count, dtype=np.float64)
        return (self.base_cycles + j) / self.t_rev


def pendulum_positions(array: PendulumArray, t: float) -> np.ndarray:
    """x_j(t) = amplitude * cos(2 pi f_j t) for every oscillator."""
    return array.amplitude * np.cos(2.0 * math.pi * array.frequencies() * t)


def wave_count(array: PendulumArray, t: float) -> tuple[int, int]:
    """Dominant (waves, oscillators per wave) of the array at time t.

    The snapshot phases e^{2 pi i f_j t} form a pure spatial tone over the
    index j with frequency t/t_rev cycles per step. The length-M discrete
    Fourier transform peaks at bin b = M t / t_rev (mod M), and the wave
    count is the reduced denominator of b/M. At t = (j/k) t_rev with k
    dividing M this returns exactly (k, M/k).
    """
    if not 0.0 <= t <= array.t_rev:
        raise ValueError("t must lie within [0, t_rev]")
    tone = np.exp(2j * math.pi * array.frequencies() * t)
    bin_index = int(np.argmax(np.abs(np.fft.fft(tone))))
    waves = Fraction(bin_index, array.count).denominator
    return waves, array.count // waves


def _check_grating(wavelength: float, grating_period: float) -> None:
    if not (0.0 < wavelength < math.inf and 0.0 < grating_period < math.inf):
        raise ValueError("wavelength and grating period must be finite and positive")


def _finite_length(length: float, name: str) -> float:
    if math.isinf(length):
        raise ValueError(f"{name} overflows float64; rescale --wavelength and --grating-period")
    return length


def talbot_length(wavelength: float, grating_period: float) -> float:
    """Self-imaging distance z = lambda / (1 - sqrt(1 - lambda^2/a^2)).

    Evaluated as lambda (1 + sqrt(1 - x)) / x with x = lambda^2/a^2, which
    is the same number without the catastrophic cancellation at small
    lambda/a. Requires 0 < wavelength <= grating_period, both finite;
    beyond that the radicand goes negative and no self-image forms. An x
    below the smallest normal float has lost its digits and is refused.
    """
    _check_grating(wavelength, grating_period)
    if wavelength > grating_period:
        raise ValueError(
            "no Talbot image for wavelength above the grating period"
        )
    x = (wavelength / grating_period) ** 2
    if x < sys.float_info.min:
        raise ValueError(
            f"(wavelength / grating period)^2 underflows float64 at --wavelength "
            f"{wavelength:g} and --grating-period {grating_period:g}; rescale both"
        )
    return _finite_length(wavelength * (1.0 + math.sqrt(1.0 - x)) / x, "Talbot length")


def paraxial_talbot_length(wavelength: float, grating_period: float) -> float:
    """First-order approximation 2 a^2 / lambda, valid for lambda << a."""
    _check_grating(wavelength, grating_period)
    length = 2.0 * grating_period * grating_period / wavelength
    return _finite_length(length, "paraxial Talbot length")
