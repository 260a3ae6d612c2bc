"""Number-diagonal Hamiltonians and their revival structure.

A spectrum is a map n -> E_n in units of hbar*chi together with the rate
chi itself, so H = chi * E(N̂) and evolution is pure phase multiplication
c_n -> c_n e^{-i chi E(n) t}. The quadratic Kerr spectrum n(n-1) drives
full revivals at pi/chi and m-component cat states at the fractions
(l/m) of that period; the Fourier split of the quadratic phase sequence
recovers the cat coefficients and component labels exactly.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .fock import CoherentLabel, FockVector, coherent_amplitudes, inner_product

#: Reconstruction fidelity floor for fractional-revival decompositions.
FIDELITY_FLOOR = 1e-9

#: Highest level probed when searching a custom spectrum for a common period.
PERIOD_PROBE_LIMIT = 100

#: Custom level differences below this fraction of max|E_n - E_0| count as zero there.
LEVEL_ZERO_REL = 1e-12

_EPS = float(np.finfo(np.float64).eps)


def _harmonic_level(n):
    return n + 0.5


def _kerr_level(n):
    return n * (n - 1.0)


def _square_well_level(n):
    # Level 0 is assigned energy 0; the well proper starts at n = 1 and a
    # constant offset would be an unobservable global phase anyway.
    return n * n


#: Level functions of the named kinds; each also takes a float array of levels.
_ARRAY_LEVELS = frozenset((_harmonic_level, _kerr_level, _square_well_level))


@dataclass(frozen=True)
class Spectrum:
    """Diagonal Hamiltonian: kind tag, dimensionless level function, rate chi."""

    kind: str
    energy: Callable[[int], float]
    chi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.chi) and self.chi > 0):
            raise ValueError(f"chi must be finite and positive, got {self.chi:g}")

    @classmethod
    def harmonic(cls, chi: float = 1.0) -> "Spectrum":
        return cls("harmonic", _harmonic_level, chi)

    @classmethod
    def kerr(cls, chi: float = 1.0) -> "Spectrum":
        return cls("kerr", _kerr_level, chi)

    @classmethod
    def square_well(cls, chi: float = 1.0) -> "Spectrum":
        return cls("square_well", _square_well_level, chi)

    @classmethod
    def custom(cls, energy: Callable[[int], float], chi: float = 1.0) -> "Spectrum":
        return cls("custom", energy, chi)

    def energies(self, truncation: int) -> np.ndarray:
        """E_n for n = 0..truncation as a float vector.

        The named kinds evaluate their level function once on the float
        array 0..truncation, which rounds exactly as one call per level
        does; a custom level function is called once per level.
        """
        if self.energy in _ARRAY_LEVELS:
            return self.energy(np.arange(truncation + 1, dtype=np.float64))
        return np.fromiter(
            (float(self.energy(n)) for n in range(truncation + 1)),
            dtype=np.float64,
            count=truncation + 1,
        )


def evolve(state: FockVector, spectrum: Spectrum, t: float) -> FockVector:
    """Apply the diagonal phases e^{-i chi E(n) t}; norm is preserved exactly."""
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    phases = np.exp(-1j * spectrum.chi * t * spectrum.energies(state.truncation))
    return FockVector(state.amplitudes * phases, tail_mass=state.tail_mass)


def _phase_factors(
    spectrum: Spectrum, energies: np.ndarray, t: np.ndarray, sign: float
) -> tuple[np.ndarray, np.ndarray]:
    """Giant and baby rows of the phases e^{sign i chi E_n t_k} over 1-d float times t.

    On an evenly spaced grid t_k = t_0 + k dt the phase splits exactly: with
    B = isqrt(M - 1) + 1, row k = bB + j is giant[b] * baby[j], where giant
    holds the phases at t_0 + bB dt and baby those at j dt. Only three rows
    are exponentials: e^{sign i chi E t_0}, w = e^{sign i chi E dt} and
    W = e^{sign i chi E B dt}. Every other row is a product, baby[j] =
    baby[j - 1] w and giant[b] = giant[b - 1] W, so 3 N exponentials and
    about 2 sqrt(M) N complex products serve M N cells. A chain of k
    products adds about k ulps to the rounding of its seed's argument, which
    is of the same size as the rounding of chi E t_k itself. A grid counts
    as evenly spaced when no time is farther than 4 eps max|t| from
    t_0 + k dt, with dt = (t_{M-1} - t_0)/(M - 1), which np.linspace grids
    satisfy. One or two times (where factoring saves nothing) or times not
    evenly spaced get B = 1: every time is a giant row of its own
    exponentials and the single baby row is all ones, which is the dense
    one-exponential-per-cell route.
    """
    m = t.size
    rate = sign * 1j * spectrum.chi
    even = False
    if m > 2:
        dt = (t[-1] - t[0]) / (m - 1)
        drift = np.max(np.abs(t - (t[0] + dt * np.arange(m))))
        even = drift <= 4.0 * _EPS * np.max(np.abs(t))
    if not even:
        giant = np.exp(rate * (t[:, None] * energies))
        return giant, np.ones((1, energies.size), dtype=np.complex128)
    step = math.isqrt(m - 1) + 1
    giant = np.empty((-(-m // step), energies.size), dtype=np.complex128)
    baby = np.empty((step, energies.size), dtype=np.complex128)
    giant[0] = np.exp(rate * (t[0] * energies))
    baby[0] = 1.0
    baby[1] = np.exp(rate * (dt * energies))
    stride = np.exp(rate * ((step * dt) * energies))
    for b in range(1, giant.shape[0]):
        np.multiply(giant[b - 1], stride, out=giant[b])
    for j in range(2, step):
        np.multiply(baby[j - 1], baby[1], out=baby[j])
    return giant, baby


def _float_gcd(values: np.ndarray, errors: np.ndarray) -> float:
    """Euclidean gcd of floats, each exact up to its error in errors.

    fmod is exact, so a remainder a - k b of inputs off by da and db is off
    by at most da + k db; a remainder within four times that bound counts as
    zero, and so does an input within four times its own error. The result
    thus depends neither on the units the values are written in nor on how
    widely they spread. 0 means no input above that.
    """
    g = g_err = 0.0
    for v, err in zip(np.abs(values), errors):
        a, a_err = g, g_err
        b, b_err = float(v), float(err)
        while b > 4.0 * b_err:
            a, a_err, b, b_err = b, b_err, math.fmod(a, b), a_err + (a // b) * b_err
        g, g_err = a, a_err
    return g


def revival_time(spectrum: Spectrum) -> float | None:
    """Smallest T > 0 with every phase difference chi*(E(n) - E(0))*T a multiple of 2*pi.

    Only phase differences are observable, so a constant offset of the
    levels leaves the period unchanged. Closed answers for the named kinds;
    custom spectra are probed over n <= PERIOD_PROBE_LIMIT and None is
    returned when no common period exists there (an aperiodic spectrum, or
    equal probed levels). Each difference E_n - E_0 is taken as exact to
    eps (|E_n| + |E_0|), the rounding of its two levels, and counts as zero
    within four times that or below LEVEL_ZERO_REL of the largest; all
    tolerances are relative, so scaling every level by s scales the period
    by 1/s. Where the rounding of E_0 reaches the level spacing (an offset
    near 1e15 over unit spacings) the differences no longer hold the
    period, and neither this rule nor one on the raw levels can decide it.
    """
    if spectrum.kind == "kerr":
        return math.pi / spectrum.chi
    if spectrum.kind in ("harmonic", "square_well"):
        return 2.0 * math.pi / spectrum.chi
    energies = spectrum.energies(PERIOD_PROBE_LIMIT)
    diffs = energies[1:] - energies[0]
    errors = _EPS * (np.abs(energies[1:]) + abs(energies[0]))
    keep = np.abs(diffs) > np.maximum(4.0 * errors, LEVEL_ZERO_REL * np.max(np.abs(diffs)))
    diffs, errors = diffs[keep], errors[keep]
    if diffs.size == 0:
        return None
    g = _float_gcd(diffs, errors)
    # Euclid leaves g off by far more than eps g when the differences spread
    # widely or carry a large offset's rounding. A least-squares fit of g to
    # the differences within 2^10 of the smallest, whose multiples k round
    # safely, brings that to about eps g; each further fit takes in 2^10
    # times larger ones, until the last takes in all of them.
    sizes = np.abs(diffs)
    cut = np.min(sizes)
    while cut < np.max(sizes):
        cut *= 2.0**10
        near = diffs[sizes <= cut]
        k = np.round(near / g)
        g = float(k @ near) / float(k @ k)
    ratios = diffs / g
    if np.any(np.abs(ratios - np.round(ratios)) > 1e-6 + 64.0 * errors / g):
        return None
    return 2.0 * math.pi / (spectrum.chi * g)


def fractional_revival_times(
    spectrum: Spectrum, m_max: int
) -> list[tuple[int, int, float]]:
    """All reduced fractions l/m (2 <= m <= m_max) as (l, m, t) sorted by t.

    t = (l/m) * revival_time; for the Kerr spectrum that is pi*l/(m*chi).
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    period = revival_time(spectrum)
    if period is None:
        raise ValueError("spectrum has no revival time; no fractions to report")
    out = []
    for m in range(2, m_max + 1):
        for l in range(1, m):
            if math.gcd(l, m) == 1:
                out.append((l, m, (l / m) * period))
    out.sort(key=lambda item: Fraction(item[0], item[1]))
    return out


@dataclass(frozen=True)
class CatDecomposition:
    """Evolved state at t = T_rev/m written as m displaced coherent copies.

    The order m is len(coefficients), so it is not stored. The constructor
    still takes it first, as the order the record was built for, and refuses
    one that differs from the number of coefficients.
    """

    order: InitVar[int]
    coefficients: np.ndarray
    component_labels: tuple[CoherentLabel, ...]
    time: float
    fidelity: float

    def __post_init__(self, order: int) -> None:
        coeff = np.asarray(self.coefficients, dtype=np.complex128).copy()
        if coeff.shape != (order,):
            raise ValueError(f"order {order} needs {order} coefficients, got shape {coeff.shape}")
        coeff.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)

    @property
    def m(self) -> int:
        return len(self.coefficients)


def _quadratic_phase_split(m: int) -> tuple[np.ndarray, complex]:
    """Periodic phase sequence and label rotation for the order-m cat.

    The Kerr phase e^{-i pi n(n-1)/m} is m-periodic in n when m is odd. For
    even m it is not, but e^{-i pi n^2/m} is, and the leftover e^{+i pi n/m}
    is exactly a rotation of the coherent label by e^{i pi/m}.
    """
    n = np.arange(m, dtype=np.float64)
    if m % 2 == 1:
        return np.exp(-1j * math.pi * n * (n - 1.0) / m), 1.0 + 0.0j
    return np.exp(-1j * math.pi * n * n / m), complex(
        math.cos(math.pi / m), math.sin(math.pi / m)
    )


def decompose_fractional(
    label: CoherentLabel,
    m: int,
    spectrum: Spectrum,
    truncation: int | None = None,
) -> CatDecomposition:
    """Split the Kerr-evolved state at t = T_rev/m into m coherent components.

    Coefficients come from the inverse DFT of the length-m quadratic phase
    sequence; component labels are the rotated copies of alpha. The result
    is verified against direct evolution and an overlap fidelity below
    1 - 1e-9 raises (that signals a too-small truncation).
    """
    if spectrum.kind != "kerr":
        raise ValueError("fractional-revival decomposition is defined for kerr")
    if m < 1:
        raise ValueError("m must be >= 1")
    t = math.pi / (m * spectrum.chi)

    sequence, extra_rotation = _quadratic_phase_split(m)
    # ifft matches the needed (1/m) sum_n seq_n e^{+2 pi i q n / m} exactly.
    coefficients = np.fft.ifft(sequence)
    rotations = extra_rotation * np.exp(-2j * math.pi * np.arange(m) / m)
    labels = tuple(
        CoherentLabel.from_alpha(label.alpha * rot) for rot in rotations
    )

    state = coherent_amplitudes(label, truncation)
    evolved = evolve(state, spectrum, t)
    recon = np.zeros_like(evolved.amplitudes)
    for coeff, component in zip(coefficients, labels):
        recon = recon + coeff * coherent_amplitudes(
            component, state.truncation
        ).amplitudes
    recon_vec = FockVector(recon)
    overlap = inner_product(recon_vec, evolved)
    fidelity = abs(overlap) ** 2 / (recon_vec.norm_sq() * evolved.norm_sq())
    if fidelity < 1.0 - FIDELITY_FLOOR:
        raise ValueError(
            f"cat reconstruction fidelity {fidelity:.15f} below "
            f"{1.0 - FIDELITY_FLOOR:.9f}; increase the truncation"
        )
    return CatDecomposition(m, coefficients, labels, t, fidelity)
