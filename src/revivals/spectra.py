"""Number-diagonal Hamiltonians and their revival structure.

A spectrum is a polynomial E(n) = sum_k c_k n^k with exact rational
coefficients, in units of hbar*chi, and the rate chi itself, so H = chi E(N̂)
and evolution is pure phase multiplication c_n -> c_n e^{-i chi E(n) t}.
Rational levels make the phases commensurate, so every spectrum revives. The
quadratic Kerr spectrum n(n-1) drives full revivals at pi/chi and
m-component cat states at the fractions (l/m) of that period; the Fourier
split of the quadratic phase sequence recovers the cat coefficients and
component labels exactly.
"""

from __future__ import annotations

__all__ = [
    "CatDecomposition", "Spectrum", "decompose_fractional", "evolve", "fractional_revival_times",
    "revival_time",
]

import functools
import math
import sys
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .fock import (
    CoherentLabel, FockVector, _check_count, _kept_state, coherent_amplitudes, inner_product,
)

#: Floor on 1 - F, F the fidelity of a cat's m-term sum against direct evolution.
FIDELITY_FLOOR = 1e-9

_EPS = float(np.finfo(np.float64).eps)

#: The named kinds by their coefficients c_0, c_1, ...; the square well puts
#: level 0 at 0, as an offset is only a global phase.
_KINDS = {"kerr": (0, -1, 1), "harmonic": (Fraction(1, 2), 1), "square_well": (0, 0, 1)}


class _Form(NamedTuple):
    coefficients: tuple[int | Fraction, ...]   # without trailing zeros
    kind: str
    codes: tuple[int, ...]      # q c_k, lowest power first
    q: int                      # the least common denominator of the c_k
    g: int                      # the gcd of the integers q(E(n) - E(0))
    cycles: float               # q/g rounded once: chi T_rev / (2 pi)


@functools.lru_cache(maxsize=256, typed=True)
def _exact_form(*coefficients: int | Fraction) -> _Form:
    """The _Form of exact coefficients, cached for the 256 tuples last used.

    The cache is typed, so 0.5 and Fraction(1, 2) are different keys and the
    types of each tuple are checked when it is first seen.

    With q the least common denominator the codes q c_k are integers, and g
    is the gcd of q(E(n) - E(0)) over n = 1..degree: every q(E(n) - E(0)) is
    an integer combination of the finite differences of qE at 0, which are
    integer combinations of those.
    """
    for c in coefficients:
        if not isinstance(c, (int, Fraction)):
            raise ValueError(
                f"spectrum coefficients must be int or Fraction, got {c!r}; "
                f"write an irrational factor common to all levels into chi"
            )
    while coefficients and not coefficients[-1]:
        coefficients = coefficients[:-1]
    q = math.lcm(*(Fraction(c).denominator for c in coefficients))
    codes = [int(c * q) for c in coefficients]
    g = math.gcd(*(sum(c * n**k for k, c in enumerate(codes)) - codes[0] for n in range(1, len(codes))))
    if not g:
        raise ValueError("a spectrum needs levels that depend on n; constant levels are one global phase")
    if max(q, *map(abs, codes)) > sys.float_info.max:
        raise ValueError("a spectrum's common denominator q and codes q c_k must fit in float64")
    kind = next((name for name, known in _KINDS.items() if known == coefficients), "custom")
    return _Form(coefficients, kind, tuple(codes), q, g, q / g)


@dataclass(frozen=True)
class Spectrum:
    """Diagonal Hamiltonian chi E(N̂), E(n) = sum_k coefficients[k] n^k.

    Coefficients are int or Fraction, kept without trailing zeros, so that
    the period is exact; an irrational factor common to all levels goes in chi.
    """

    coefficients: tuple[int | Fraction, ...]
    chi: float = 1.0
    _form: _Form = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.chi) and self.chi > 0):
            raise ValueError(f"chi must be finite and positive, got {self.chi:g}")
        form = _exact_form(*self.coefficients)
        object.__setattr__(self, "coefficients", form.coefficients)
        object.__setattr__(self, "_form", form)

    @classmethod
    def harmonic(cls, chi: float = 1.0) -> "Spectrum":
        return cls(_KINDS["harmonic"], chi)

    @classmethod
    def kerr(cls, chi: float = 1.0) -> "Spectrum":
        return cls(_KINDS["kerr"], chi)

    @classmethod
    def square_well(cls, chi: float = 1.0) -> "Spectrum":
        return cls(_KINDS["square_well"], chi)

    @property
    def kind(self) -> str:
        """The named kind with these coefficients, or "custom"."""
        return self._form.kind

    def energies(self, truncation: int) -> np.ndarray:
        """E_n for n = 0..truncation as a float vector, read-only and shared between calls.

        Horner's rule over the integer codes q c_k, then one division by q:
        Kerr is ((n - 1) n + 0)/1, the square well ((n + 0) n + 0)/1 and the
        harmonic (2n + 1)/2, each exact while q E_n fits in 53 bits.
        """
        return self._levels(truncation)[0]

    def _levels(self, truncation: int) -> tuple[np.ndarray, float]:
        """energies(truncation) and its max |E_n|, cached for the 256 last used."""
        return _horner_levels(self._form.codes, self._form.q, truncation)

    def _period(self) -> float:
        """The revival period 2 pi (q/g)/chi of revival_time, or inf where it overflows."""
        return 2.0 * math.pi * self._form.cycles / self.chi


@functools.lru_cache(maxsize=256)
def _horner_levels(codes: tuple[int, ...], q: int, truncation: int) -> tuple[np.ndarray, float]:
    n = np.arange(truncation + 1, dtype=np.float64)
    levels = np.zeros_like(n)
    for code in reversed(codes):
        levels = levels * n + float(code)
    levels /= float(q)
    levels.setflags(write=False)
    return levels, float(np.abs(levels).max())


def _phase_angles(chi: float, levels, t, level_max: float | None = None):
    """The phase angles chi * (t * levels); t * levels must pair every time with every level.

    A chi that is not finite and positive, a time that is not finite or an
    overflow raises ValueError before NumPy forms anything. The overflow
    check is exact, as rounding is monotone: the largest products are
    max|t| max|level| and chi times it, formed here in Python floats, which
    overflow without a warning. An array of levels comes with its largest
    magnitude, level_max; a scalar level is its own.
    """
    if not (math.isfinite(chi) and chi > 0):
        raise ValueError(f"chi must be finite and positive, got {chi:g}")
    top = float(np.abs(t).max(initial=0.0)) if isinstance(t, np.ndarray) else abs(float(t))
    if not math.isfinite(top):
        raise ValueError("time must be finite")
    if level_max is None:
        level_max = abs(float(levels))
    if not math.isfinite(float(chi) * (top * level_max)):
        raise ValueError(
            f"phases chi E t overflow float64 at chi = {chi:g}, |E| up to {level_max:g} "
            f"and |t| up to {top:g}; lower --chi, --t-min or --t-max"
        )
    return chi * (t * levels)


def _phases(spectrum: Spectrum, truncation: int, t, sign: float = -1.0, first: int = 0) -> np.ndarray:
    """e^{sign i chi E_n t} for first <= n <= truncation, the one place these exponentials are taken.

    The angles come from _phase_angles, so t pairs with the levels as there
    and a bad chi, a non-finite t or an overflow of any level n <= truncation
    raises ValueError first.
    """
    levels, level_max = spectrum._levels(truncation)
    return np.exp(sign * 1j * _phase_angles(spectrum.chi, levels[first:], t, level_max))


def evolve(state: FockVector, spectrum: Spectrum, t: float) -> FockVector:
    """Multiply by the phases e^{-i chi E(n) t} of _phases; norm is preserved exactly."""
    phases = _phases(spectrum, state.truncation, t)
    # amplitudes first: the complex multiply may fuse, so the order fixes the bits.
    np.multiply(state.amplitudes, phases, out=phases)
    return FockVector(phases, tail_mass=state.tail_mass, _adopt=True)


def _even_stride(spectrum: Spectrum, truncation: int, t: np.ndarray) -> int:
    """B = isqrt(M - 1) + 1 where the 1-d times t are an evenly spaced grid, else 1.

    A bad chi, a non-finite time or a phase chi E_n t that overflows anywhere
    on the grid raises ValueError first (_phase_angles). A grid counts as
    evenly spaced when M > 2, no time is farther than 4 eps max|t| from
    t_0 + k dt, with dt = (t_{M-1} - t_0)/(M - 1), which np.linspace grids
    satisfy, and the stride seed chi E B dt is finite.
    """
    energies, level_max = spectrum._levels(truncation)
    m = t.size
    top = np.abs(t).max(initial=0.0)
    _phase_angles(spectrum.chi, energies, top, level_max)
    if m > 2:
        step = math.isqrt(m - 1) + 1
        # Python floats: a span or stride seed beyond float64 is inf, not a warning.
        dt = (float(t[-1]) - float(t[0])) / (m - 1)
        if math.isfinite(float(spectrum.chi) * (abs(step * dt) * level_max)):
            drift = np.max(np.abs(t - (t[0] + dt * np.arange(m))))
            if drift <= 4.0 * _EPS * top:
                return step
    return 1


def _phase_factors(
    spectrum: Spectrum, truncation: int, t: np.ndarray, sign: float, first: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Giant and baby rows of the phases e^{sign i chi E_n t_k}, first <= n <= truncation, at 1-d times t.

    On an evenly spaced grid t_k = t_0 + k dt (_even_stride) the phase splits
    exactly: with B = isqrt(M - 1) + 1, row k = bB + j is giant[b] * baby[j],
    where giant holds the phases at t_0 + bB dt and baby those at j dt. Only
    three rows are exponentials: e^{sign i chi E t_0}, w = e^{sign i chi E dt}
    and W = e^{sign i chi E B dt}. Every other row is a product, baby[j] =
    baby[j - 1] w and giant[b] = giant[b - 1] W, so 3 N exponentials and
    about 2 sqrt(M) N complex products serve M N cells. A chain of k
    products adds about k ulps to the rounding of its seed's argument, which
    is of the same size as the rounding of chi E t_k itself. Any other times
    get B = 1: every time is a giant row of its own exponentials and the
    single baby row is all ones, which is the dense one-exponential-per-cell
    route. _even_stride refuses the grid first.
    """
    count = truncation + 1 - first
    step = _even_stride(spectrum, truncation, t)
    if step == 1:
        return _phases(spectrum, truncation, t[:, None], sign, first), np.ones((1, count), np.complex128)
    m = t.size
    dt = (float(t[-1]) - float(t[0])) / (m - 1)
    giant = np.empty((-(-m // step), count), dtype=np.complex128)
    baby = np.empty((step, count), dtype=np.complex128)
    seeds = np.array([t[0], dt, step * dt])[:, None]
    giant[0], baby[1], stride = _phases(spectrum, truncation, seeds, sign, first)
    baby[0] = 1.0
    for b in range(1, giant.shape[0]):
        np.multiply(giant[b - 1], stride, out=giant[b])
    for j in range(2, step):
        np.multiply(baby[j - 1], baby[1], out=baby[j])
    return giant, baby


#: The fold's largest transform length P, and the factor c of its cost rule:
#: fold when (N + 1) M >= c P log2 P, the factored route's cells against the FFT's.
_FOLD_MAX_LENGTH = 2**22
_FOLD_COST = 8


def _folded_sums(spectrum: Spectrum, weights: np.ndarray, t: np.ndarray) -> np.ndarray | None:
    """sum_n weights[n] e^{+i chi E_n t_k} by one FFT, where t_k = (K0 + k) T_rev/P; else None.

    With q and g of the spectrum's _Form, qE_n = qE_0 + g L_n for integers
    L_n, and chi E_n t_k = 2 pi (qE_0/g + L_n)(K0 + k)/P. Every phase is then
    an exact residue: the sum at t_k is the length-P inverse DFT of the
    weights binned by L_n mod P, read at (K0 + k) mod P, times the E_0
    phase e^{2 pi i qE_0 (K0 + k)/(gP)}. The residues come from Horner's rule
    over the codes qc_k modulo gP in int64, so no large angle is ever formed,
    and the values are those at the ideal times (K0 + k) T_rev/P.

    The M >= 2 times qualify when every t_k lies within 4 eps max|t| of
    (K0 + k) T_rev/P for integers K0 and 1 <= P <= _FOLD_MAX_LENGTH, and the
    fold is the cheaper route, (N + 1) M >= _FOLD_COST P log2 P. Other times,
    and grids whose residue arithmetic could overflow int64, give None, for
    the factored route. The caller has refused the grid (_even_stride).
    """
    m, levels = t.size, weights.size
    period = spectrum._period()
    dt = (float(t[-1]) - float(t[0])) / (m - 1)
    if not (dt > 0.0 and math.isfinite(period)):
        return None
    count = period / dt
    if not 0.5 <= count < _FOLD_MAX_LENGTH + 0.5:
        return None
    p = round(count)
    if levels * m < _FOLD_COST * p * math.log2(p):
        return None
    form = spectrum._form
    span = form.g * p
    start = float(t[0]) / period * p
    if span * max(span, levels) > np.iinfo(np.int64).max or not math.isfinite(start):
        return None
    k0 = round(start)
    ideal = (float(k0) + np.arange(m)) * (period / p)
    if np.max(np.abs(t - ideal)) > 4.0 * _EPS * np.abs(t).max():
        return None
    codes = [code % span for code in form.codes]
    n = np.arange(levels, dtype=np.int64)
    residues = np.zeros(levels, dtype=np.int64)
    for code in reversed(codes):
        residues *= n
        residues += code
        residues %= span
    residues -= codes[0]
    residues %= span
    residues //= form.g
    sums = np.fft.ifft(np.bincount(residues, weights=weights, minlength=p), norm="forward")
    index = k0 % span + np.arange(m, dtype=np.int64)
    values = sums[index % p]
    if codes[0]:
        turns = codes[0] * (index % span) % span
        turns[2 * turns > span] -= span   # |angle| <= pi
        values *= np.exp(1j * ((2.0 * math.pi / span) * turns))
    return values


def revival_time(spectrum: Spectrum) -> float:
    """Smallest T > 0 with every phase difference chi*(E(n) - E(0))*T a multiple of 2*pi.

    That is 2 pi q / (chi g), q the coefficients' common denominator and g the
    gcd of the integers q(E(n) - E(0)), so an offset (a global phase) leaves it
    alone. The exact q/g is rounded once, then scaled, so Kerr gives pi/chi and
    the harmonic and square well 2 pi/chi bit for bit at every chi. A period
    that overflows float64 (chi below about 1e-308) raises ValueError naming chi.
    """
    period = spectrum._period()
    if not math.isfinite(period):
        raise ValueError(f"revival period 2 pi q/(chi g) overflows float64 at chi = {spectrum.chi:g}")
    return period


def fractional_revival_times(
    spectrum: Spectrum, m_max: int
) -> list[tuple[int, int, float]]:
    """All reduced fractions l/m (2 <= m <= m_max) as (l, m, t) sorted by t.

    t = (l/m) * revival_time, which every spectrum has; for Kerr that is pi*l/(m*chi).
    m_max must be an integer of at least 2.
    """
    m_max = _check_count("m_max", m_max, 2)
    period = revival_time(spectrum)
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
    sequence; component labels are the rotated copies of alpha. A fidelity
    of the m-term sum against direct evolution below 1 - FIDELITY_FLOOR
    raises. Both are cut at the same N, so this self-consistency check
    cannot see truncation (fock._kept_state refuses a lossy N); at large nu
    it sees the rounding of the phases chi E_n t (1e12 rad at nu = 1e6).
    m must be an integer of at least 1; an m above N + 1, the kept levels,
    raises before any length-m work: beyond them the m components are
    linearly dependent.
    """
    if spectrum.kind != "kerr":
        raise ValueError("fractional-revival decomposition is defined for kerr")
    m = _check_count("m", m, 1)
    state = _kept_state(label, truncation)
    if m > state.truncation + 1:
        raise ValueError(
            f"m = {m} exceeds N + 1 = {state.truncation + 1}, the kept Fock levels; "
            "beyond them the m components are linearly dependent"
        )
    t = (1 / m) * revival_time(spectrum)   # as in fractional_revival_times

    sequence, extra_rotation = _quadratic_phase_split(m)
    # ifft matches the needed (1/m) sum_n seq_n e^{+2 pi i q n / m} exactly.
    coefficients = np.fft.ifft(sequence)
    rotations = extra_rotation * np.exp(-2j * math.pi * np.arange(m) / m)
    labels = tuple(
        CoherentLabel.from_alpha(label.alpha * rot) for rot in rotations
    )

    evolved = evolve(state, spectrum, t)
    recon = np.zeros_like(evolved.amplitudes)
    for coeff, component in zip(coefficients, labels):
        recon += coeff * coherent_amplitudes(component, state.truncation).amplitudes
    recon_vec = FockVector(recon, _adopt=True)
    overlap = inner_product(recon_vec, evolved)
    fidelity = abs(overlap) ** 2 / (recon_vec.norm_sq() * evolved.norm_sq())
    if fidelity < 1.0 - FIDELITY_FLOOR:
        raise ValueError(
            f"cat reconstruction fidelity {fidelity:.15f} below {1.0 - FIDELITY_FLOOR:.9f}: "
            "the m-term sum disagrees with direct evolution of the same state, likely from "
            "rounding of the phases chi E_n t at large nu"
        )
    return CatDecomposition(m, coefficients, labels, t, fidelity)
