"""Closed-form expectation values for Kerr-evolved coherent states, and burst scoring.

The workhorse is the normal-ordered moment

    <a†^r a^(r+s)> = alpha^s nu^r e^{-2nu sin²(chi s t)}
                     * e^{-i chi (s(s-1)+2rs) t - i nu sin(2chi s t)}.

Its time dependence, a damping factor and an angle, is written once, in
_kerr_envelope, from angles of spectra._phase_angles. <x^k> and <L^n> sum
such moments; the x/p means and second moments (x = √2 Re<a>, p = √2 Im<a>,
x², p² = ½ + nu ± Re<a²>) combine the envelopes at s = 1 and 2 with alpha
in real arithmetic. Every closed form can be checked against
numerical_expectation, which knows nothing about the formulas: it just
sandwiches a dense operator array between truncated state vectors.

Time arguments accept scalars or arrays; arrays broadcast elementwise.

The burst detector quantifies "a signature is visible at t = (j/k) T_rev"
on a trace given as two plain arrays, times and values: for every reduced
fraction it compares the mean squared deviation from the global trace mean
inside a window of width T_rev/50 around j/k T_rev against the same measure
over the part of the trace belonging to no window. Flat traces report zero
everywhere; a window counts as detected when its ratio reaches 10. Its
report maps each fraction to its ratio.
"""

from __future__ import annotations

__all__ = [
    "BurstReport", "autocorrelation", "detect_bursts", "expect_p", "expect_p2", "expect_x",
    "expect_x2", "expect_x_power", "ladder_moment", "numerical_expectation", "uncertainty_trace",
]

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .fock import CoherentLabel, FockVector, _check_count, number_distribution
from .ordering import x_power_terms
from .spectra import Spectrum, _even_stride, _folded_sums, _phase_angles, _phase_factors, _phases

#: Imaginary residue of a Hermitian moment, relative to the bound on its
#: magnitude (at least 1), above which the residue is treated as a bug.
HERMITICITY_LIMIT = 1e-8

#: Burst detector: window width as a fraction of the revival time, and the
#: variance ratio at which a window counts as detected.
WINDOW_FRAC = 1.0 / 50.0
BURST_THRESHOLD = 10.0

#: Most complex cells of one block of autocorrelation's phase tables.
_BLOCK_CELLS = 2_000_000

#: Total weight of the leading Fock levels that autocorrelation's factored
#: and dense routes leave out: it bounds the change of any value.
_NEGLIGIBLE_WEIGHT = 2.0**-64


@dataclass(frozen=True)
class BurstReport:
    """Variance ratio per fractional-revival window of one trace.

    ratios maps each reduced fraction j/k to the ratio of the window centered
    at (j/k) * revival_time; it is read-only, and detect_bursts fills it in
    increasing order of fraction.
    """

    ratios: Mapping[Fraction, float]

    def __post_init__(self) -> None:
        if any(ratio < 0.0 for ratio in self.ratios.values()):
            raise ValueError("variance ratios cannot be negative")
        object.__setattr__(self, "ratios", MappingProxyType(dict(self.ratios)))

    def detected(self) -> tuple[Fraction, ...]:
        """Fractions whose ratio reaches BURST_THRESHOLD."""
        return tuple(f for f, r in self.ratios.items() if r >= BURST_THRESHOLD)


def detect_bursts(times, values, revival_time: float, k_max: int) -> BurstReport:
    """Score every reduced fraction j/k (k <= k_max) window of a sampled trace.

    times and values are 1-d arrays of equal length, finite, with times
    strictly increasing and covering [0, revival_time]; values may be real
    or complex. revival_time must be finite and positive. Any other input
    raises ValueError.

    The score of the window of width WINDOW_FRAC * revival_time centered at
    (j/k) * revival_time is the mean squared deviation from the global trace
    mean inside the window divided by the same quantity over the complement
    of all windows. Deviations are measured from the one global mean, not
    per-window means: a fractional revival announces itself as an excursion
    of the trace away from its plateau, and that excursion must not be
    absorbed into a local mean.
    Ratio conventions: 0/0 -> 0 (flat trace), positive/0 -> inf.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values)
    if times.ndim != 1 or times.shape != values.shape:
        raise ValueError("times and values must be 1-d and equal length")
    if times.size == 0:
        raise ValueError("empty trace")
    if not (np.isfinite(times).all() and np.isfinite(values).all()):
        raise ValueError("times and values must be finite")
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    if not (math.isfinite(revival_time) and revival_time > 0):
        raise ValueError(f"revival_time must be finite and positive, got {revival_time:g}")
    if _check_count("k_max", k_max, None) < 1:
        raise ValueError("k_max must be at least 1")
    span = 1e-9 * revival_time
    if times[0] > span or times[-1] < revival_time - span:
        raise ValueError("trace must cover [0, revival_time]")

    fractions = sorted(
        {Fraction(j, k) for k in range(1, k_max + 1) for j in range(1, k + 1)}
    )
    half = 0.5 * WINDOW_FRAC * revival_time
    deviations = np.abs(values - np.mean(values)) ** 2
    in_any = np.zeros(times.shape, dtype=bool)
    masks = []
    for frac in fractions:
        mask = np.abs(times - float(frac) * revival_time) <= half
        masks.append(mask)
        in_any |= mask
    outside = ~in_any
    out_level = float(np.mean(deviations[outside])) if outside.any() else 0.0

    ratios = {}
    for frac, mask in zip(fractions, masks):
        in_level = float(np.mean(deviations[mask])) if mask.any() else 0.0
        if out_level > 0.0:
            ratios[frac] = in_level / out_level
        else:
            ratios[frac] = 0.0 if in_level == 0.0 else math.inf
    return BurstReport(ratios)


def _kerr_envelope(r: int, s: int, nu: float, chi: float, t):
    """Damping e^{-2nu sin²(chi s t)} and angle chi(s(s-1) + 2rs)t + nu sin 2chi s t.

    <a†^r a^(r+s)> = alpha^s nu^r damping e^{-i angle}; t may be a scalar or
    an array. The angles chi (2s) t and chi (s(s-1) + 2rs) t come from
    spectra._phase_angles, so a bad chi or t raises before any numpy warning.
    """
    t = float(t) if np.ndim(t) == 0 else np.asarray(t, dtype=np.float64)
    double = _phase_angles(chi, 2 * s, t)
    # 2 sin² rather than 1 - cos 2x, which rounds to 0 below x ~ 1e-8.
    damping = np.exp(-2.0 * nu * np.sin(0.5 * double) ** 2)
    angle = _phase_angles(chi, s * (s - 1) + 2 * r * s, t) + nu * np.sin(double)
    return damping, angle


def _kerr_moment(r: int, s: int, label: CoherentLabel, chi: float, t):
    """Vectorized <a†^r a^(r+s)>; t may be a scalar or an array."""
    nu = label.nu
    damping, angle = _kerr_envelope(r, s, nu, chi, t)
    try:
        prefactor = (label.alpha**s) * (nu**r)
    except OverflowError:
        prefactor = complex(math.inf)
    if not cmath.isfinite(prefactor):   # complex ** s overflows to nan, not inf
        raise ArithmeticError(
            f"moment r = {r}, s = {s} overflows float64 at nu = {nu:.17g}: "
            f"|alpha^s nu^r| exceeds the largest float"
        )
    return prefactor * damping * np.exp(-1j * angle)


def ladder_moment(i: int, j: int, label: CoherentLabel, chi: float, t):
    """<(a†)^i a^j> for arbitrary powers, via conjugation when daggers exceed.

    <(a†)^i a^j> with i > j is the conjugate of <(a†)^j a^i>, which the
    normal-ordered closed form covers directly. i and j must be integers >= 0.
    A scalar t stays a Python float, 4.8 µs a call against 14.5 µs for a
    one-element array (2-core Xeon, timeit), as the oracle checks' hot path
    needs; the two round apart by up to eps (1 + nu + chi (s² + 2rs) t).
    """
    i, j = _check_count("i", i), _check_count("j", j)
    if j >= i:
        return _kerr_moment(i, j - i, label, chi, t)
    return np.conj(_kerr_moment(j, i - j, label, chi, t))


def autocorrelation(label: CoherentLabel, spectrum: Spectrum, t):
    """Overlap of the evolved state with itself at t = 0.

    A(t) = e^{-nu} sum_n (nu^n/n!) e^{+i chi E(n) t}, summed to the
    auto-truncation. |A| <= 1 always, and |A(T_rev)| = 1 for every spectrum.
    Accepts scalar or array t, refused as evolve refuses it, before any route
    is chosen. Three routes:

    - A scalar t is one sum of N exponentials, 11.7 µs a call against 28.6 µs
      for a one-element array (nu = 3, 2-core Xeon), as the oracle checks'
      hot path needs; the summation order differs by up to 2e-16 absolute.
    - Folded: on a grid t_k = (K0 + k) T_rev/P, the period cut into P steps,
      every phase is an exact integer residue, and the sums are one length-P
      FFT of the weights binned by residue (spectra._folded_sums). Its values
      are those at the ideal times (K0 + k) T_rev/P, which the float times
      match to 4 eps max|t|. It is taken when it is the cheaper route,
      (N + 1) M >= 8 P log2 P; the CLI's default grid over one period folds
      from nu of about 100 up.
    - Factored: any other evenly spaced grid is contracted through giant-step
      x baby-step phase factors (spectra._phase_factors), three rows of N
      exponentials and about 2 sqrt(M) N complex products, in one block when
      those rows hold at most 2_000_000 cells. Other arrays take one
      exponential per cell, in blocks of at most 2_000_000 cells, which
      bounds the memory. These two routes leave out the leading levels
      whose weights sum below _NEGLIGIBLE_WEIGHT = 2^-64, which moves no
      value by more than that: at nu = 2500 they keep 961 of 3021 levels.
    """
    weights = number_distribution(label)
    t_arr = np.asarray(t, dtype=np.float64)
    if t_arr.ndim == 0:
        # One time: building and contracting phase tables costs more than
        # this sum, and scalar calls are the oracle checks' hot path.
        # np.add.reduce is np.sum without its Python wrapper: the same pairwise sum.
        return complex(np.add.reduce(weights * _phases(spectrum, weights.size - 1, float(t_arr), 1.0)))
    flat = t_arr.ravel()
    truncation = weights.size - 1
    stride = _even_stride(spectrum, truncation, flat)   # refuses a bad chi, t or overflow first
    if stride > 1:
        folded = _folded_sums(spectrum, weights, flat)
        if folded is not None:
            return folded.reshape(t_arr.shape)
    first = int(np.searchsorted(np.cumsum(weights), _NEGLIGIBLE_WEIGHT))
    kept = weights.size - first
    block = max(1, _BLOCK_CELLS // kept)
    if stride > 1 and (-(-flat.size // stride) + stride) * kept <= _BLOCK_CELLS:
        block = flat.size   # the giant and baby rows of the whole grid fit
    out = np.empty(flat.size, dtype=np.complex128)
    for start in range(0, flat.size, block):
        times = flat[start : start + block]
        giant, baby = _phase_factors(spectrum, truncation, times, 1.0, first)
        # In place: a fresh product table would cost a page fault per 4 KiB.
        giant *= weights[first:]
        values = giant @ baby.T
        out[start : start + times.size] = values.ravel()[: times.size]
    return out.reshape(t_arr.shape)


def _scalar_or_array(value):
    return float(value) if np.ndim(value) == 0 else value


def _quadrature_moments(s: int, label: CoherentLabel, chi: float, t):
    """(<x>, <p>) at s = 1 and (<x²>, <p²>) at s = 2, from one Kerr envelope.

    The envelope turns 2^(s/2) alpha^s, which is p + iq or p² - q² + 2ipq,
    by e^{-i angle}. Real arithmetic keeps <x> at (q, -p) exactly equal to
    <p> at (p, q); numpy's complex multiply would not. Adding exact halves
    keeps <x²> and <p²> finite up to the largest nu.
    """
    damping, angle = _kerr_envelope(0, s, label.nu, chi, t)
    p, q = label.p, label.q
    # angle is dropped once read, and augmented operators work in place on
    # arrays (on scalars they rebind), so a trace of M times holds at most
    # five arrays of M here.
    cos, sin = np.cos(angle), np.sin(angle)
    del angle
    if s == 1:
        x = p * cos
        x += q * sin
        x *= damping
        cos *= q
        sin *= p
        cos -= sin
        cos *= damping
        return x, cos
    cos *= p * p - q * q
    sin *= 2.0 * p * q
    cos += sin
    cos *= damping
    cos *= 0.5   # half the bracket
    half_base = 0.5 * (1.0 + p * p + q * q)
    return half_base + cos, half_base - cos


def expect_x(label: CoherentLabel, chi: float, t):
    """<x> on the Kerr-evolved state; equals p at t = 0 and at full revivals."""
    return _scalar_or_array(_quadrature_moments(1, label, chi, t)[0])


def expect_p(label: CoherentLabel, chi: float, t):
    """<p> on the Kerr-evolved state; equals q at t = 0."""
    return _scalar_or_array(_quadrature_moments(1, label, chi, t)[1])


def expect_x2(label: CoherentLabel, chi: float, t):
    """<x²>; together with <p²> it sums to 1 + p² + q² at every t."""
    return _scalar_or_array(_quadrature_moments(2, label, chi, t)[0])


def expect_p2(label: CoherentLabel, chi: float, t):
    """<p²>; the oscillating bracket enters with the opposite sign to <x²>."""
    return _scalar_or_array(_quadrature_moments(2, label, chi, t)[1])


def _hermitian_value(total: np.ndarray, bound: float, name: str):
    """The real part of a Hermitian moment, after checking its imaginary residue.

    A residue above HERMITICITY_LIMIT times the bound on the moment's
    magnitude (at least 1) is an expansion bug and raises ArithmeticError.
    """
    residue = float(np.max(np.abs(total.imag))) if total.size else 0.0
    limit = HERMITICITY_LIMIT * max(1.0, bound)
    if residue > limit:
        raise ArithmeticError(
            f"{name} produced imaginary residue {residue:.3e} above "
            f"{limit:.3e}; expansion bug"
        )
    return _scalar_or_array(total.real)


def _term_sum(terms, labels, chi, t):
    """Σ coeff Π_m <(a_m†)^i a_m^j> over normal-ordered terms, and a bound on its size.

    Keys hold one (i, j) pair per mode of labels. Each distinct per-mode
    factor is evaluated once, before the sum, with the bits ladder_moment
    gives it at every t: (j, i) after (i, j) is its conjugate, as in
    ladder_moment, and a zero-shift factor <a†^i a^i> = nu^i (+0j) does not
    depend on t, so it is evaluated once, at the largest |t| (which keeps a
    non-finite t refused), and broadcast. The bound
    Σ |coeff| Π_m |alpha_m|^(i+j) holds at every t, since
    |<a†^i a^j>| <= |alpha|^(i+j).
    """
    t = np.asarray(t, dtype=np.float64)
    one_time = np.abs(t).max(initial=0.0, keepdims=True)
    modes = []
    for m, label in zip(range(0, 2 * len(labels), 2), labels):
        factors = {}
        for i, j in dict.fromkeys(key[m : m + 2] for key, _ in terms):
            if (j, i) in factors:
                factors[i, j] = np.conj(factors[j, i])
            else:
                factors[i, j] = ladder_moment(i, j, label, chi, one_time if i == j else t)
        modes.append((m, label.radius, factors))
    total = np.zeros(t.shape, dtype=np.complex128)
    bound = 0.0
    for key, coeff in terms:
        value, size = coeff, abs(coeff)
        for m, radius, factors in modes:
            i, j = key[m : m + 2]
            value = value * factors[i, j]
            size = size * radius ** (i + j)
        total = total + value
        bound += size
    return total, bound


def expect_x_power(k: int, label: CoherentLabel, chi: float, t):
    """<x^k> through the normal-ordered expansion of ((a+a†)/√2)^k.

    No hand-derived closed form exists beyond k = 2; this route sums the
    about k²/4 terms of the exact expansion, so it works for any k at
    closed-form speed.
    """
    total, bound = _term_sum(x_power_terms(k), (label,), chi, t)
    scale = 2.0 ** (-k / 2.0)
    return _hermitian_value(total * scale, scale * bound, f"<x^{k}>")


def uncertainty_trace(label: CoherentLabel, chi: float, times):
    """The spreads (Δx, Δp) over the given times, as two real arrays.

    Their product Δx·Δp stays at or above 1/2 up to rounding because the
    state starts minimum-uncertainty. A variance that is not positive has
    lost every digit to cancellation and raises ArithmeticError.
    """
    times = np.asarray(times, dtype=np.float64)
    x, p = _quadrature_moments(1, label, chi, times)
    var_x, var_p = _quadrature_moments(2, label, chi, times)
    var_x -= x**2
    var_p -= p**2
    if not (np.all(var_x > 0.0) and np.all(var_p > 0.0)):
        raise ArithmeticError(
            f"uncertainty trace at nu = {label.nu:.6g}: <x^2> - <x>^2 or "
            "<p^2> - <p>^2 is not positive, so the subtraction lost every digit"
        )
    return np.sqrt(var_x), np.sqrt(var_p)


def numerical_expectation(state: FockVector, op: np.ndarray) -> complex:
    """<v|M|v> by dense matrix-vector product; the independent verification route.

    op is an (N+1) x (N+1) array on the state's truncation N; any other shape
    raises ValueError. Build it on a truncation as large as the state's maximum
    ladder excursion requires, and pad the state to match.
    """
    dim = state.truncation + 1
    if op.shape != (dim, dim):
        raise ValueError(f"dimension mismatch: operator shape {op.shape}, state needs ({dim}, {dim})")
    return complex(np.vdot(state.amplitudes, op @ state.amplitudes))
