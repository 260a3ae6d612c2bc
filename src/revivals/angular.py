"""Angular-momentum moments of three-mode coherent products.

Three oscillator modes a, b, c (along x, y, z) each carry their own
coherent label and evolve under independent Kerr phases. The quadratic
combinations such as Lx = (b†c - c†b)/2i then have time-dependent moments
that factorize over modes: expand Lx^n into per-mode normal-ordered terms
once (n up to 40), evaluate each single-mode factor with the closed-form
moment engine, and sum. An independent oracle does the same computation
on the truncated two-mode amplitude array, applying Lx as shifted slices,
and arbitrates any disagreement.
"""

from __future__ import annotations

__all__ = ["TriModeLabel", "angular_moment", "lx_moment", "lx_moment_oracle"]

from dataclasses import dataclass

import numpy as np

from .fock import CoherentLabel, auto_truncation, coherent_amplitudes
from .moments import _hermitian_value, _term_sum
from .ordering import interference_power_terms
from .spectra import Spectrum, evolve

#: Largest allowed size (N+1)^2 of the oracle's two-mode amplitude array.
ORACLE_DIMENSION_LIMIT = 4_000_000

#: Mode pair feeding the interference operator for each Cartesian axis.
_AXIS_PAIRS = {"x": ("mode_b", "mode_c"), "y": ("mode_c", "mode_a"), "z": ("mode_a", "mode_b")}


@dataclass(frozen=True)
class TriModeLabel:
    """Coherent labels of the three modes; the product state is unentangled."""

    mode_a: CoherentLabel
    mode_b: CoherentLabel
    mode_c: CoherentLabel

    @classmethod
    def from_alphas(cls, a: complex, b: complex, c: complex) -> "TriModeLabel":
        return cls(
            CoherentLabel.from_alpha(a),
            CoherentLabel.from_alpha(b),
            CoherentLabel.from_alpha(c),
        )


def _pair_labels(axis: str, label: TriModeLabel) -> tuple[CoherentLabel, CoherentLabel]:
    try:
        first, second = _AXIS_PAIRS[axis]
    except KeyError:
        raise ValueError(f"axis must be one of x, y, z, not {axis!r}") from None
    return getattr(label, first), getattr(label, second)


def angular_moment(axis: str, n: int, label: TriModeLabel, chi: float, t):
    """<L_axis^n> on the per-mode Kerr-evolved product state, for 1 <= n <= 40.

    Product states factorize, so every expansion term is a product of two
    single-mode moments; each distinct one is evaluated once (at n = 4 the
    18 terms use 18, not 36). The result of a Hermitian power must be real;
    an imaginary residue beyond HERMITICITY_LIMIT times the bound on its
    magnitude raises instead of being silently dropped.
    """
    terms = interference_power_terms(n)   # refuses n outside 1..40
    total, bound = _term_sum(terms, _pair_labels(axis, label), chi, t)
    return _hermitian_value(total, bound, f"<L{axis}^{n}>")


def lx_moment(n: int, label: TriModeLabel, chi: float, t):
    """<Lx^n> via the closed-form factorized expansion."""
    return angular_moment("x", n, label, chi, t)


def lx_moment_oracle(n: int, label: TriModeLabel, chi: float, t: float):
    """<Lx^n> by brute force on the truncated two-mode space.

    Builds the evolved product state as an (N+1) x (N+1) amplitude array A,
    rows indexed by the first mode, with N the auto truncation of the larger
    of the two mean photon numbers, and applies Lx = (b†c - b c†)/2i as two
    shifted slices: b†c sends A[i, j] to (√(i+1) A[i, j]) √j at [i+1, j-1],
    b c† sends it to (√i A[i, j]) √(j+1) at [i-1, j+1]. That is the dense
    ladder-matrix product without its exact zeros, bit for bit. Knows
    nothing of the closed forms; this is the arbitration route. Its
    imaginary residue is checked against ‖A‖ ‖Lx^n A‖, the Cauchy-Schwarz
    bound on the moment, which keeps the size of the summed terms where the
    moment itself vanishes by symmetry.
    """
    if n < 1:
        raise ValueError(f"interference power must be at least 1, got {n}")
    spectrum = Spectrum.kerr(chi)
    first, second = _pair_labels("x", label)
    truncation = auto_truncation(max(first.nu, second.nu))
    dim = truncation + 1
    if dim * dim > ORACLE_DIMENSION_LIMIT:
        raise ValueError(
            f"two-mode amplitude array of {dim * dim} entries exceeds the memory guard "
            f"{ORACLE_DIMENSION_LIMIT}"
        )

    roots = np.sqrt(np.arange(1, dim, dtype=np.float64))[:, None]
    amp_first, amp_second = (
        evolve(coherent_amplitudes(mode, truncation), spectrum, t).amplitudes
        for mode in (first, second)
    )
    state = np.outer(amp_first, amp_second)

    applied = state
    for _ in range(n):
        shifted = np.zeros_like(applied)
        shifted[1:, :-1] = roots * applied[:-1, 1:] * roots.T
        shifted[:-1, 1:] -= roots * applied[1:, :-1] * roots.T
        applied = shifted / 2j
    value = np.vdot(state, applied)
    bound = float(np.linalg.norm(state) * np.linalg.norm(applied))
    return _hermitian_value(value, bound, f"oracle <Lx^{n}>")
