"""Truncated Fock-space primitives.

Everything downstream works in the number basis |0>, ..., |N>: coherent
states enter as Poisson-weighted amplitude vectors, operators as dense
(N+1) x (N+1) matrices. Units are fixed globally at hbar = m = omega = 1,
so the quadratures are x = (a + a†)/√2 and p = (a - a†)/(i√2) and a
coherent label alpha = (p + iq)/√2 has mean photon number nu = |alpha|².

Amplitudes are assembled through log-gamma sums, never raw factorials,
so truncations up to a few thousand stay finite in float64. The values
ln k! = lgamma(k + 1) come from one read-only module table, filled by
math.lgamma on first need and doubled whenever a larger N asks for more,
so repeated calls slice it instead of recomputing every level.
"""

from __future__ import annotations

__all__ = [
    "CoherentLabel", "FockVector", "auto_truncation", "coherent_amplitudes", "inner_product",
    "ladder_product_matrix", "number_distribution",
]

import math
import sys
from dataclasses import dataclass, field

import numpy as np

#: Default bound on acceptable residual tail mass 1 - sum |c_n|^2.
DEFAULT_TOLERANCE = 1e-10


def auto_truncation(nu: float) -> int:
    """Truncation that keeps the Poisson tail of a coherent state below ~1e-12.

    Mean + 10 standard deviations + 20 covers every nu up to about 1e4. A
    level count that no array can hold is refused here already.
    """
    return _check_level_count(nu, math.ceil(nu + 10.0 * math.sqrt(nu) + 20.0))


def _check_level_count(nu: float, truncation: int) -> int:
    """The truncation N, after refusing N + 1 levels whose complex128 amplitudes no array holds."""
    if 16 * (truncation + 1) > sys.maxsize:
        from decimal import Decimal   # formats any int, even one past the largest float
        raise ValueError(
            f"N + 1 = {Decimal(truncation + 1):.4g} Fock levels at nu = {nu:.6g}: that many "
            "complex128 amplitudes exceed sys.maxsize bytes, the largest array"
        )
    return truncation


@dataclass(frozen=True)
class CoherentLabel:
    """Coherent-state label alpha stored as the quadrature pair (p, q).

    alpha = (p + iq)/√2, so p and q are the t = 0 means of x and p.
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise ValueError("coherent label requires finite (p, q)")
        p, q = float(self.p), float(self.q)   # Python floats overflow to inf without a warning
        if not math.isfinite(p * p + q * q):
            raise ValueError(
                f"coherent label p = {p:g}, q = {q:g}: its mean photon number "
                f"nu = (p^2 + q^2)/2 overflows float64"
            )

    @classmethod
    def from_alpha(cls, alpha: complex) -> "CoherentLabel":
        """Build the label from the complex eigenvalue alpha itself."""
        alpha = complex(alpha)
        return cls(p=math.sqrt(2.0) * alpha.real, q=math.sqrt(2.0) * alpha.imag)

    @property
    def alpha(self) -> complex:
        return complex(self.p, self.q) / math.sqrt(2.0)

    @property
    def nu(self) -> float:
        """Mean photon number |alpha|^2 = (p^2 + q^2)/2."""
        return 0.5 * (self.p * self.p + self.q * self.q)

    @property
    def radius(self) -> float:
        return abs(self.alpha)

    @property
    def angle(self) -> float:
        """Polar angle of alpha; 0 for the vacuum by convention."""
        a = self.alpha
        return math.atan2(a.imag, a.real)


@dataclass(frozen=True)
class FockVector:
    """State vector over number states 0..N.

    truncation is always len(amplitudes) - 1, a read-only property.
    tail_mass carries, when known, the probability weight the truncation cut
    off (1 - sum |c_n|^2 of the untruncated state); consumers compare it
    against their tolerance instead of receiving warnings.
    """

    amplitudes: np.ndarray
    tail_mass: float | None = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128).copy()
        if amp.ndim != 1 or amp.size == 0:
            raise ValueError("amplitudes must be a nonempty 1-d sequence")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def truncation(self) -> int:
        return self.amplitudes.size - 1

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def padded(self, truncation: int) -> "FockVector":
        """Zero-extend to a larger truncation (needed to match operator dims)."""
        if truncation < self.truncation:
            raise ValueError("padding cannot shrink a state")
        amp = np.zeros(truncation + 1, dtype=np.complex128)
        amp[: self.truncation + 1] = self.amplitudes
        return FockVector(amp, tail_mass=self.tail_mass)


#: ln k! = math.lgamma(k + 1.0) for k = 0..size - 1; grown by _log_factorials only.
_LOG_FACTORIALS = np.zeros(0)


def _log_factorials(count: int) -> np.ndarray:
    """Read-only ln k! for k = 0..count - 1, sliced from the module table.

    A request past the table's end refills it at max(count, twice its size)
    entries, computing only the new ones with math.lgamma(k + 1.0).
    """
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if count > table.size:
        size = max(count, 2 * table.size)
        grown = np.empty(size, dtype=np.float64)
        grown[: table.size] = table
        grown[table.size :] = np.fromiter(
            (math.lgamma(k + 1.0) for k in range(table.size, size)),
            dtype=np.float64,
            count=size - table.size,
        )
        grown.setflags(write=False)
        _LOG_FACTORIALS = table = grown
    return table[:count]


def _log_amplitudes(nu: float, truncation: int) -> np.ndarray:
    """ln of the Poisson amplitude magnitudes n*ln|alpha| - lnGamma(n+1)/2 - nu/2.

    Every amplitude and weight vector is sized here, so here a level count
    that no array can hold is refused, before numpy tries to allocate it.
    """
    _check_level_count(nu, truncation)
    n = np.arange(truncation + 1, dtype=np.float64)
    lgamma = _log_factorials(truncation + 1)
    if nu == 0.0:
        # ln|alpha| = -inf; only n = 0 survives.
        out = np.full(truncation + 1, -np.inf)
        out[0] = 0.0
        return out
    return 0.5 * n * math.log(nu) - 0.5 * lgamma - 0.5 * nu


def coherent_amplitudes(
    label: CoherentLabel, truncation: int | None = None
) -> FockVector:
    """Coherent-state amplitudes c_n = e^{-nu/2} alpha^n / sqrt(n!) up to n = N.

    With truncation None the auto rule is applied, which keeps the cut tail
    below DEFAULT_TOLERANCE for any sane nu. A too-small explicit truncation
    is not an error; the returned vector reports the lost weight in tail_mass
    and callers compare that against whatever tolerance they run with.
    """
    if truncation is None:
        truncation = auto_truncation(label.nu)
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    logs = _log_amplitudes(label.nu, truncation)
    magnitudes = np.exp(logs)
    phases = np.exp(1j * label.angle * np.arange(truncation + 1))
    tail = max(0.0, 1.0 - float(np.sum(magnitudes * magnitudes)))
    return FockVector(magnitudes * phases, tail_mass=tail)


def number_distribution(label: CoherentLabel) -> np.ndarray:
    """Poisson weights e^{-nu} nu^n / n! for n = 0..N at the auto-truncation N."""
    logs = _log_amplitudes(label.nu, auto_truncation(label.nu))
    return np.exp(2.0 * logs)


def ladder_product_matrix(r: int, k: int, truncation: int) -> np.ndarray:
    """Normal-ordered product (a†)^r a^k built entry by entry, as a complex128 array.

    Acting on |n> gives sqrt(n!/(n-k)!) * sqrt((n-k+r)!/(n-k)!) |n-k+r>,
    so the matrix has a single shifted diagonal, filled in one pass over
    n = k..min(N, N+k-r) from the log-factorial table. Entries come straight
    from that rule rather than from multiplying ladder matrices, which
    provides an independent construction to test the product route against.
    """
    if r < 0 or k < 0:
        raise ValueError("operator powers must be nonnegative")
    dim = truncation + 1
    out = np.zeros((dim, dim), dtype=np.complex128)
    log_fact = _log_factorials(dim)
    n = np.arange(k, min(dim, dim + k - r))
    base = log_fact[n - k]
    out[n - k + r, n] = np.exp(
        0.5 * (log_fact[n] - base) + 0.5 * (log_fact[n - k + r] - base)
    )
    return out


def inner_product(bra: FockVector, ket: FockVector) -> complex:
    """<bra|ket> with the bra conjugated; truncations must match."""
    if bra.truncation != ket.truncation:
        raise ValueError(
            f"truncation mismatch: {bra.truncation} vs {ket.truncation}"
        )
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))
