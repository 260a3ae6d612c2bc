"""Truncated Fock-space primitives.

Everything downstream works in the number basis |0>, ..., |N>: coherent
states enter as Poisson-weighted amplitude vectors, operators as dense
(N+1) x (N+1) matrices. Units are fixed globally at hbar = m = omega = 1,
so the quadratures are x = (a + a†)/√2 and p = (a - a†)/(i√2) and a
coherent label alpha = (p + iq)/√2 has mean photon number nu = |alpha|².

Amplitudes are assembled through log-gamma sums, never raw factorials,
so truncations up to a few thousand stay finite in float64. Every per-level
value comes from one read-only module table of two rows, n and ln(n!)/2
with ln n! = lgamma(n + 1), filled on first need and doubled
whenever a larger N asks for more, so repeated calls slice it instead of
recomputing every level. States the library has just built are adopted by
FockVector without a copy.
"""

from __future__ import annotations

__all__ = [
    "CoherentLabel", "FockVector", "auto_truncation", "coherent_amplitudes", "inner_product",
    "ladder_product_matrix", "number_distribution",
]

import math
import operator
import sys
from dataclasses import InitVar, dataclass, field

import numpy as np

#: Default bound on the Poisson weight (tail_mass) an explicit truncation may cut.
DEFAULT_TOLERANCE = 1e-10


def auto_truncation(nu: float) -> int:
    """Truncation N = ceil(nu + 10 sqrt(nu) + 20), after refusing N + 1 levels no array holds.

    The Poisson weight it cuts, which coherent_amplitudes reports as
    tail_mass, is below 1e-23 at every nu, far within DEFAULT_TOLERANCE: an
    explicit N at or near it is never refused (_kept_state).
    """
    return _check_level_count(nu, math.ceil(nu + 10.0 * math.sqrt(nu) + 20.0))


def _check_count(name: str, value, least: int | None = 0) -> int:
    """value as an int, after refusing a non-integer (NumPy integers pass) or one below least.

    least None leaves the bound, and its message, to the caller.
    """
    try:
        count = operator.index(value)   # far cheaper than isinstance(value, numbers.Integral)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and count < least:
        raise ValueError(f"{name} must be >= {least}")
    return count


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
    off (sum |c_n|^2 over n > N of the untruncated state); consumers compare it
    against their tolerance instead of receiving warnings. The vector holds
    its own read-only copy of amplitudes, except that the library hands over
    (_adopt=True) a complex128 array it has just built and shares with no
    one, which is kept as is.
    """

    amplitudes: np.ndarray
    tail_mass: float | None = field(default=None, kw_only=True)
    _adopt: InitVar[bool] = field(default=False, kw_only=True)

    def __post_init__(self, _adopt: bool) -> None:
        amp = self.amplitudes if _adopt else np.asarray(self.amplitudes, dtype=np.complex128).copy()
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
        truncation = _check_count("truncation", truncation)
        if truncation < self.truncation:
            raise ValueError("padding cannot shrink a state")
        amp = np.zeros(truncation + 1, dtype=np.complex128)
        amp[: self.truncation + 1] = self.amplitudes
        return FockVector(amp, tail_mass=self.tail_mass, _adopt=True)


#: Per-level rows for n = 0..size - 1: n as float64 and ln(n!)/2 =
#: math.lgamma(n + 1.0)/2; grown by _level_table only.
_LEVEL_TABLE = np.zeros((2, 0))


def _level_table(count: int) -> np.ndarray:
    """The read-only (2, size) module table of rows n and ln(n!)/2, with size >= count.

    A request past the table's end refills it at max(count, twice its size)
    levels, computing only the new ones. Callers slice the row they need, so
    each is contiguous. Halving is exact, so ln(n!)/2 carries the bits of
    0.5 * lgamma(n + 1.0).
    """
    global _LEVEL_TABLE
    table = _LEVEL_TABLE
    old = table.shape[1]
    if count > old:
        size = max(count, 2 * old)
        grown = np.empty((2, size), dtype=np.float64)
        grown[:, :old] = table
        grown[0, old:] = np.arange(old, size, dtype=np.float64)
        grown[1, old:] = np.fromiter(
            (math.lgamma(k + 1.0) for k in range(old, size)), dtype=np.float64, count=size - old
        )
        grown[1, old:] *= 0.5
        grown.setflags(write=False)
        _LEVEL_TABLE = table = grown
    return table


def _log_amplitudes(nu: float, truncation: int) -> np.ndarray:
    """ln of the Poisson amplitude magnitudes n*ln|alpha| - lnGamma(n+1)/2 - nu/2, a fresh array.

    Every amplitude and weight vector is sized here, so here a level count
    that no array can hold is refused, before numpy tries to allocate it.
    """
    _check_level_count(nu, truncation)
    if nu == 0.0:
        # ln|alpha| = -inf; only n = 0 survives.
        out = np.full(truncation + 1, -np.inf)
        out[0] = 0.0
        return out
    dim = truncation + 1
    table = _level_table(dim)
    # n * (ln(nu)/2) has the bits of (n/2) * ln(nu): both halvings are exact.
    out = np.multiply(table[0, :dim], 0.5 * math.log(nu))
    out -= table[1, :dim]
    out -= 0.5 * nu
    return out


def _poisson_tail(nu: float, truncation: int) -> float:
    """The Poisson weight beyond level N, sum_{k > N} e^{-nu} nu^k / k!, for N + 2 > nu.

    1 - sum |c_n|^2 there is the rounding of the norm (about 1e-10 at nu =
    3e5), not the weight cut. So the tail is w_{N+1} = exp((N + 1) ln nu -
    ln (N + 1)! - nu) times 1 + nu/(N + 2) + nu^2/((N + 2)(N + 3)) + ...,
    whose ratios are below 1, summed until a term falls below 1e-17 of the
    leading 1. nu = 0 cuts nothing.
    """
    if nu == 0.0:
        return 0.0
    k = truncation + 1
    weight = math.exp(k * math.log(nu) - math.lgamma(k + 1.0) - nu)
    series = term = 1.0
    while term > 1e-17:
        k += 1
        term *= nu / k
        series += term
    return weight * series


def coherent_amplitudes(
    label: CoherentLabel, truncation: int | None = None
) -> FockVector:
    """Coherent-state amplitudes c_n = e^{-nu/2} alpha^n / sqrt(n!) up to n = N.

    With truncation None the auto rule (auto_truncation) is applied. A
    too-small explicit truncation is not an error here; the returned vector
    reports the lost weight in tail_mass: the Poisson tail beyond N where
    N + 2 > nu (_poisson_tail), else 1 - sum |c_n|^2, which is then large
    enough to stand above its rounding. carpet and decompose_fractional,
    which build their state at the caller's N, refuse a lossy one
    (_kept_state). An explicit truncation must be an integer >= 0.
    """
    nu = label.nu
    truncation = auto_truncation(nu) if truncation is None else _check_count("truncation", truncation)
    logs = _log_amplitudes(nu, truncation)
    magnitudes = np.exp(logs, out=logs)
    if truncation + 2 > nu:
        tail = _poisson_tail(nu, truncation)
    else:   # a tail this large is well resolved; np.add.reduce is np.sum without its wrapper
        tail = max(0.0, 1.0 - float(np.add.reduce(magnitudes * magnitudes)))
    # e^{i angle n} from the cached n, then times the magnitudes, all in one array.
    amplitudes = np.zeros(truncation + 1, dtype=np.complex128)
    np.multiply(_level_table(truncation + 1)[0, : truncation + 1], label.angle, out=amplitudes.imag)
    np.exp(amplitudes, out=amplitudes)
    amplitudes *= magnitudes
    return FockVector(amplitudes, tail_mass=tail, _adopt=True)


def _kept_state(label: CoherentLabel, truncation: int | None) -> FockVector:
    """coherent_amplitudes(label, truncation), refused where an explicit N cuts a tail_mass
    above DEFAULT_TOLERANCE."""
    state = coherent_amplitudes(label, truncation)
    if truncation is not None and state.tail_mass > DEFAULT_TOLERANCE:
        raise ValueError(
            f"truncation N = {state.truncation} cuts tail mass {state.tail_mass:.3e} of the state, "
            f"above the tolerance {DEFAULT_TOLERANCE:g}; raise N (auto: "
            f"{auto_truncation(label.nu)}) or omit it"
        )
    return state


def number_distribution(label: CoherentLabel) -> np.ndarray:
    """Poisson weights e^{-nu} nu^n / n! for n = 0..N at the auto-truncation N."""
    logs = _log_amplitudes(label.nu, auto_truncation(label.nu))
    logs *= 2.0
    return np.exp(logs, out=logs)


def ladder_product_matrix(r: int, k: int, truncation: int) -> np.ndarray:
    """Normal-ordered product (a†)^r a^k built entry by entry, as a complex128 array.

    Acting on |n> gives sqrt(n!/(n-k)!) * sqrt((n-k+r)!/(n-k)!) |n-k+r>,
    so the matrix has a single shifted diagonal, filled in one pass over
    n = k..min(N, N+k-r) from the ln(n!)/2 row of the level table. Entries come straight
    from that rule rather than from multiplying ladder matrices, which
    provides an independent construction to test the product route against.
    r, k and truncation must be integers >= 0.
    """
    r, k = _check_count("r", r), _check_count("k", k)
    dim = _check_count("truncation", truncation) + 1
    out = np.zeros((dim, dim), dtype=np.complex128)
    stop = min(dim, dim + k - r)   # levels n < stop keep n - k + r inside the space
    count = stop - k
    if count > 0:
        half_log_fact = _level_table(dim)[1]
        base = half_log_fact[:count]   # ln((n-k)!)/2
        logs = np.subtract(half_log_fact[k:stop], base)
        logs += np.subtract(half_log_fact[r : r + count], base)
        # Entry (n - k + r, n) sits at flat index (n - k + r) dim + n: a stride of dim + 1.
        out.ravel()[r * dim + k :: dim + 1][:count] = np.exp(logs, out=logs)
    return out


def inner_product(bra: FockVector, ket: FockVector) -> complex:
    """<bra|ket> with the bra conjugated; truncations must match."""
    if bra.truncation != ket.truncation:
        raise ValueError(
            f"truncation mismatch: {bra.truncation} vs {ket.truncation}"
        )
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))
