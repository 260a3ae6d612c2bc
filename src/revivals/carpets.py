"""Position-space densities over space-time grids ("quantum carpets").

The wavefunction is assembled in the oscillator eigenbasis: psi(x, t) =
sum_n c_n e^{-i chi E(n) t} phi_n(x), with phi_n the normalized Hermite
functions. The recurrence

    phi_{n+1} = sqrt(2/(n+1)) x phi_n - sqrt(n/(n+1)) phi_{n-1}

works on the normalized functions directly, so no factorial ever appears
and n up to a few thousand is routine; beyond |x| ~ 26, where phi_0 nears
underflow, it runs on scaled values (see hermite_functions). The densities
|psi|^2 over an evenly spaced time grid give the carpet: its phase table is
built from giant-step x baby-step factors (three rows of N exponentials, the
rest complex products, about 2 sqrt(nt) N of them) and contracted with the
Hermite table in one real matrix product. Helper exports render it as CSV
or as an 8-bit PGM image normalized over the whole grid (fractional-revival
rows come out dimmer, as they should).

Memory: a carpet's working arrays are the (N + 1) x nx Hermite table, one
stacked real coefficient block of 2 nt x (N + 1) (Re above Im, filled from
the phase factors one giant row at a time, with no complex table of its own)
and the 2 nt x nx output of the product, which is squared in place. They
are views of one float64 workspace per thread, kept between calls and grown
to the largest carpet seen, up to _WORKSPACE_CAP bytes; a carpet that needs
more gets a workspace of its own, dropped when it returns. The density sum of
the two halves is the only fresh nt x nx array, and the grid adopts it
without a copy. Every other temporary is one Hermite row or one giant row of
phases. A fresh multi-megabyte temporary costs a page fault per 4 KiB page on
first touch; for 600 x 600 carpets that is as much as the arithmetic.
grid_to_pgm quantises in row chunks of about _PGM_CHUNK_CELLS cells, each a
plain temporary small enough for the allocator to hand back on the next chunk.
"""

from __future__ import annotations

__all__ = [
    "CarpetGrid", "carpet", "count_lobes", "grid_to_csv", "grid_to_pgm", "hermite_functions",
    "position_wavefunction",
]

import functools
import math
import sys
import threading
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from .fock import CoherentLabel, coherent_amplitudes
from .spectra import Spectrum, _phase_angles, _phase_factors, evolve, revival_time

#: Fraction of the row maximum above which a grid cell belongs to a lobe.
LOBE_THRESHOLD = 0.1

#: Largest |x| whose square is a finite float64; hermite_functions needs x * x.
_X_LIMIT = math.sqrt(sys.float_info.max)

#: hermite_functions scales the columns where phi_0 falls below _FAR_PHI0,
#: renormalising a scaled value once its magnitude exceeds _FAR_RESCALE.
_FAR_PHI0, _FAR_RESCALE = 1e-150, 1e100

#: Largest workspace, in bytes, that a thread keeps between carpets. The
#: largest benchmark carpet (nu ~ 200.7, N = 363, 610 x 610) needs 10.76 MiB.
_WORKSPACE_CAP = 16 << 20

#: Cells per grid_to_pgm chunk: a chunk of float64 stays in the L2 cache.
_PGM_CHUNK_CELLS = 8192

_local = threading.local()


def _workspace(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Disjoint float64 arrays of the given shapes, uninitialised, as views of
    this thread's workspace.

    The workspace grows to the largest total asked for and is kept up to
    _WORKSPACE_CAP bytes; a larger request gets a buffer of its own, and the
    kept one stays as it was. The views are valid until the thread's next call.
    """
    sizes = [math.prod(shape) for shape in shapes]
    total = sum(sizes)
    buffer = getattr(_local, "buffer", None)
    if buffer is None or buffer.size < total:
        buffer = np.empty(total)
        if buffer.nbytes <= _WORKSPACE_CAP:
            _local.buffer = buffer
    views, start = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(buffer[start : start + size].reshape(shape))
        start += size
    return views


def _check_extents(x_min: float, x_max: float, t_min: float, t_max: float) -> None:
    if not all(math.isfinite(v) for v in (x_min, x_max, t_min, t_max)):
        raise ValueError("grid extents must be finite")
    if not (x_max > x_min and t_max > t_min):
        raise ValueError("grid extents must be increasing")
    # Python floats: a NumPy scalar would warn where the difference overflows.
    spans = (float(x_max) - float(x_min), float(t_max) - float(t_min))
    if not all(math.isfinite(span) for span in spans):
        raise ValueError("grid spans x_max - x_min and t_max - t_min must be finite")
    if max(abs(x_min), abs(x_max)) > _X_LIMIT:
        raise ValueError(
            f"x extents must lie within +-{_X_LIMIT:.17g}, where x * x stays finite; "
            f"got x_min = {x_min:g}, x_max = {x_max:g}"
        )


@dataclass(frozen=True)
class CarpetGrid:
    """Space-time density grid: nt rows (time) by nx columns (position).

    The sizes nt and nx are the shape of density, which needs at least two
    rows and two columns; the extents are checked as carpet checks them. The
    grid holds its own read-only copy of density, except that carpet hands
    over (_adopt=True) the sum of squares it has just made, which is kept as is.
    """

    x_min: float
    x_max: float
    t_min: float
    t_max: float
    density: np.ndarray
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt: bool) -> None:
        dens = self.density if _adopt else np.asarray(self.density, dtype=np.float64).copy()
        if dens.ndim != 2 or min(dens.shape) < 2:
            raise ValueError("a carpet needs at least a 2 x 2 grid")
        _check_extents(self.x_min, self.x_max, self.t_min, self.t_max)
        if not _adopt and np.any(dens < 0.0):
            raise ValueError("densities cannot be negative")
        dens.setflags(write=False)
        object.__setattr__(self, "density", dens)

    @property
    def nt(self) -> int:
        return self.density.shape[0]

    @property
    def nx(self) -> int:
        return self.density.shape[1]

    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def t_axis(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.nt)

    def row_integrals(self) -> np.ndarray:
        """Trapezoid quadrature of every row over [x_min, x_max]."""
        dx = (self.x_max - self.x_min) / (self.nx - 1)
        interior = self.density.sum(axis=1)
        edges = 0.5 * (self.density[:, 0] + self.density[:, -1])
        return dx * (interior - edges)

    def row_nearest(self, t: float) -> int:
        """Index of the row whose time is closest to t."""
        return int(np.argmin(np.abs(self.t_axis() - t)))


def hermite_functions(x: np.ndarray, n_max: int, *, out: np.ndarray | None = None) -> np.ndarray:
    """Normalized oscillator eigenfunctions phi_0..phi_{n_max} on the grid x.

    Returns shape (n_max + 1, len(x)), written into out if given (a float64
    array of that shape, every cell overwritten). phi_0 = pi^{-1/4}
    e^{-x^2/2}; the two-term recurrence above fills the rest. Where phi_0 <
    _FAR_PHI0 (|x| > 26.27) it would start from an underflowed value, so
    those columns run the recurrence on scaled values u_n, with phi_n = u_n
    e^{s} and s starting at ln phi_0 = -x^2/2 - ln(pi)/4: whenever |u_n|
    exceeds _FAR_RESCALE, u_n and u_{n-1} are divided by |u_n| and ln|u_n|
    is added to s. The other columns keep the plain recurrence's bits.
    """
    x = np.asarray(x, dtype=np.float64)
    shape = (n_max + 1, x.size)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}, got {out.dtype} {out.shape}")
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    far = np.flatnonzero(out[0] < _FAR_PHI0)
    out[0, far] = 0.0   # the plain pass then stays exactly 0 (and fast) there
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * x * out[n] - math.sqrt(
            n / (n + 1.0)
        ) * out[n - 1]
    if far.size:
        xf = x[far]
        log_scale = -0.5 * xf * xf - 0.25 * math.log(math.pi)
        factor = np.exp(log_scale)
        out[0, far] = factor
        prev, u = np.zeros_like(xf), np.ones_like(xf)
        for n in range(n_max):
            prev, u = u, math.sqrt(2.0 / (n + 1)) * xf * u - math.sqrt(n / (n + 1.0)) * prev
            big = np.flatnonzero(np.abs(u) > _FAR_RESCALE)
            if big.size:
                size = np.abs(u[big])
                u[big] /= size
                prev[big] /= size
                log_scale[big] += np.log(size)
                factor[big] = np.exp(log_scale[big])
            out[n + 1, far] = u * factor
    return out


def position_wavefunction(
    label: CoherentLabel,
    x: float | np.ndarray,
    t: float,
    spectrum: Spectrum,
    truncation: int | None = None,
) -> complex | np.ndarray:
    """psi(x, t) for a coherent state evolved under the spectrum's phases.

    x may be a scalar or a 1-d grid; the result matches its shape. The
    state evolves through spectra.evolve, which refuses a non-finite t.
    """
    scalar = np.isscalar(x)
    grid = np.atleast_1d(np.asarray(x, dtype=np.float64))
    state = evolve(coherent_amplitudes(label, truncation), spectrum, t)
    psi = state.amplitudes @ hermite_functions(grid, state.truncation)
    return complex(psi[0]) if scalar else psi


def default_window(label: CoherentLabel) -> tuple[float, float]:
    """Symmetric x window: [-6, 6], widened to cover <x> excursions + 6 sigma.

    A coherent state's position spread is 1/sqrt(2) and its center never
    leaves the circle of radius sqrt(2)|alpha|, so half-width
    sqrt(2)|alpha| + 6/sqrt(2) keeps every sub-packet inside with room
    to spare.
    """
    half = max(6.0, math.sqrt(2.0) * label.radius + 6.0 / math.sqrt(2.0))
    return -half, half


def carpet(
    label: CoherentLabel,
    spectrum: Spectrum,
    x_min: float | None = None,
    x_max: float | None = None,
    nx: int = 400,
    t_min: float = 0.0,
    t_max: float | None = None,
    nt: int = 400,
    truncation: int | None = None,
) -> CarpetGrid:
    """The |psi(x, t)|^2 grid on nt evenly spaced times and nx positions.

    t_max defaults to one revival period. Extents must be finite and
    increasing and nx and nt at least 2, checked before any grid is built;
    working arrays beyond the largest array and phases chi E_n t that
    overflow float64 are refused before the Hermite table.

    The Hermite table, the 2 nt x (N + 1) real coefficient block and the
    2 nt x nx product buffer, in which the squares of Re psi and Im psi are
    formed in place, are views of this thread's workspace (see the module
    docstring), kept for the next call up to _WORKSPACE_CAP bytes. Only the
    returned grid's density, the sum of the two squared halves, is fresh;
    the grid holds it read-only, without a copy.
    """
    if x_min is None or x_max is None:
        lo, hi = default_window(label)
        x_min = lo if x_min is None else x_min
        x_max = hi if x_max is None else x_max
    if t_max is None:
        t_max = revival_time(spectrum)
    _check_extents(x_min, x_max, t_min, t_max)
    if nx < 2 or nt < 2:
        raise ValueError(f"a carpet needs nx >= 2 and nt >= 2, got nx = {nx}, nt = {nt}")
    state = coherent_amplitudes(label, truncation)
    n_max = state.truncation
    shapes = ((n_max + 1, nx), (2, nt, n_max + 1), (2 * nt, nx))
    if 8 * sum(map(math.prod, shapes)) > sys.maxsize:
        raise ValueError(
            f"a carpet of nx = {nx} by nt = {nt} at N = {n_max} needs more float64 "
            "working cells than sys.maxsize bytes, the largest array, can hold; lower nx or nt"
        )
    giant, baby = _phase_factors(spectrum, n_max, np.linspace(t_min, t_max, nt), -1.0)
    giant *= state.amplitudes
    table, block, psi = _workspace(*shapes)
    hermite_functions(np.linspace(x_min, x_max, nx), n_max, out=table)
    # Coefficients c_n e^{-i chi E_n t_k} for time k = b B + j are giant[b] *
    # baby[j]; they go straight into one real block, Re above Im, one giant
    # row (B times) at a time.
    step = baby.shape[0]
    for b in range(giant.shape[0]):
        start = b * step
        stop = min(start + step, nt)
        prod = giant[b] * baby
        block[0, start:stop] = prod.real[: stop - start]
        block[1, start:stop] = prod.imag[: stop - start]
    # One real product for both parts: rows [:nt] give Re psi, [nt:] Im psi.
    np.matmul(block.reshape(2 * nt, n_max + 1), table, out=psi)
    np.square(psi, out=psi)
    density = np.add(psi[:nt], psi[nt:])
    return CarpetGrid(float(x_min), float(x_max), float(t_min), float(t_max), density, _adopt=True)


def count_lobes(row: np.ndarray, threshold: float = LOBE_THRESHOLD) -> int:
    """Number of connected runs along x that rise above threshold * row max.

    This is the quantitative stand-in for counting sub-images by eye: a
    two-packet cat shows two runs, a three-packet cat three, provided the
    packets are separated in position.
    """
    row = np.asarray(row, dtype=np.float64)
    peak = float(row.max(initial=0.0))
    if peak <= 0.0:
        return 0
    mask = row > threshold * peak
    # A run starts wherever the mask turns on.
    starts = np.count_nonzero(mask[1:] & ~mask[:-1]) + int(mask[0])
    return int(starts)


#: Magnitudes in [_FAST_MIN, _FAST_MAX) take the vectorised route: there
#: every power of ten it multiplies by, and every Dekker half of a product,
#: stays a normal float64.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280

#: Powers of ten 10^k and decimal exponents are tabulated for |k| <= _DECADES.
_DECADES = 300

#: A cell whose rounding fraction lies this close to 1/2 goes to format(),
#: which settles exact ties; the computed fraction is good to about 1e-14.
_TIE_MARGIN = 1e-6

#: Cells per formatting chunk: large enough to amortise NumPy's per-call
#: cost, small enough that the chunk's temporaries stay in cache.
_CHUNK_CELLS = 4096

#: Bytes per cell before compaction: 24 for "-d.dddddddddddddddde-ddd", 1 separator.
_SLOT = 25


class _FormatTables(NamedTuple):
    """Constants of the bulk %.17g formatter, indexed as _cells_text uses them."""

    ten_hi: np.ndarray     # 10^k rounded to float64, k = -_DECADES.._DECADES
    ten_lo: np.ndarray     # 10^k - ten_hi, rounded; hi + lo is 10^k to 2^-106
    ten_ceil: np.ndarray   # the least float64 >= 10^k
    quad: np.ndarray       # 0..9999 as four ASCII digits, one little-endian uint32
    trail: np.ndarray      # trailing zeros of 0..9999 written with four digits
    shift: np.ndarray      # per exponent: right shift of the digit row, in bits
    fill: np.ndarray       # per exponent: bytes before the first significant digit
    keep: np.ndarray       # per exponent: digits kept even when they are trailing zeros
    point: np.ndarray      # per exponent: byte the point goes to
    exponent: np.ndarray   # per exponent: "e+XX" ending at byte 23 of the row, or 0
    low: np.ndarray        # low[:, c]: mask of bytes 0..c-1 of a 3-word row
    dot: np.ndarray        # dot[:, c]: "." at byte c of a 3-word row


def _words(rows: np.ndarray) -> np.ndarray:
    """Rows of 8k bytes as k little-endian words each: (k, len(rows)) uint64."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    return rows.view("<u8").astype(np.uint64).T.copy()


@functools.cache
def _format_tables() -> _FormatTables:
    """Built on first use from exact integers, in about 1.5 ms."""
    k = range(-_DECADES, _DECADES + 1)
    hi, lo = [], []
    for power in k:
        if power >= 0:
            exact = 10**power
            hi.append(float(exact))
            lo.append(float(exact - int(hi[-1])))
        else:
            denominator = 10**-power
            hi.append(1 / denominator)   # int division rounds correctly
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * denominator) / (denominator * den))
    ten_hi, ten_lo = np.array(hi), np.array(lo)
    group = np.arange(10_000, dtype=np.uint16)
    chars = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1)
    quad = (chars.astype(np.uint8) + ord("0")).view("<u4").ravel()
    trail = np.zeros(10_000, dtype=np.uint8)
    for zeros in range(1, 5):
        trail[:: 10**zeros] = zeros
    # %g: fixed notation for -4 <= e < 17, else d.ddd with an exponent.
    e = np.arange(-_DECADES, _DECADES + 1)
    fixed = (e >= -4) & (e < 17)
    integer_digits = np.where(fixed & (e >= 0), e + 1, 1)
    zeros = np.where(fixed & (e < 0), -e, 0)
    tails = [b"" if -4 <= x < 17 else b"e%+03d" % x for x in e.tolist()]
    exponent = [int.from_bytes(tail.rjust(8, b"\0"), "little") for tail in tails]
    byte = np.arange(24)
    return _FormatTables(
        ten_hi=ten_hi,
        ten_lo=ten_lo,
        ten_ceil=np.where(ten_lo > 0, np.nextafter(ten_hi, np.inf), ten_hi),
        quad=quad,
        trail=trail,
        shift=(8 * (6 - zeros)).astype(np.uint64),
        fill=1 + zeros,
        keep=np.where(fixed & (e >= 0), e + 1, 0),
        point=1 + integer_digits,
        exponent=np.array(exponent, dtype=np.uint64),
        low=_words(np.where(byte < np.arange(25)[:, None], 0xFF, 0)),
        dot=_words(np.where(byte == np.arange(24)[:, None], ord("."), 0)),
    )


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: x = head + tail with 26-bit halves, so head products are exact."""
    scaled = x * 134217729.0   # 2^27 + 1
    head = scaled - (scaled - x)
    return head, x - head


def _significands(
    v: np.ndarray, tab: _FormatTables
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per cell: N, the 17-digit significand as round-half-even(|v| 10^(16 - e)),
    the decimal exponent e with 10^16 <= N < 10^17, and whether both are exact.

    The decade comes from log10, lowered so that it never overshoots, and one
    comparison with the least float64 >= 10^(e+1) makes it exact; so the decade
    is fixed on the unrounded value. N is |v| times the double-double 10^(16-e),
    multiplied exactly by Dekker's product; the relative error is below 2^-100,
    which leaves the fraction of N good to about 1e-14. Zeros get N = 0, e = 0
    and count as exact. Other cells outside [_FAST_MIN, _FAST_MAX) (nan, inf,
    subnormals) and near-ties are marked inexact.
    """
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a[~fast] = 1.0   # keeps the arithmetic finite; these cells go to format()
    e = np.floor(np.log10(a) - 1e-12).astype(np.int64)
    e += a >= tab.ten_ceil[e + (_DECADES + 1)]
    power = (16 + _DECADES) - e
    ten, ten_lo = tab.ten_hi[power], tab.ten_lo[power]
    product = a * ten
    a_head, a_tail = _split(a)
    ten_head, ten_tail = _split(ten)
    rest = (a_head * ten_head - product) + a_head * ten_tail + a_tail * ten_head
    rest += a_tail * ten_tail   # now exactly a * ten - product
    rest += a * ten_lo
    whole = np.floor(rest)
    rest -= whole
    n = product.astype(np.int64) + whole.astype(np.int64)
    exact = fast & (np.abs(rest - 0.5) >= _TIE_MARGIN)
    n += rest > 0.5
    overflow = n == 10**17   # rounded up into the next decade
    n[overflow] = 10**16
    e += overflow
    zero = v == 0.0
    n[zero] = 0
    exact |= zero
    return n, e, exact


def _digit_row(n: np.ndarray, tab: _FormatTables) -> tuple[np.ndarray, np.ndarray]:
    """The bytes "0000000" and the 17 digits of each n, as three words
    (shape (3, len(n))), and the number of digits up to the last nonzero one."""
    lead = n // 10**16
    rest = n - lead * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    g1 = upper // 10**4
    g2 = upper - g1 * 10**4
    g3 = lower // 10**4
    g4 = lower - g3 * 10**4
    halves = np.empty((3, n.size, 2), dtype="<u4")
    halves[0, :, 0] = tab.quad[0]
    for half, group in enumerate((lead, g1, g2, g3, g4), start=1):
        halves[half // 2, :, half % 2] = tab.quad[group]
    trail = tab.trail[g4]
    for k, group in enumerate((g3, g2, g1), start=1):
        zeros = np.flatnonzero(trail == 4 * k)   # all lower groups are zero
        if not zeros.size:
            break
        trail[zeros] += tab.trail[group[zeros]]
    return halves.view("<u8")[..., 0].astype(np.uint64, copy=False), 17 - trail


def _cells_text(block: np.ndarray) -> bytes:
    """%.17g text of a float64 block: "," between cells, "\n" after each row.

    Each cell fills a 25-byte slot, NUL where unused, which bytes.translate
    then squeezes out: three little-endian words of text and the separator.
    The words start as "0000000" and the 17 digits (ASCII from four-digit
    groups). A right shift puts the digits after byte 0, which becomes the
    sign, together with the zeros that a fixed number below 1 needs. A mask
    drops the stripped trailing zeros, the bytes from the point on move up by
    one to make room for it, and an exponent, if any, ends the third word.
    """
    tab = _format_tables()
    v = block.ravel()
    n, e, exact = _significands(v, tab)
    e += _DECADES
    row, digits = _digit_row(n, tab)
    # Bytes [0, end) are kept: the sign slot, the zeros of a fixed number
    # below 1, and the digits up to the last nonzero one or the units digit.
    end = np.maximum(digits, tab.keep[e]) + tab.fill[e]
    shift = tab.shift[e]
    carry = row[1:] << (np.uint64(64) - shift)
    row >>= shift
    row[:2] |= carry
    # Byte 0 is a "0" of the digit row: turn it into the sign or a NUL.
    row[0] ^= np.where(np.signbit(v), np.uint64(ord("0") ^ ord("-")), np.uint64(ord("0")))
    kept = tab.low.take(end, axis=1)
    row &= kept
    point = tab.point[e]
    head = tab.low.take(point, axis=1)
    head &= row
    row ^= head   # the bytes from the point on, which move up by one
    carry = row[:2] >> np.uint64(56)
    row <<= np.uint64(8)
    row[1:] |= carry
    row |= head
    kept &= tab.dot.take(point, axis=1)   # a point only if digits follow it
    row |= kept
    row[2] |= tab.exponent[e]
    # 25-byte slots: the three words, unaligned, then the separator.
    text = np.empty((v.size, _SLOT), dtype=np.uint8)
    words = np.ndarray((v.size, 3), dtype="<u8", buffer=text, strides=(_SLOT, 8))
    words[...] = row.T
    lines = text.reshape(block.shape + (_SLOT,))
    lines[:, :-1, -1] = ord(",")
    lines[:, -1, -1] = ord("\n")
    for i in np.flatnonzero(~exact).tolist():   # the cells left to format()
        cell = format(float(v[i]), ".17g").encode().ljust(_SLOT - 1, b"\0")
        text[i, :-1] = np.frombuffer(cell, dtype=np.uint8)
    return text.tobytes().translate(None, b"\0")


def _table_text(columns) -> bytes:
    """ASCII CSV rows of equal-length columns, one line per row, each ending in a newline.

    A 2-d column block contributes one field per column. Every field is
    exactly format(v, ".17g"), so parsing it back reproduces its float64, and
    an integral value below 1e17 (a row index) prints as %d would print it.
    The block is formatted in chunks of about _CHUNK_CELLS cells by a NumPy
    kernel (_significands, _cells_text): a decimal significand whose
    relative error is below 2^-100, rounded half-even, then %g's layout.
    A cell the kernel cannot vouch for (nan, inf, |v| outside
    [1e-280, 1e280), subnormal, or a rounding fraction within 1e-6 of 1/2)
    is formatted by format() itself, so the text is byte-for-byte the same.
    """
    block = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    step = max(1, _CHUNK_CELLS // block.shape[1])
    return b"".join(_cells_text(block[r : r + step]) for r in range(0, block.shape[0], step))


def grid_to_csv(grid: CarpetGrid, chi: float) -> bytes:
    """Row-major ASCII CSV: header carries the x axis, each row is one time slice.

    Columns: t, chi_t_over_pi, then one density column per grid x. Values
    print with 17 significant digits so parsing the file back reproduces
    the float64 grid exactly. chi t comes from spectra._phase_angles, so a chi
    that is not finite and positive, or a chi t that overflows, raises
    ValueError before any text is formed.
    """
    t = grid.t_axis()
    chi_t = _phase_angles(chi, 1.0, t)
    axis = _table_text([grid.x_axis()[None, :]])   # one row: b"x0,x1,...\n"
    header = b"t,chi_t_over_pi,x=" + axis.replace(b",", b",x=")
    return header + _table_text([t, chi_t / math.pi, grid.density])


def grid_to_pgm(grid: CarpetGrid) -> bytes:
    """8-bit binary PGM (P5), normalized to 0..255 over the whole grid.

    Whole-grid normalization (not per row) keeps fractional-revival rows
    dimmer than the full revivals. Rows are scaled and rounded in chunks of
    about _PGM_CHUNK_CELLS cells (one row if it is longer), so no float
    temporary is larger than a chunk.
    """
    peak = float(grid.density.max(initial=0.0))
    scale = 255.0 / peak if peak > 0.0 else 0.0   # an all-zero grid stays 0
    levels = np.empty(grid.density.shape, dtype=np.uint8)
    rows = max(1, _PGM_CHUNK_CELLS // grid.nx)
    for r in range(0, grid.nt, rows):
        scaled = grid.density[r : r + rows] * scale
        levels[r : r + rows] = np.rint(scaled, out=scaled)
    header = f"P5\n{grid.nx} {grid.nt}\n255\n".encode("ascii")
    return header + levels.tobytes()
