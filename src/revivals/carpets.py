"""Position-space densities over space-time grids ("quantum carpets").

The wavefunction is assembled in the oscillator eigenbasis: psi(x, t) =
sum_n c_n e^{-i chi E(n) t} phi_n(x), with phi_n the normalized Hermite
functions. The recurrence

    phi_{n+1} = sqrt(2/(n+1)) x phi_n - sqrt(n/(n+1)) phi_{n-1}

works on the normalized functions directly, so no factorial ever appears
and n up to a few hundred is routine. The densities |psi|^2 over an evenly
spaced time grid give the carpet: its phase table is built from
giant-step x baby-step factors (three rows of N exponentials, the rest
complex products, about 2 sqrt(nt) N of them) and contracted with the
Hermite table in one real matrix product. Helper
exports render it as CSV or as an 8-bit PGM image normalized over the
whole grid (fractional-revival rows come out dimmer, as they should).

Memory: a carpet holds the (N + 1) x nx Hermite table, one stacked real
coefficient block of 2 nt x (N + 1) (Re above Im, filled from the phase
factors one giant row at a time, with no complex table of its own) and
the 2 nt x nx output of the product, which is squared and summed in place;
the grid then copies its nt x nx half. Every other temporary is one Hermite
row or one giant row of phases. A fresh multi-megabyte temporary costs a page fault per 4 KiB
page on first touch; for 600 x 600 carpets that is as much as the arithmetic.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import CoherentLabel, coherent_amplitudes
from .spectra import Spectrum, _phase_factors, evolve, revival_time

#: Fraction of the row maximum above which a grid cell belongs to a lobe.
LOBE_THRESHOLD = 0.1

#: Largest |x| whose square is a finite float64; hermite_functions needs x * x.
_X_LIMIT = math.sqrt(sys.float_info.max)


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
    """Space-time density grid: nt rows (time) by nx columns (position)."""

    x_min: float
    x_max: float
    nx: int
    t_min: float
    t_max: float
    nt: int
    density: np.ndarray

    def __post_init__(self) -> None:
        if self.nx < 2 or self.nt < 2:
            raise ValueError("a carpet needs at least a 2 x 2 grid")
        _check_extents(self.x_min, self.x_max, self.t_min, self.t_max)
        dens = np.asarray(self.density, dtype=np.float64).copy()
        if dens.shape != (self.nt, self.nx):
            raise ValueError(
                f"density shape {dens.shape} does not match (nt, nx) = "
                f"({self.nt}, {self.nx})"
            )
        if np.any(dens < 0.0):
            raise ValueError("densities cannot be negative")
        dens.setflags(write=False)
        object.__setattr__(self, "density", dens)

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


def hermite_functions(x: np.ndarray, n_max: int) -> np.ndarray:
    """Normalized oscillator eigenfunctions phi_0..phi_{n_max} on the grid x.

    Returns shape (n_max + 1, len(x)). phi_0 = pi^{-1/4} e^{-x^2/2}; the
    two-term recurrence above fills the rest.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((n_max + 1, x.size), dtype=np.float64)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * x * out[n] - math.sqrt(
            n / (n + 1.0)
        ) * out[n - 1]
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

    t_max defaults to one revival period; an aperiodic custom spectrum has
    none, so it must be given explicitly there. Extents must be finite and
    increasing; they are checked before any work is done.

    Besides the Hermite table, the work needs one 2 nt x (N + 1) real block
    and one 2 nt x nx product buffer, in which |psi|^2 is squared and summed
    in place; nothing is kept between calls, and the returned grid holds its
    own read-only copy.
    """
    if x_min is None or x_max is None:
        lo, hi = default_window(label)
        x_min = lo if x_min is None else x_min
        x_max = hi if x_max is None else x_max
    if t_max is None:
        period = revival_time(spectrum)
        if period is None:
            raise ValueError(
                "aperiodic spectrum: pass t_max explicitly"
            )
        t_max = period
    _check_extents(x_min, x_max, t_min, t_max)
    times = np.linspace(t_min, t_max, nt)
    grid = np.linspace(x_min, x_max, nx)
    state = coherent_amplitudes(label, truncation)
    n_max = state.truncation
    table = hermite_functions(grid, n_max)
    energies = spectrum.energies(n_max)
    giant, baby = _phase_factors(spectrum, energies, times, -1.0)
    giant *= state.amplitudes
    # Coefficients c_n e^{-i chi E_n t_k} for time k = b B + j are giant[b] *
    # baby[j]; they go straight into one real block, Re above Im, one giant
    # row (B times) at a time.
    step = baby.shape[0]
    block = np.empty((2, nt, n_max + 1))
    for b in range(giant.shape[0]):
        start = b * step
        stop = min(start + step, nt)
        prod = giant[b] * baby
        block[0, start:stop] = prod.real[: stop - start]
        block[1, start:stop] = prod.imag[: stop - start]
    # One real product for both parts: rows [:nt] give Re psi, [nt:] Im psi.
    # |psi|^2 is formed in that product's buffer, the sum landing in [:nt].
    psi = block.reshape(2 * nt, n_max + 1) @ table
    np.square(psi, out=psi)
    density = np.add(psi[:nt], psi[nt:], out=psi[:nt])
    return CarpetGrid(
        x_min=float(x_min),
        x_max=float(x_max),
        nx=nx,
        t_min=float(t_min),
        t_max=float(t_max),
        nt=nt,
        density=density,
    )


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
    the float64 grid exactly.
    """
    axis = _table_text([grid.x_axis()[None, :]])   # one row: b"x0,x1,...\n"
    header = b"t,chi_t_over_pi,x=" + axis.replace(b",", b",x=")
    t = grid.t_axis()
    return header + _table_text([t, chi * t / math.pi, grid.density])


def grid_to_pgm(grid: CarpetGrid) -> bytes:
    """8-bit binary PGM (P5), normalized to 0..255 over the whole grid.

    Whole-grid normalization (not per row) keeps fractional-revival rows
    dimmer than the full revivals.
    """
    peak = float(grid.density.max(initial=0.0))
    if peak <= 0.0:
        levels = np.zeros_like(grid.density, dtype=np.uint8)
    else:
        scaled = np.multiply(grid.density, 255.0 / peak)
        levels = np.rint(scaled, out=scaled).astype(np.uint8)
    header = f"P5\n{grid.nx} {grid.nt}\n255\n".encode("ascii")
    return header + levels.tobytes()
