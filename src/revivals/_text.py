"""Every byte of every output file, formed nowhere else: CSV text ("# key =
value" metadata, header rows and %.17g cells, a table coming in chunks of
about _CHUNK_CELLS cells to stream) and the 8-bit PGM image of a carpet."""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, NamedTuple

import numpy as np

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

#: Cells per pgm quantisation chunk: a chunk of float64 stays in the L2 cache.
_PGM_CHUNK_CELLS = 8192


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


def fmt(value: float) -> str:
    return format(float(value), ".17g")


def metadata(pairs: Iterable[tuple[str, object]]) -> bytes:
    """One "# key = value" line per pair, a float as %.17g."""
    return "".join(f"# {key} = {fmt(v) if isinstance(v, float) else v}\n" for key, v in pairs).encode()


def names(prefix: str, values: np.ndarray) -> str:
    """A 2-d block's column names: prefix and the %.17g of each float64 value, comma-separated."""
    return prefix + _cells_text(values[None, :]).decode()[:-1].replace(",", "," + prefix)


def table(columns: dict) -> Iterator[bytes]:
    """The header row of the column names, then ASCII CSV rows of the equal-length
    columns in chunks of about _CHUNK_CELLS cells, each stacked from its slices.

    A 2-d block gives one field per column, its key naming them all (see names).
    Every field is exactly format(v, ".17g"), so it parses back to its float64,
    and an integral value below 1e17 (a row index) prints as %d would. The
    kernel (_significands, _cells_text) rounds a decimal significand of relative
    error below 2^-100 half-even, then lays it out as %g does; a cell it cannot
    vouch for (nan, inf, |v| outside [1e-280, 1e280), subnormal, or a rounding
    fraction within 1e-6 of 1/2) goes to format() itself.
    """
    yield (",".join(columns) + "\n").encode()
    blocks = [np.asarray(c, dtype=np.float64) for c in columns.values()]
    step = max(1, _CHUNK_CELLS // sum(1 if b.ndim == 1 else b.shape[1] for b in blocks))
    for r in range(0, len(blocks[0]), step):
        yield _cells_text(np.column_stack([b[r : r + step] for b in blocks]))


def pgm(density: np.ndarray) -> tuple[bytes, np.ndarray]:
    """An 8-bit binary PGM (P5) of an nt x nx density: its header and its
    uint8 levels, which a file can take one after the other.

    The levels are normalized to 0..255 over the whole grid (not per row), so
    fractional-revival rows come out dimmer than the full revivals; an
    all-zero grid stays 0. Rows are scaled and rounded in chunks of about
    _PGM_CHUNK_CELLS cells (one row if it is longer), so no float temporary
    is larger than a chunk, and the allocator can hand it back for the next.
    """
    nt, nx = density.shape
    peak = float(density.max(initial=0.0))
    scale = 255.0 / peak if peak > 0.0 else 0.0
    levels = np.empty(density.shape, dtype=np.uint8)
    rows = max(1, _PGM_CHUNK_CELLS // nx)
    for r in range(0, nt, rows):
        scaled = density[r : r + rows] * scale
        levels[r : r + rows] = np.rint(scaled, out=scaled)
    return f"P5\n{nx} {nt}\n255\n".encode("ascii"), levels
