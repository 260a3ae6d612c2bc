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

import math
import sys
from dataclasses import dataclass

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


def _table_text(columns, integer_columns: int = 0) -> str:
    """CSV rows of equal-length columns, one line per row, each ending in a newline.

    A 2-d column block contributes one field per column. The first
    integer_columns fields print with %d (row indices), the rest with %.17g,
    the conversion format(v, ".17g") uses, so parsing a field back
    reproduces its float64 exactly. The table is stacked into one float64
    block and formatted by a single %-operation instead of cell by cell.
    """
    block = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    rows, width = block.shape
    line = ",".join(["%d"] * integer_columns + ["%.17g"] * (width - integer_columns))
    return ((line + "\n") * rows) % tuple(block.ravel().tolist())


def grid_to_csv(grid: CarpetGrid, chi: float) -> str:
    """Row-major CSV: header carries the x axis, each row is one time slice.

    Columns: t, chi_t_over_pi, then one density column per grid x. Values
    print with 17 significant digits so parsing the file back reproduces
    the float64 grid exactly.
    """
    header = ("t,chi_t_over_pi" + ",x=%.17g" * grid.nx + "\n") % tuple(
        grid.x_axis().tolist()
    )
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
