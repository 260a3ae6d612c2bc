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
Hermite table in one real matrix product.

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
"""

from __future__ import annotations

__all__ = ["CarpetGrid", "carpet", "count_lobes", "hermite_functions", "position_wavefunction"]

import math
import sys
import threading
from dataclasses import InitVar, dataclass

import numpy as np

from .fock import CoherentLabel, _check_count, _kept_state, coherent_amplitudes
from .spectra import Spectrum, _phase_factors, evolve, revival_time

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
    _check_positions((x_min, x_max))


def _check_positions(x) -> None:
    """Refuse positions that are not finite or whose square overflows float64."""
    if not np.all(np.abs(x) <= _X_LIMIT):
        raise ValueError(
            f"x extents must lie within +-{_X_LIMIT:.17g}, where x * x stays finite; "
            f"got |x| = {float(np.max(np.abs(x))):g}"
        )


@dataclass(frozen=True)
class CarpetGrid:
    """Space-time density grid: nt rows (time) by nx columns (position).

    The sizes nt and nx are the shape of density, which needs at least two
    rows and two columns; the extents are checked as carpet checks them. The
    grid holds its own read-only copy of density, whose cells must be finite
    and non-negative, except that carpet hands over (_adopt=True) the sum of
    squares it has just made, which is kept as is.
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
        if not (_adopt or (np.isfinite(dens).all() and (dens >= 0.0).all())):
            raise ValueError("densities must be finite and non-negative")
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

    x is read flat; positions must be finite with |x| <= _X_LIMIT, and
    n_max >= 0. Returns shape (n_max + 1, x.size), written into out if given
    (a float64 array of that shape, every cell overwritten). phi_0 = pi^{-1/4}
    e^{-x^2/2}; the two-term recurrence above fills the rest. Where phi_0 <
    _FAR_PHI0 (|x| > 26.27) it would start from an underflowed value, so
    those columns run the recurrence on scaled values u_n, with phi_n = u_n
    e^{s} and s starting at ln phi_0 = -x^2/2 - ln(pi)/4: whenever |u_n|
    exceeds _FAR_RESCALE, u_n and u_{n-1} are divided by |u_n| and ln|u_n|
    is added to s. The other columns keep the plain recurrence's bits.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    _check_positions(x)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
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
    # Each row in place as ((c1 x) phi_n) - (c2 phi_{n-1}): the operations, in order, of
    # the plain expression, so the bits are its bits.
    scratch = np.empty_like(x)
    for n in range(1, n_max):
        row = np.multiply(x, math.sqrt(2.0 / (n + 1)), out=out[n + 1])
        row *= out[n]
        row -= np.multiply(out[n - 1], math.sqrt(n / (n + 1.0)), out=scratch)
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
    label: CoherentLabel, x: float | np.ndarray, t: float, spectrum: Spectrum
) -> complex | np.ndarray:
    """psi(x, t) for a coherent state evolved under the spectrum's phases.

    The state is cut at the auto truncation of its mean photon number. x may
    be a scalar or an array of any shape; the result matches it, and x is
    refused as hermite_functions refuses it. The state evolves through
    spectra.evolve, which refuses a non-finite t.
    """
    x = np.asarray(x, dtype=np.float64)
    state = evolve(coherent_amplitudes(label), spectrum, t)
    psi = state.amplitudes @ hermite_functions(x, state.truncation)
    return complex(psi[0]) if x.ndim == 0 else psi.reshape(x.shape)


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
    increasing and nx and nt integers of at least 2, checked before any grid
    is built; an explicit truncation that loses the state (fock._kept_state),
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
    nx, nt = _check_count("nx", nx, None), _check_count("nt", nt, None)
    if nx < 2 or nt < 2:
        raise ValueError(f"a carpet needs nx >= 2 and nt >= 2, got nx = {nx}, nt = {nt}")
    state = _kept_state(label, truncation)
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


def count_lobes(row: np.ndarray) -> int:
    """Number of connected runs along x that rise above LOBE_THRESHOLD * row max.

    This is the quantitative stand-in for counting sub-images by eye: a
    two-packet cat shows two runs, a three-packet cat three, provided the
    packets are separated in position.
    """
    row = np.asarray(row, dtype=np.float64)
    peak = float(row.max(initial=0.0))
    if peak <= 0.0:
        return 0
    mask = row > LOBE_THRESHOLD * peak
    # A run starts wherever the mask turns on.
    starts = np.count_nonzero(mask[1:] & ~mask[:-1]) + int(mask[0])
    return int(starts)
