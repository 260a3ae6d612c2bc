"""Hermite-function wavefunctions, carpet grids, lobe counting, exports."""

import math
import re
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from revivals import _text, carpets, spectra
from revivals.carpets import (
    CarpetGrid,
    carpet,
    count_lobes,
    default_window,
    hermite_functions,
    position_wavefunction,
)
from revivals.cli import main
from revivals.fock import CoherentLabel, auto_truncation, coherent_amplitudes, number_distribution
from revivals.moments import autocorrelation
from revivals.spectra import Spectrum, _even_stride, _phase_factors, revival_time

SPECTRA = (Spectrum.kerr(1.3), Spectrum.harmonic(0.7), Spectrum.square_well(2.1))
EPS = float(np.finfo(np.float64).eps)


def _fock(label, spectrum):
    """carpet's truncation that keeps the spectrum on the Fock contraction: the
    auto N for a linear spectrum, whose default is the travelling Gaussian."""
    return {"truncation": auto_truncation(label.nu)} if len(spectrum.coefficients) == 2 else {}


def _density_out_of_place(label, spectrum, nx, nt, first=0):
    """carpet's default-window density over levels first..N by its former out-of-place expressions."""
    x_min, x_max = default_window(label)
    times = np.linspace(0.0, revival_time(spectrum), nt)
    state = coherent_amplitudes(label)
    n_max = state.truncation
    table = hermite_functions(np.linspace(x_min, x_max, nx), n_max)[first:]
    giant, baby = _phase_factors(spectrum, n_max, times, -1.0, first, _even_stride(spectrum, n_max, times))
    giant = giant * state.amplitudes[first:]
    coeffs = (giant[:, None] * baby[None]).reshape(-1, n_max + 1 - first)[:nt]
    # Contiguous planes, as carpet multiplies them: a strided .real view goes
    # through NumPy's own loop instead of BLAS and rounds differently.
    re = np.ascontiguousarray(coeffs.real) @ table
    im = np.ascontiguousarray(coeffs.imag) @ table
    return re**2 + im**2


def test_hermite_low_orders_explicit():
    x = np.linspace(-3.0, 3.0, 31)
    table = hermite_functions(x, 3)
    phi0 = math.pi**-0.25 * np.exp(-0.5 * x * x)
    assert np.allclose(table[0], phi0, atol=1e-14)
    assert np.allclose(table[1], math.sqrt(2.0) * x * phi0, atol=1e-14)
    assert np.allclose(
        table[2], (2.0 * x * x - 1.0) / math.sqrt(2.0) * phi0, atol=1e-13
    )


def test_hermite_orthonormality():
    # Quadrature on a wide fine grid should reproduce the identity matrix.
    x = np.linspace(-12.0, 12.0, 4001)
    table = hermite_functions(x, 12)
    dx = x[1] - x[0]
    gram = table @ table.T * dx
    assert np.max(np.abs(gram - np.eye(13))) < 1e-7


def test_vacuum_wavefunction_peak():
    value = position_wavefunction(CoherentLabel(0.0, 0.0), 0.0, 0.0, Spectrum.kerr(1.0))
    assert value == pytest.approx(math.pi**-0.25, abs=1e-12)


def test_real_alpha_density_peak_location():
    label = CoherentLabel.from_alpha(3.0)
    x = np.linspace(-9.0, 9.0, 3001)
    psi = position_wavefunction(label, x, 0.0, Spectrum.kerr(1.0))
    peak_x = x[np.argmax(np.abs(psi) ** 2)]
    assert peak_x == pytest.approx(3.0 * math.sqrt(2.0), abs=0.01)


def test_wavefunction_normalization_any_time():
    label = CoherentLabel.from_alpha(3.0)
    x = np.linspace(-10.0, 10.0, 2001)
    dx = x[1] - x[0]
    for t in (0.0, 0.17, math.pi / 3.0):
        psi = position_wavefunction(label, x, t, Spectrum.kerr(1.0))
        total = float(np.sum(np.abs(psi) ** 2) - 0.5 * (
            abs(psi[0]) ** 2 + abs(psi[-1]) ** 2
        )) * dx
        assert total == pytest.approx(1.0, abs=1e-4)


def test_default_window_covers_excursions():
    assert default_window(CoherentLabel(0.0, 0.0)) == (-6.0, 6.0)
    lo, hi = default_window(CoherentLabel.from_alpha(3.0))
    assert hi == pytest.approx(3.0 * math.sqrt(2.0) + 6.0 / math.sqrt(2.0))
    assert lo == -hi


def test_carpet_rows_normalized_and_periodic():
    label = CoherentLabel.from_alpha(3j)
    spectrum = Spectrum.kerr(1.0)
    grid = carpet(label, spectrum, nx=300, nt=40, truncation=50)
    integrals = grid.row_integrals()
    assert float(np.max(np.abs(integrals - 1.0))) < 1e-4
    # Rows one full revival apart agree entrywise.
    period = math.pi
    again = carpet(
        label,
        spectrum,
        nx=300,
        nt=3,
        t_min=0.2,
        t_max=0.2 + 2.0 * period,
        truncation=50,
    )
    assert float(np.max(np.abs(again.density[0] - again.density[2]))) < 1e-8


def test_carpet_lobe_counts_nearest_rows():
    # Orientation matters: components at the half revival sit at -+i alpha,
    # so a label on the imaginary axis separates them along x.
    label = CoherentLabel.from_alpha(3j)
    spectrum = Spectrum.kerr(1.0)
    grid = carpet(label, spectrum, nx=400, nt=401, truncation=50)
    period = math.pi
    for t, lobes in ((0.0, 1), (period, 1), (period / 2.0, 2), (period / 3.0, 3), (2.0 * period / 3.0, 3)):
        assert count_lobes(grid.density[np.argmin(np.abs(grid.t_axis() - t))]) == lobes


def test_harmonic_carpet_argmax_traces_cosine():
    label = CoherentLabel.from_alpha(3.0)
    spectrum = Spectrum.harmonic(1.0)
    grid = carpet(label, spectrum, nx=400, nt=80, truncation=50)
    x = grid.x_axis()
    cell = x[1] - x[0]
    for i, t in enumerate(grid.t_axis()):
        expected = 3.0 * math.sqrt(2.0) * math.cos(t)
        observed = x[np.argmax(grid.density[i])]
        assert abs(observed - expected) <= cell


def test_count_lobes_synthetic_rows():
    assert count_lobes(np.zeros(10)) == 0
    assert count_lobes(np.array([0, 1, 1, 0, 0, 0.9, 0, 0.04, 0])) == 2
    assert count_lobes(np.array([1.0])) == 1
    # Threshold is relative to the row maximum.
    assert count_lobes(np.array([0.2, 0.0, 0.01])) == 1


@pytest.mark.parametrize("row", [np.float64(1.0), np.ones((2, 3)), [[0.0, 1.0, 0.0]]])
def test_count_lobes_takes_one_row(row):
    with pytest.raises(ValueError, match=r"^count_lobes takes one 1-d row, got shape \("):
        count_lobes(row)


def test_carpet_guards():
    # A custom spectrum's carpet spans one revival period by default; times
    # whose phases overflow are refused before any grid is built.
    label = CoherentLabel(1.0, 0.0)
    custom = Spectrum((0, Fraction(7, 5), Fraction(3, 11)), 1.0)
    grid = carpet(label, custom, nx=16, nt=8, truncation=30)
    assert grid.density.shape == (8, 16)
    assert grid.t_max == revival_time(custom) == 55.0 * math.pi
    grid = carpet(label, custom, t_max=1.0, nx=16, nt=8, truncation=30)
    assert grid.t_max == 1.0
    with pytest.raises(ValueError, match="phases chi E t overflow float64"):
        carpet(label, Spectrum.kerr(1e200), t_max=1e200, nx=16, nt=8)


def test_carpet_refuses_overflowing_phases_before_the_hermite_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hermite_functions called for a carpet whose phases overflow")

    monkeypatch.setattr("revivals.carpets.hermite_functions", refuse)
    label = CoherentLabel(3.0, 0.0)
    with pytest.raises(ValueError, match="phases chi E t overflow float64"):
        carpet(label, Spectrum.kerr(1e200), t_max=1e200, nx=16, nt=8)
    # The travelling Gaussian refuses with the contraction's message, |E| up
    # to E_N of the auto N included, before it forms its 1.28 MB density.
    messages = []
    for truncation in (auto_truncation(label.nu), None):
        tracemalloc.start()
        with pytest.raises(ValueError, match="phases chi E t overflow float64") as refused:
            carpet(label, Spectrum.harmonic(1e200), t_max=1e200, nx=400, nt=400, truncation=truncation)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        messages.append(str(refused.value))
    assert messages[0] == messages[1]
    assert peak < 8 * 400 * 400 // 10


@pytest.mark.parametrize(
    "spectrum", [Spectrum.kerr(1e200), Spectrum.harmonic(1e200)], ids=["contraction", "gaussian"]
)
def test_carpet_refuses_overflowing_phases_before_its_workspace(monkeypatch, spectrum):
    # The phases are refused in carpet's prologue, on both routes: a fresh
    # thread's workspace stays untaken, and a 10^6 x 10^6 grid, whose
    # workspace would need 7.28 TiB, is refused with the same message.
    local = threading.local()
    monkeypatch.setattr(carpets, "_local", local)
    label = CoherentLabel(3.0, 0.0)
    with pytest.raises(ValueError, match="phases chi E t overflow float64"):
        carpet(label, spectrum, t_max=1e200, nx=300, nt=300)
    assert not hasattr(local, "buffer")

    def refuse(*shapes):
        raise AssertionError("workspace taken for a carpet whose phases overflow")

    monkeypatch.setattr(carpets, "_workspace", refuse)
    with pytest.raises(ValueError, match="phases chi E t overflow float64"):
        carpet(label, spectrum, t_max=1e200, nx=10**6, nt=10**6)


@pytest.mark.parametrize("flag", ["nx", "nt"])
@pytest.mark.parametrize("size", [-5, 0, 1])
def test_carpet_refuses_small_sizes_before_computing(monkeypatch, flag, size):
    def refuse(*args, **kwargs):
        raise AssertionError("hermite_functions called for a grid carpet refuses")

    monkeypatch.setattr("revivals.carpets.hermite_functions", refuse)
    sizes = {"nx": 4, "nt": 3, flag: size}
    message = f"a carpet needs nx >= 2 and nt >= 2, got nx = {sizes['nx']}, nt = {sizes['nt']}"
    with pytest.raises(ValueError, match=message):
        carpet(CoherentLabel(1.0, 1.0), Spectrum.kerr(1.0), **sizes)


# Inputs that carpet refuses, each with the start of the contraction's message.
LINEAR_REFUSALS = {
    "x-inf": ({"x_max": math.inf}, "grid extents must be finite"),
    "t-nan": ({"t_min": math.nan, "t_max": 1.0}, "grid extents must be finite"),
    "x-decreasing": ({"x_min": 1.0, "x_max": -1.0}, "grid extents must be increasing"),
    "t-decreasing": ({"t_min": 2.0, "t_max": 1.0}, "grid extents must be increasing"),
    "t-span": ({"t_min": -1e308, "t_max": 1e308}, "grid spans x_max - x_min and t_max - t_min must be finite"),
    "x-square": ({"x_min": -1e307, "x_max": 1e307}, "x extents must lie within"),
    "nx-1": ({"nx": 1}, "a carpet needs nx >= 2 and nt >= 2, got nx = 1, nt = 8"),
    "nt-0": ({"nt": 0}, "a carpet needs nx >= 2 and nt >= 2, got nx = 16, nt = 0"),
    "nx-float": ({"nx": 2.5}, "nx must be an integer, got 2.5"),
    "nt-str": ({"nt": "8"}, "nt must be an integer, got '8'"),
    "phases": ({"chi": 1e200, "t_max": 1e200}, "phases chi E t overflow float64 at chi = 1e+200"),
    "cells": ({"nt": 10**17}, f"a carpet of nx = 16 by nt = {10**17} at N = 52 needs more float64"),
}


@pytest.mark.parametrize("case", LINEAR_REFUSALS)
def test_linear_carpet_refuses_what_the_contraction_refuses(case):
    # Without a truncation a harmonic carpet takes the travelling Gaussian;
    # at the explicit auto N, the same N, it takes the contraction, whose
    # message is the referee, word for word.
    bad, message = LINEAR_REFUSALS[case]
    args = {"nx": 16, "nt": 8, **bad}
    spectrum = Spectrum.harmonic(args.pop("chi", 0.7))
    label = CoherentLabel(3.0, -2.0)
    messages = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for truncation in (None, auto_truncation(label.nu)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}") as refused:
                carpet(label, spectrum, truncation=truncation, **args)
            messages.append(str(refused.value))
    assert messages[0] == messages[1]


def test_linear_carpet_refuses_a_level_count_no_array_holds():
    # No explicit N exists here, so the referee is Kerr's contraction, which
    # refuses before any level is built, as the Gaussian does.
    label = CoherentLabel(1e150, 0.0)
    messages = []
    for spectrum in (Spectrum.harmonic(1.0), Spectrum.kerr(1.0)):
        with pytest.raises(ValueError) as refused:
            carpet(label, spectrum, nx=4, nt=3)
        messages.append(str(refused.value))
    assert messages == [
        "N + 1 = 5.000e+299 Fock levels at nu = 5e+299: that many complex128 amplitudes "
        "exceed sys.maxsize bytes, the largest array"
    ] * 2


def test_grid_validation():
    for small in (np.zeros((1, 4)), np.zeros((4, 1)), np.zeros(4)):
        with pytest.raises(ValueError, match="at least a 2 x 2 grid"):
            CarpetGrid(0.0, 1.0, 0.0, 1.0, small)
    with pytest.raises(ValueError):
        CarpetGrid(0.0, 1.0, 0.0, 1.0, -np.ones((2, 4)))
    with pytest.raises(ValueError):
        CarpetGrid(1.0, 0.0, 0.0, 1.0, np.zeros((2, 4)))
    grid = CarpetGrid(0.0, 1.0, 0.0, 1.0, np.zeros((3, 4)))
    assert (grid.nt, grid.nx) == (3, 4)
    for extents in (
        (0.0, 1.0, 0.0, math.inf),
        (0.0, 1.0, -math.inf, 1.0),
        (0.0, math.nan, 0.0, 1.0),
        (-math.inf, 1.0, 0.0, 1.0),
    ):
        x_min, x_max, t_min, t_max = extents
        with pytest.raises(ValueError, match="grid extents must be finite"):
            CarpetGrid(x_min, x_max, t_min, t_max, np.zeros((2, 4)))


@pytest.mark.parametrize(
    "bounds",
    [
        {"t_max": math.inf},
        {"t_max": math.nan},
        {"t_min": -math.inf, "t_max": 1.0},
        {"x_max": math.inf},
    ],
)
def test_carpet_rejects_non_finite_extents_before_computing(bounds):
    label = CoherentLabel(1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="grid extents must be finite"):
            carpet(label, Spectrum.kerr(1.0), nx=8, nt=8, **bounds)


@pytest.mark.parametrize(
    "bounds",
    [
        {"x_min": -1e308, "x_max": 1e308},
        {"t_min": -1e308, "t_max": 1e308},
        {"x_min": -1.5e308, "x_max": 0.5e308},
    ],
)
def test_carpet_rejects_overflowing_spans_before_computing(bounds):
    label = CoherentLabel(1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="spans .* must be finite"):
            carpet(label, Spectrum.kerr(1.0), nx=4, nt=3, **bounds)
        extents = {"x_min": 0.0, "x_max": 1.0, "t_min": 0.0, "t_max": 1.0, **bounds}
        with pytest.raises(ValueError, match="spans .* must be finite"):
            CarpetGrid(density=np.zeros((2, 4)), **extents)
        # NumPy scalars take the same route without an overflow warning.
        numpy_extents = {key: np.float64(value) for key, value in extents.items()}
        with pytest.raises(ValueError, match="spans .* must be finite"):
            CarpetGrid(density=np.zeros((2, 4)), **numpy_extents)


@pytest.mark.parametrize(
    "bounds",
    [
        {"x_min": -1e307, "x_max": 1e307},
        {"x_min": 0.0, "x_max": 2e154},
        {"x_min": -2e154, "x_max": -1e154},
    ],
)
def test_carpet_rejects_x_extents_whose_square_overflows(bounds):
    label = CoherentLabel(1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="x extents must lie within"):
            carpet(label, Spectrum.kerr(1.0), nx=4, nt=3, **bounds)
        with pytest.raises(ValueError, match="x extents must lie within"):
            CarpetGrid(t_min=0.0, t_max=1.0, density=np.zeros((2, 4)), **bounds)
        # The largest extent whose square is finite still runs without a warning.
        limit = math.sqrt(sys.float_info.max)
        grid = carpet(label, Spectrum.kerr(1.0), x_min=-limit, x_max=limit, nx=4, nt=3)
        assert grid.density.shape == (3, 4)


def test_pgm_export_shape_and_normalization():
    header, levels = _text.pgm(np.array([[0.0, 1.0], [2.0, 4.0]]))
    assert header == b"P5\n2 2\n255\n"
    assert levels.dtype == np.uint8 and levels.tolist() == [[0, 64], [128, 255]]
    # All-dark grid stays all zeros rather than dividing by zero.
    assert _text.pgm(np.zeros((2, 2)))[1].tobytes() == bytes(4)


def test_csv_export_roundtrip(tmp_path, monkeypatch, capsys):
    # The CLI's carpet CSV parses back to the float64 grid and times of the
    # library's carpet, with chi t / pi beside each time.
    monkeypatch.chdir(tmp_path)
    flags = ["--p", "1.5", "--q", "-0.5", "--chi", "2", "--x-min", "-1", "--x-max", "1", "--t-max", "0.5"]
    assert main(["carpet", *flags, "--nx", "4", "--nt", "3", "--format", "csv", "-o", "c.csv"]) == 0
    capsys.readouterr()
    lines = [line for line in (tmp_path / "c.csv").read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    assert header[:2] == ["t", "chi_t_over_pi"]
    assert len(header) == 2 + 4
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    grid = carpet(CoherentLabel(1.5, -0.5), Spectrum.kerr(2.0), x_min=-1.0, x_max=1.0, nx=4, t_max=0.5, nt=3)
    assert np.array_equal(parsed[:, 2:], grid.density)
    assert np.array_equal(parsed[:, 0], grid.t_axis())
    assert np.array_equal(parsed[:, 1], 2.0 * grid.t_axis() / math.pi)


@pytest.mark.parametrize(
    "chi, message",
    [(1e308, "phases chi E t overflow float64"), (math.nan, "finite and positive"),
     (-2.0, "finite and positive")],
    ids=["overflow", "nan", "negative"],
)
def test_grid_to_csv_refuses_a_bad_chi_before_any_text(tmp_path, monkeypatch, capsys, chi, message):
    # The CLI's carpet CSV. chi t on t <= 10 overflows at chi = 1e308 (the
    # vacuum at N = 1 has only the level E = 0, so the carpet's own phases pass);
    # nan and a negative chi would write a nan or a negative chi_t_over_pi column.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(_text, "_cells_text", lambda block: pytest.fail("text formed"))
    argv = ["carpet", "--p", "0", "--q", "0", "--truncation", "1", "--t-max", "10", f"--chi={chi!r}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--nx", "4", "--nt", "3", "--format", "csv"]) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0], ids=["nan", "inf", "-inf", "negative"])
def test_carpet_grid_refuses_non_finite_or_negative_densities(bad):
    # Unrefused, nan breaks the PGM cast and inf the row integrals.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="densities must be finite and non-negative"):
            CarpetGrid(0.0, 1.0, 0.0, 1.0, [[bad, 1.0], [1.0, 1.0]])


# nt = 2 takes one time per giant row (B = 1); 3 and 401 end on a partial
# giant row (3 = 2 + 1, 401 = 19 * 21 + 2); 600 = 24 * 25 does not.
@pytest.mark.parametrize("nt", [2, 3, 401, 600])
@pytest.mark.parametrize("spectrum", SPECTRA, ids=lambda s: s.kind)
def test_carpet_density_matches_out_of_place_bits(spectrum, nt):
    label = CoherentLabel(7.0, -5.5)
    grid = carpet(label, spectrum, nx=53, nt=nt, **_fock(label, spectrum))
    expected = _density_out_of_place(label, spectrum, 53, nt)
    assert grid.density.tobytes() == expected.tobytes()


def test_pgm_matches_out_of_place_quantization_bits():
    grid = carpet(CoherentLabel(3.0, 2.0), Spectrum.kerr(1.0), nx=97, nt=61)
    levels = np.rint(grid.density * (255.0 / grid.density.max())).astype(np.uint8)
    assert b"".join(_text.pgm(grid.density)) == b"P5\n97 61\n255\n" + levels.tobytes()


def _hermite_by_expressions(x, n_max):
    """hermite_functions before its plain rows were formed in place: each row a fresh expression."""
    out = np.empty((n_max + 1, x.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    far = np.flatnonzero(out[0] < carpets._FAR_PHI0)
    out[0, far] = 0.0
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * x * out[n] - math.sqrt(n / (n + 1.0)) * out[n - 1]
    if far.size:
        xf = x[far]
        log_scale = -0.5 * xf * xf - 0.25 * math.log(math.pi)
        factor = np.exp(log_scale)
        out[0, far] = factor
        prev, u = np.zeros_like(xf), np.ones_like(xf)
        for n in range(n_max):
            prev, u = u, math.sqrt(2.0 / (n + 1)) * xf * u - math.sqrt(n / (n + 1.0)) * prev
            big = np.flatnonzero(np.abs(u) > carpets._FAR_RESCALE)
            if big.size:
                size = np.abs(u[big])
                u[big] /= size
                prev[big] /= size
                log_scale[big] += np.log(size)
                factor[big] = np.exp(log_scale[big])
            out[n + 1, far] = u * factor
    return out


@pytest.mark.parametrize(
    "x, n_max",
    [
        (np.linspace(-6.0, 6.0, 61), 62),
        (np.linspace(-75.0, 75.0, 301), 700),     # a far run at each end
        (np.linspace(-40.0, 10.0, 97), 130),      # one far run
        (np.array([-50.0, 0.0, 27.0, -27.0, 3.0, 100.0, 26.0]), 300),   # scattered far columns
        (np.linspace(-30.0, 30.0, 7), 0),
        (np.linspace(-30.0, 30.0, 7), 1),
    ],
)
def test_hermite_functions_keep_the_bits_of_the_expressions(x, n_max):
    assert hermite_functions(x, n_max).tobytes() == _hermite_by_expressions(x, n_max).tobytes()


def test_hermite_functions_fill_a_callers_table():
    x = np.linspace(-4.0, 4.0, 33)
    out = np.full((8, 33), np.nan)
    assert hermite_functions(x, 7, out=out) is out
    assert out.tobytes() == hermite_functions(x, 7).tobytes()
    for bad in (np.empty((7, 33)), np.empty((8, 33), dtype=np.float32)):
        with pytest.raises(ValueError, match="out must be a float64 array of shape"):
            hermite_functions(x, 7, out=bad)


def test_hermite_functions_and_wavefunction_check_positions_and_order():
    label = CoherentLabel(1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (math.inf, -math.inf, math.nan, 1e200, np.array([0.0, 2e154])):
            with pytest.raises(ValueError, match="x extents must lie within"):
                hermite_functions(np.atleast_1d(x), 3)
            with pytest.raises(ValueError, match="x extents must lie within"):
                position_wavefunction(label, x, 0.0, Spectrum.kerr(1.0))
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        hermite_functions(np.array([0.0]), -1)
    # Any shape of x: psi comes back in that shape, equal to the flat grid's.
    x = np.linspace(-3.0, 3.0, 12)
    flat = position_wavefunction(label, x, 0.4, Spectrum.kerr(1.0))
    square = position_wavefunction(label, x.reshape(3, 4), 0.4, Spectrum.kerr(1.0))
    assert square.shape == (3, 4)
    assert square.ravel().tobytes() == flat.tobytes()


def test_grid_of_a_callers_array_is_a_private_read_only_copy():
    density = np.ones((3, 4))
    grid = CarpetGrid(0.0, 1.0, 0.0, 1.0, density)
    density[0, 0] = 5.0
    assert not np.shares_memory(grid.density, density)
    assert not grid.density.flags.writeable
    assert np.array_equal(grid.density, np.ones((3, 4)))


# Label, spectrum, nx, nt: a carpet that grows the workspace, one that fits
# in it, and the first again.
WORKSPACE_SEQUENCE = (
    (CoherentLabel(7.0, -5.5), SPECTRA[0], 301, 203),
    (CoherentLabel(1.0, 0.5), SPECTRA[1], 17, 5),
    (CoherentLabel(7.0, -5.5), SPECTRA[0], 301, 203),
)


def test_workspace_reuse_keeps_every_carpet_exact():
    grids = []
    for label, spectrum, nx, nt in WORKSPACE_SEQUENCE:
        grid = carpet(label, spectrum, nx=nx, nt=nt, **_fock(label, spectrum))
        expected = _density_out_of_place(label, spectrum, nx, nt)
        assert grid.density.tobytes() == expected.tobytes()
        assert not np.shares_memory(grid.density, carpets._local.buffer)
        grids.append((grid, grid.density.tobytes()))
    # Later calls reuse the workspace; no earlier grid sees it.
    carpet(CoherentLabel(-2.0, 4.0), SPECTRA[2], nx=257, nt=311)
    for grid, kept in grids:
        assert grid.density.tobytes() == kept


def test_threads_each_get_their_own_workspace():
    # More threads than cores, switching often, each with its own carpet size.
    jobs = [
        (CoherentLabel(7.0, -5.5), SPECTRA[0], 211, 157),
        (CoherentLabel(-3.0, 2.0), SPECTRA[2], 157, 211),
        (CoherentLabel(1.0, 4.0), SPECTRA[1], 97, 61),
    ]
    expected = [_density_out_of_place(*job).tobytes() for job in jobs]
    start = threading.Barrier(len(jobs), timeout=30)
    results: list[list[bytes]] = [[] for _ in jobs]

    def work(index: int) -> None:
        label, spectrum, nx, nt = jobs[index]
        start.wait()
        for _ in range(5):
            grid = carpet(label, spectrum, nx=nx, nt=nt, **_fock(label, spectrum))
            results[index].append(grid.density.tobytes())

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[e] * 5 for e in expected]


def _workspace_cells(levels, kept, nx, nt):
    """Hermite table, one nt x max(nx, kept) region holding the Re plane and
    then Im psi, and the Im plane."""
    return levels * nx + nt * max(nx, kept) + nt * kept


def test_carpet_workspace_holds_no_nt_by_nx_plane_beyond_im_psi(monkeypatch):
    # Im psi overwrites the spent Re coefficient plane and Re psi is the
    # density itself, so the only nt x nx plane is that shared region. This
    # label cuts no leading level: every level is kept.
    monkeypatch.setattr(carpets, "_local", threading.local())
    label, spectrum, nx, nt = WORKSPACE_SEQUENCE[0]
    carpet(label, spectrum, nx=nx, nt=nt)
    levels = coherent_amplitudes(label).truncation + 1
    assert carpets._local.buffer.size == _workspace_cells(levels, levels, nx, nt)


def test_largest_benchmark_carpet_works_in_6_01_mib(monkeypatch):
    # nu = 200.7 keeps N = 363 and cuts the 46 leading levels whose |c_n|
    # sum below 2^-64: (364 * 610 + 610 * 610 + 610 * 318) float64 cells,
    # where both coefficient planes and a separate Im psi plane took 7.92 MiB.
    monkeypatch.setattr(carpets, "_local", threading.local())
    label = CoherentLabel(math.sqrt(401.4), 0.0)
    carpet(label, SPECTRA[0], nx=610, nt=610)
    assert carpets._local.buffer.size == _workspace_cells(364, 318, 610, 610)
    assert round(carpets._local.buffer.nbytes / 2**20, 2) == 6.01


def test_carpet_above_the_cap_keeps_the_workspace_size(monkeypatch):
    monkeypatch.setattr(carpets, "_local", threading.local())
    small = WORKSPACE_SEQUENCE[1]
    carpet(small[0], small[1], nx=small[2], nt=small[3], **_fock(small[0], small[1]))
    kept = carpets._local.buffer
    monkeypatch.setattr(carpets, "_WORKSPACE_CAP", 4 * kept.nbytes)
    label, spectrum, nx, nt = WORKSPACE_SEQUENCE[0]
    grid = carpet(label, spectrum, nx=nx, nt=nt)
    assert grid.density.tobytes() == _density_out_of_place(label, spectrum, nx, nt).tobytes()
    assert carpets._local.buffer is kept


def _first_kept_by_amplitude(amplitudes):
    """The leading levels whose |c_n| sum below 2^-64 are cut, as carpet cuts them."""
    return int(np.searchsorted(np.cumsum(np.abs(amplitudes)), 2.0**-64))


def _band_bound(amplitudes, first):
    """Largest |density - full-band density| the cut and the rounding allow.

    |phi_n(x)| < 1, so the cut moves Re psi and Im psi by at most the cut
    |c_n|'s sum. Each side's product sums at most N + 1 terms, each within
    |c_n| of 0, so rounds by at most (N + 1) eps sum |c_n|; with |Re psi|,
    |Im psi| <= sum |c_n|, squaring and adding moves the density by at most
    twice 2 dpsi sum |c_n| + dpsi^2, and each side's squares and sum round by
    at most 2 eps of sum |c_n|^2.
    """
    mags = np.abs(amplitudes)
    total = float(mags.sum())
    dpsi = float(mags[:first].sum()) + 2 * mags.size * EPS * total
    return 2 * (2 * total * dpsi + dpsi**2) + 4 * EPS * total**2


@pytest.mark.parametrize("spectrum", SPECTRA, ids=lambda s: s.kind)
def test_carpet_leaves_out_only_negligible_leading_levels(spectrum):
    # nu = 200, the benchmark's largest carpets, cuts about 46 leading levels.
    label = CoherentLabel.from_alpha(math.sqrt(200.0) * complex(0.6, -0.8))
    amplitudes = coherent_amplitudes(label).amplitudes
    first = _first_kept_by_amplitude(amplitudes)
    assert first > 40
    nx, nt = 83, 41
    grid = carpet(label, spectrum, nx=nx, nt=nt, **_fock(label, spectrum))
    band = _density_out_of_place(label, spectrum, nx, nt, first)
    assert grid.density.tobytes() == band.tobytes()
    full = _density_out_of_place(label, spectrum, nx, nt)
    assert float(np.max(np.abs(grid.density - full))) <= _band_bound(amplitudes, first)
    assert b"".join(_text.pgm(grid.density)) == b"".join(_text.pgm(full))


def test_phase_sums_and_carpet_share_the_level_cut(monkeypatch):
    # A cut of 1e-3 leaves out leading levels at nu = 20, more of the
    # autocorrelation's weights than of the carpet's amplitudes.
    monkeypatch.setattr(spectra, "_NEGLIGIBLE_WEIGHT", 1e-3)
    firsts = []

    def recorded(spectrum, truncation, times, sign, first, step):
        firsts.append(first)
        return _phase_factors(spectrum, truncation, times, sign, first, step)

    monkeypatch.setattr(spectra, "_phase_factors", recorded)
    label, spectrum = CoherentLabel(6.0, -2.0), SPECTRA[0]
    weights = number_distribution(label)
    autocorrelation(label, spectrum, np.array([0.1, 0.35, 0.4, 0.9]))
    amplitudes = coherent_amplitudes(label).amplitudes
    grid = carpet(label, spectrum, nx=31, nt=17)
    expected = [spectra._first_kept(weights), spectra._first_kept(np.abs(amplitudes))]
    assert firsts == expected
    assert expected[0] > expected[1] > 0
    band = _density_out_of_place(label, spectrum, 31, 17, expected[1])
    assert grid.density.tobytes() == band.tobytes()


# 600 columns take 13 rows per chunk, so 203 rows end on a partial chunk;
# 9000 columns exceed one chunk, so each row is a chunk of its own.
@pytest.mark.parametrize("nx, nt", [(600, 203), (9000, 3)])
def test_pgm_chunks_match_whole_grid_quantization_bits(nx, nt):
    density = np.random.default_rng(nx).random((nt, nx)) ** 3
    levels = np.rint(density * (255.0 / density.max())).astype(np.uint8)
    assert b"".join(_text.pgm(density)) == f"P5\n{nx} {nt}\n255\n".encode() + levels.tobytes()


def test_carpet_density_is_read_only_and_owned_by_the_grid():
    spectrum = Spectrum.kerr(1.0)
    first = carpet(CoherentLabel(2.0, 1.0), spectrum, nx=40, nt=30)
    kept = first.density.copy()
    second = carpet(CoherentLabel(-1.0, 3.0), spectrum, nx=40, nt=30)
    assert not first.density.flags.writeable
    with pytest.raises(ValueError):
        first.density[0, 0] = 1.0
    assert not np.shares_memory(first.density, second.density)
    assert np.array_equal(first.density, kept)


def _linear_route_bound(label, spectrum, grid, first=0):
    """Largest |travelling Gaussian - contraction| density the contraction's cuts and rounding allow.

    The contraction at the auto N, from level first on, leaves out
    sum_{n < first} |c_n| + sum_{n > N} |c_n| of psi, as |phi_n(x)| < 1. Its
    phase chi E_n t rounds by eps chi E_max max|t|, which the product chains
    of spectra._phase_factors (at most ceil(nt/B) + B products) can double,
    with an ulp or so per product; its (N + 1)-term sums and the Hermite
    recurrence add about (N + 1) ulps each. Each error scales sum |c_n|:

        dpsi = cut + 2 eps (chi E_max max|t| + 2 (N + 1) + ceil(nt/B) + B) sum |c_n|.

    Both |psi| are at most pi^{-1/4}, so the densities differ by at most
    dpsi (2 pi^{-1/4} + dpsi). The Gaussian's own rounding adds eps times
    (|p| + |q|)(max|theta| + 2) for its centres and 2 max|x| + 2 for
    x - xbar and the exponential, each scaled by the slope
    max |d rho/d xbar| = (2/(e pi))^{1/2} < 1.
    """
    n_max = auto_truncation(label.nu)
    mags = np.abs(coherent_amplitudes(label, 2 * n_max).amplitudes)
    total = float(mags.sum())
    cut = float(mags[:first].sum() + mags[n_max + 1 :].sum())
    times = np.abs(grid.t_axis()).max()
    e_max = float(np.abs(spectrum.energies(n_max)).max())
    step = math.isqrt(grid.nt - 1) + 1
    chains = -(-grid.nt // step) + step
    dpsi = cut + 2 * EPS * (spectrum.chi * e_max * times + 2 * (n_max + 1) + chains) * total
    theta = spectrum.chi * abs(float(spectrum.coefficients[1])) * times
    x_max = max(abs(grid.x_min), abs(grid.x_max))
    gaussian = EPS * ((abs(label.p) + abs(label.q)) * (theta + 2) + 2 * x_max + 2)
    return dpsi * (2 * math.pi**-0.25 + dpsi) + gaussian


LINEAR_SPECTRA = (Spectrum.harmonic(0.7), Spectrum((Fraction(1, 3), 2), 1.1))


@pytest.mark.parametrize("nu", [3.0, 200.0, 1250.0])
@pytest.mark.parametrize("spectrum", LINEAR_SPECTRA, ids=["harmonic", "third-plus-2n"])
def test_linear_carpet_matches_the_contraction_and_the_wavefunction(spectrum, nu):
    # A referee that shares no code with the Gaussian: the contraction at the
    # auto N (with its leading-level cut) and position_wavefunction rows (no
    # cut, one exponential per level). At nu = 1250 the default window reaches
    # |x| = 54, past the |x| > 26.27 where hermite_functions scales its columns.
    label = CoherentLabel.from_alpha(math.sqrt(nu) * complex(0.6, -0.8))
    n_max = auto_truncation(nu)
    nx, nt = 201, 23
    grid = carpet(label, spectrum, nx=nx, nt=nt)
    fock = carpet(label, spectrum, nx=nx, nt=nt, truncation=n_max)
    first = _first_kept_by_amplitude(coherent_amplitudes(label).amplitudes)
    assert float(np.max(np.abs(grid.density - fock.density))) <= _linear_route_bound(label, spectrum, grid, first)
    assert not np.array_equal(grid.density, fock.density)   # two routes, not one
    rows = [0, 7, nt - 1]
    x = grid.x_axis()
    reference = np.array([np.abs(position_wavefunction(label, x, t, spectrum)) ** 2 for t in grid.t_axis()[rows]])
    assert float(np.max(np.abs(grid.density[rows] - reference))) <= _linear_route_bound(label, spectrum, grid)


def test_linear_carpet_allocates_only_its_density(monkeypatch):
    # No workspace: the thread's buffer keeps its object and its bytes. The
    # only nt x nx array is the density; the rest are a few rows of nt or nx
    # values, the N + 1 cached levels and one ufunc buffer of np.getbufsize()
    # values for the broadcast centres. Harmonic slot 6 of the benchmark
    # runs while the nu ~ 65 Kerr carpet's workspace is still held.
    monkeypatch.setattr(carpets, "_local", threading.local())
    carpet(CoherentLabel(8.0, 9.0), SPECTRA[0], nx=610, nt=610)
    buffer = carpets._local.buffer
    kept = buffer.tobytes()
    label, spectrum, nx, nt = CoherentLabel(-11.0, 15.0), Spectrum.harmonic(2.3), 601, 607
    tracemalloc.start()
    grid = carpet(label, spectrum, nx=nx, nt=nt)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert carpets._local.buffer is buffer and buffer.tobytes() == kept
    rows = np.getbufsize() + 8 * nt + 2 * nx + auto_truncation(label.nu) + 1
    assert 8 * nt * nx <= peak <= 8 * (nt * nx + rows) + 4096
    assert grid.density.nbytes == 8 * nt * nx


# The default window leaves 6 sigma beyond every packet, so erfc(3 sqrt 2)/2,
# about 9.9e-10 of the norm, may fall outside it; measured worst 9.91e-10, at
# nu = 1250. The bound allows twice that and is never to be loosened: before
# the far columns of hermite_functions were scaled, phi_0 underflowed beyond
# |x| ~ 38.6 and the nu = 1250 rows with the packet at x = 50 integrated to 0.
ROW_NORM_BOUND = 2e-9


@pytest.mark.parametrize("nu", [10.0, 200.0, 600.0, 1250.0])
@pytest.mark.parametrize("spectrum", SPECTRA, ids=lambda s: s.kind)
def test_carpet_row_norms_match_kept_fock_weight(spectrum, nu):
    # A real alpha puts the packet at x = sqrt(2 nu), the window's far end,
    # on the t = 0 row; the referee is the weight the truncation kept.
    label = CoherentLabel(math.sqrt(2.0 * nu), 0.0)
    kept = 1.0 - coherent_amplitudes(label).tail_mass
    grid = carpet(label, spectrum, nx=4001, nt=5)
    assert float(np.max(np.abs(grid.row_integrals() - kept))) <= ROW_NORM_BOUND


def test_workspace_kept_after_a_large_carpet_stays_within_the_cap(monkeypatch):
    # The nu = 1250, nx = 4001 carpet of the row-norm test works in 49.9 MiB,
    # above the cap, so that buffer is dropped and the thread keeps the last one.
    monkeypatch.setattr(carpets, "_local", threading.local())
    small = WORKSPACE_SEQUENCE[1]
    carpet(small[0], small[1], nx=small[2], nt=small[3], **_fock(small[0], small[1]))
    kept = carpets._local.buffer
    carpet(CoherentLabel(math.sqrt(2500.0), 0.0), SPECTRA[0], nx=4001, nt=5)
    assert carpets._local.buffer is kept
    assert kept.nbytes <= carpets._WORKSPACE_CAP


def test_three_packet_cat_at_nu_2500_keeps_its_norm():
    # At T_rev/3 the packets sit at x = 70.7 and, with momenta +-61, both at
    # x = -35.4, where phi_0 alone would underflow. The grid step 0.085 keeps
    # 2 pi/dx = 73.9 and its double clear of the fringe wavenumber 122, so the
    # trapezoid sum is exact to the truncation's 1e-12.
    label = CoherentLabel(math.sqrt(5000.0), 0.0)
    spectrum = Spectrum.kerr(1.0)
    x = np.linspace(-85.0, 85.0, 2001)
    density = np.abs(position_wavefunction(label, x, revival_time(spectrum) / 3, spectrum)) ** 2
    norm = (x[1] - x[0]) * (density.sum() - 0.5 * (density[0] + density[-1]))
    assert abs(norm - 1.0) <= 1e-9
