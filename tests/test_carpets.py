"""Hermite-function wavefunctions, carpet grids, lobe counting, exports."""

import math
import sys
import warnings

import numpy as np
import pytest

from revivals.carpets import (
    CarpetGrid,
    carpet,
    count_lobes,
    default_window,
    grid_to_csv,
    grid_to_pgm,
    hermite_functions,
    position_wavefunction,
)
from revivals.fock import CoherentLabel
from revivals.spectra import Spectrum


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
    value = position_wavefunction(
        CoherentLabel(0.0, 0.0), 0.0, 0.0, Spectrum.kerr(1.0), truncation=40
    )
    assert value == pytest.approx(math.pi**-0.25, abs=1e-12)


def test_real_alpha_density_peak_location():
    label = CoherentLabel.from_alpha(3.0)
    x = np.linspace(-9.0, 9.0, 3001)
    psi = position_wavefunction(label, x, 0.0, Spectrum.kerr(1.0), truncation=50)
    peak_x = x[np.argmax(np.abs(psi) ** 2)]
    assert peak_x == pytest.approx(3.0 * math.sqrt(2.0), abs=0.01)


def test_wavefunction_normalization_any_time():
    label = CoherentLabel.from_alpha(3.0)
    x = np.linspace(-10.0, 10.0, 2001)
    dx = x[1] - x[0]
    for t in (0.0, 0.17, math.pi / 3.0):
        psi = position_wavefunction(label, x, t, Spectrum.kerr(1.0), truncation=50)
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
    assert count_lobes(grid.density[grid.row_nearest(0.0)]) == 1
    assert count_lobes(grid.density[grid.row_nearest(period)]) == 1
    assert count_lobes(grid.density[grid.row_nearest(period / 2.0)]) == 2
    assert count_lobes(grid.density[grid.row_nearest(period / 3.0)]) == 3
    assert count_lobes(grid.density[grid.row_nearest(2.0 * period / 3.0)]) == 3


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
    assert count_lobes(np.array([0.2, 0.0, 0.01]), threshold=0.1) == 1


def test_carpet_guards():
    label = CoherentLabel(1.0, 0.0)
    aperiodic = Spectrum.custom(lambda n: n + math.sqrt(2) * n * n, 1.0)
    with pytest.raises(ValueError):
        carpet(label, aperiodic)
    grid = carpet(label, aperiodic, t_max=1.0, nx=16, nt=8, truncation=30)
    assert grid.density.shape == (8, 16)


def test_grid_validation():
    with pytest.raises(ValueError):
        CarpetGrid(0.0, 1.0, 4, 0.0, 1.0, 4, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        CarpetGrid(0.0, 1.0, 4, 0.0, 1.0, 2, -np.ones((2, 4)))
    with pytest.raises(ValueError):
        CarpetGrid(1.0, 0.0, 4, 0.0, 1.0, 2, np.zeros((2, 4)))
    for extents in (
        (0.0, 1.0, 0.0, math.inf),
        (0.0, 1.0, -math.inf, 1.0),
        (0.0, math.nan, 0.0, 1.0),
        (-math.inf, 1.0, 0.0, 1.0),
    ):
        x_min, x_max, t_min, t_max = extents
        with pytest.raises(ValueError, match="grid extents must be finite"):
            CarpetGrid(x_min, x_max, 4, t_min, t_max, 2, np.zeros((2, 4)))


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
            CarpetGrid(nx=4, nt=2, density=np.zeros((2, 4)), **extents)
        # NumPy scalars take the same route without an overflow warning.
        numpy_extents = {key: np.float64(value) for key, value in extents.items()}
        with pytest.raises(ValueError, match="spans .* must be finite"):
            CarpetGrid(nx=4, nt=2, density=np.zeros((2, 4)), **numpy_extents)


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
            CarpetGrid(nx=4, t_min=0.0, t_max=1.0, nt=2, density=np.zeros((2, 4)), **bounds)
        # The largest extent whose square is finite still runs without a warning.
        limit = math.sqrt(sys.float_info.max)
        grid = carpet(label, Spectrum.kerr(1.0), x_min=-limit, x_max=limit, nx=4, nt=3)
        assert grid.density.shape == (3, 4)


def test_pgm_export_shape_and_normalization():
    density = np.array([[0.0, 1.0], [2.0, 4.0]])
    grid = CarpetGrid(0.0, 1.0, 2, 0.0, 1.0, 2, density)
    blob = grid_to_pgm(grid)
    assert blob.startswith(b"P5\n2 2\n255\n")
    pixels = np.frombuffer(blob[len(b"P5\n2 2\n255\n") :], dtype=np.uint8)
    assert pixels.tolist() == [0, 64, 128, 255]
    # All-dark grid stays all zeros rather than dividing by zero.
    dark = CarpetGrid(0.0, 1.0, 2, 0.0, 1.0, 2, np.zeros((2, 2)))
    assert grid_to_pgm(dark).endswith(bytes(4))


def test_csv_export_roundtrip():
    rng = np.random.default_rng(5)
    density = rng.uniform(0.0, 2.0, size=(3, 4))
    grid = CarpetGrid(-1.0, 1.0, 4, 0.0, 0.5, 3, density)
    text = grid_to_csv(grid, chi=2.0)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[:2] == ["t", "chi_t_over_pi"]
    assert len(header) == 2 + 4
    parsed = np.array(
        [[float(v) for v in line.split(",")[2:]] for line in lines[1:]]
    )
    assert np.array_equal(parsed, density)
    times = np.array([float(line.split(",")[0]) for line in lines[1:]])
    assert np.array_equal(times, grid.t_axis())
