"""Acceptance gate: one test per headline guarantee, at pinned tolerances.

Each test prints a single PASS line on success; under pytest -v the
per-test PASSED/FAILED verdicts serve as the one-line summary.
"""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np

from revivals import detect_bursts
from revivals.angular import TriModeLabel, lx_moment, lx_moment_oracle
from revivals.carpets import carpet, count_lobes
from revivals.classical import (
    PendulumArray,
    paraxial_talbot_length,
    talbot_length,
    wave_count,
)
from revivals.fock import (
    CoherentLabel,
    coherent_amplitudes,
    ladder_product_matrix,
    number_distribution,
)
from revivals.moments import (
    autocorrelation,
    expect_p,
    expect_p2,
    expect_x,
    expect_x2,
    ladder_moment,
    numerical_expectation,
    uncertainty_trace,
)
from revivals.spectra import Spectrum, decompose_fractional, evolve

CHI = 1.0
KERR = Spectrum.kerr(CHI)
T_REV = math.pi / CHI


def test_photon_statistics_normalized_and_poissonian():
    for nu in (1.0, 10.0, 100.0):
        label = CoherentLabel(math.sqrt(2.0 * nu), 0.0)
        state = coherent_amplitudes(label)
        norm = np.sum(np.abs(state.amplitudes) ** 2)
        assert abs(norm - 1.0) <= 1e-10
        weights = number_distribution(label)
        grid = np.arange(weights.size)
        mean = float(np.sum(grid * weights))
        var = float(np.sum(grid**2 * weights) - mean**2)
        assert abs(mean - nu) <= 1e-6
        assert abs(var - nu) <= 1e-6
    print("PASS photon statistics normalized and poissonian")


def test_initial_state_is_minimum_uncertainty():
    rng = np.random.default_rng(12)
    zero = np.array([0.0])
    for _ in range(20):
        p, q = rng.uniform(-3.0, 3.0, size=2)
        dx, dp = uncertainty_trace(CoherentLabel(p, q), CHI, zero)
        assert abs(dx[0] * dp[0] - 0.5) <= 1e-10
    print("PASS every initial label is a minimum uncertainty state")


def test_full_revival_restores_the_state():
    label = CoherentLabel.from_alpha(math.sqrt(10.0))
    overlap = autocorrelation(label, KERR, T_REV)
    assert abs(abs(overlap) ** 2 - 1.0) <= 1e-8
    state = coherent_amplitudes(label)
    evolved = evolve(state, KERR, T_REV)
    assert np.max(np.abs(evolved.amplitudes - state.amplitudes)) <= 1e-10
    print("PASS full revival restores the state")


def test_ladder_moment_closed_form_matches_matrix_oracle():
    rng = np.random.default_rng(41)
    worst = 0.0
    for nu in (0.5, 2.5, 10.0):
        label = CoherentLabel(math.sqrt(nu), math.sqrt(nu))
        padded = coherent_amplitudes(label)
        padded = padded.padded(padded.truncation + 8)
        for r in range(4):
            for s in range(4):
                op = ladder_product_matrix(r, r + s, padded.truncation)
                for t in rng.uniform(0.0, T_REV, size=50):
                    closed = ladder_moment(r, r + s, label, CHI, float(t))
                    oracle = numerical_expectation(
                        evolve(padded, KERR, float(t)), op
                    )
                    rel = abs(closed - oracle) / (1.0 + abs(oracle))
                    worst = max(worst, rel)
    assert worst <= 1e-8
    print("PASS ladder moment closed form matches the matrix oracle")


def test_quadrature_closed_forms_match_oracle_and_uncertainty_path():
    label = CoherentLabel(math.sqrt(10.0), -math.sqrt(10.0))
    padded = coherent_amplitudes(label)
    padded = padded.padded(padded.truncation + 8)
    lower = ladder_product_matrix(0, 1, padded.truncation)
    lower_sq = ladder_product_matrix(0, 2, padded.truncation)
    number = ladder_product_matrix(1, 1, padded.truncation)
    times = np.linspace(0.0, T_REV, 200)
    worst = 0.0
    for t in times:
        evolved = evolve(padded, KERR, float(t))
        one = numerical_expectation(evolved, lower)
        two = numerical_expectation(evolved, lower_sq)
        count = numerical_expectation(evolved, number).real
        worst = max(
            worst,
            abs(expect_x(label, CHI, float(t)) - math.sqrt(2.0) * one.real),
            abs(expect_p(label, CHI, float(t)) - math.sqrt(2.0) * one.imag),
            abs(expect_x2(label, CHI, float(t)) - (0.5 + count + two.real)),
            abs(expect_p2(label, CHI, float(t)) - (0.5 + count - two.real)),
        )
    assert worst <= 1e-8

    x1 = np.asarray(expect_x(label, CHI, times))
    p1 = np.asarray(expect_p(label, CHI, times))
    x2 = np.asarray(expect_x2(label, CHI, times))
    p2 = np.asarray(expect_p2(label, CHI, times))
    dx, dp = uncertainty_trace(label, CHI, times)
    spreads = (x2 - x1**2) * (p2 - p1**2)
    assert np.max(np.abs(spreads - (dx * dp) ** 2)) <= 1e-10
    total = (x2 - x1**2) + (p2 - p1**2)
    assert np.max(np.abs(total - (dx**2 + dp**2))) <= 1e-10
    print("PASS quadrature closed forms match the oracle and uncertainty path")


def test_fractional_revival_cat_fidelities():
    label = CoherentLabel.from_alpha(2.0)
    state = coherent_amplitudes(label)
    for m in range(2, 7):
        cat = decompose_fractional(label, m, KERR)
        assert cat.fidelity >= 1.0 - 1e-9
        evolved = evolve(state, KERR, cat.time)
        rebuilt = np.zeros_like(evolved.amplitudes)
        for coeff, component in zip(cat.coefficients, cat.component_labels):
            rebuilt += (
                coeff
                * coherent_amplitudes(component, state.truncation).amplitudes
            )
        overlap = np.vdot(rebuilt, evolved.amplitudes)
        fidelity = abs(overlap) ** 2 / np.vdot(rebuilt, rebuilt).real
        assert fidelity >= 1.0 - 1e-9
    print("PASS fractional revival cat fidelities reach 1 - 1e-9")


def test_angular_momentum_moments_and_burst_parity():
    # closed forms against the brute-force two-mode oracle
    label = TriModeLabel(
        CoherentLabel(0.0, 0.0),
        CoherentLabel(1.5, 2.0),
        CoherentLabel(2.4, -1.2),
    )
    assert max(label.mode_b.nu, label.mode_c.nu) <= 6.0
    rng = np.random.default_rng(43)
    worst = 0.0
    for t in rng.uniform(0.0, T_REV, size=50):
        for n in range(1, 5):
            closed = lx_moment(n, label, CHI, float(t))
            oracle = lx_moment_oracle(n, label, CHI, float(t))
            worst = max(worst, abs(closed - oracle))
    assert worst <= 1e-8

    # the first moment vanishes identically for matched mode labels
    times = np.linspace(0.0, T_REV, 801)
    for c2, c3 in ((1.3, 1.3), (0.8, -0.8), (2.0, 2.0)):
        matched = TriModeLabel(
            CoherentLabel(0.0, 0.0),
            CoherentLabel(c2, c2),
            CoherentLabel(c3, c3),
        )
        trace = np.asarray(lx_moment(1, matched, CHI, times))
        assert np.max(np.abs(trace)) <= 1e-12

    # parity selection: the third-order trace shows no third-revival burst
    # for matched modes, while the fourth-order trace keeps one alive
    root = math.sqrt(50.0)
    matched = TriModeLabel(
        CoherentLabel(0.0, 0.0),
        CoherentLabel(root, root),
        CoherentLabel(root, root),
    )
    dense = np.linspace(0.0, T_REV, 20001)
    cubic = np.asarray(lx_moment(3, matched, CHI, dense))
    third_window = detect_bursts(dense, cubic, T_REV, 3).ratios[Fraction(1, 3)]
    assert third_window < 1.0

    quartic = np.asarray(lx_moment(4, matched, CHI, dense))
    report4 = detect_bursts(dense, quartic, T_REV, 4)
    assert report4.ratios[Fraction(1, 2)] >= 10.0
    quarter_window = report4.ratios[Fraction(1, 4)]
    assert quarter_window > 2.0
    assert quarter_window > 5.0 * max(third_window, 1e-12)
    print("PASS angular momentum moments, zero families, and burst parity")


def test_burst_detector_moment_order_selectivity():
    label = CoherentLabel(10.0, 10.0)
    times = np.linspace(0.0, T_REV, 20001)

    first = np.asarray(expect_x(label, CHI, times))
    report = detect_bursts(times, first, T_REV, 2)
    assert report.detected() == (Fraction(1, 1),)

    second = np.asarray(expect_x2(label, CHI, times))
    report = detect_bursts(times, second, T_REV, 2)
    assert report.detected() == (Fraction(1, 2), Fraction(1, 1))
    print("PASS burst detector separates first and second moment signatures")


def test_carpet_rows_normalized_with_expected_lobe_counts():
    # |alpha| = 3 oriented along the momentum axis so the half-revival
    # pair separates in position; grid rows land exactly on the named
    # times because t_max is 399/396 of the revival period
    label = CoherentLabel(0.0, 3.0 * math.sqrt(2.0))
    grid = carpet(
        label,
        KERR,
        nx=400,
        t_min=0.0,
        t_max=(399.0 / 396.0) * T_REV,
        nt=400,
        truncation=50,
    )
    assert np.max(np.abs(grid.row_integrals() - 1.0)) <= 1e-4
    assert count_lobes(grid.density[0]) == 1
    assert count_lobes(grid.density[198]) == 2
    assert count_lobes(grid.density[132]) == 3
    print("PASS carpet rows stay normalized with lobe counts 1, 2, 3")


def test_pendulum_wave_counts():
    array = PendulumArray(count=100)
    assert wave_count(array, array.t_rev / 2.0) == (2, 50)
    assert wave_count(array, array.t_rev / 4.0) == (4, 25)
    assert wave_count(array, array.t_rev / 10.0) == (10, 10)
    print("PASS pendulum wave counts at the named fractions")


def test_talbot_length_values():
    grating = 1.0
    wavelength = 0.6 * grating
    length = talbot_length(wavelength, grating)
    assert abs(length - 5.0 * wavelength) <= 1e-12 * length
    assert abs(length - 3.0 * grating) <= 1e-12 * length
    fine = 1e-2 * grating
    exact = talbot_length(fine, grating)
    approx = paraxial_talbot_length(fine, grating)
    assert abs(exact - approx) / approx <= 1e-4
    print("PASS talbot length exact point and paraxial agreement")


def test_cli_output_is_deterministic(tmp_path, cli_env):
    commands = (
        ["autocorr", "--p", "1.2", "--q", "0.3", "--samples", "301"],
        [
            "carpet", "--p", "1.0", "--q", "1.0",
            "--nx", "64", "--nt", "33", "--format", "pgm",
        ],
    )
    for base in commands:
        outputs = []
        for name in ("one.out", "two.out"):
            result = subprocess.run(
                [sys.executable, "-m", "revivals", *base, "-o", name],
                cwd=tmp_path,
                env=cli_env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0
    print("PASS repeated cli runs emit byte identical files")
