"""Command-line front end: argv handling, burst detection, file output."""

import argparse
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from revivals import BurstReport, ObservableTrace, detect_bursts
from revivals.cli import DEFAULT_CHI, build_parser, main


def _read_csv(path):
    """Split an output file into (metadata dict, header list, row lists)."""
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_argv_validation(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # Default file names: the command, then the format.
    assert main(["autocorr", "--samples", "3"]) == 0
    assert main(["carpet", "--nx", "4", "--nt", "3", "--format", "pgm"]) == 0
    assert main(["talbot", "--wavelength", "0.6", "--grating-period", "1.0", "-o", "z.csv"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["autocorr.csv", "carpet.pgm", "z.csv"]
    assert (tmp_path / "carpet.pgm").read_bytes().startswith(b"P5\n4 3\n255\n")
    assert f"# chi = {DEFAULT_CHI:.17g}\n" in (tmp_path / "autocorr.csv").read_text()
    capsys.readouterr()
    # Checks on the shared flags exit 1 with a message and write nothing.
    assert main(["autocorr", "--samples", "1", "-o", "bad.csv"]) == 1
    assert capsys.readouterr().err == "error: samples must be at least 2\n"
    assert main(["autocorr", "--chi", "0", "-o", "bad.csv"]) == 1
    assert capsys.readouterr().err == "error: --chi must be finite and positive, got 0\n"
    # argparse refuses what no command declares with usage exit 2.
    for argv in (["carpet", "--format", "json"], ["bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["-o", "bad.csv"])
        assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()


def test_burst_report_access():
    report = BurstReport(
        windows=((0.5, 12.0), (1.0, 3.0)),
        threshold=10.0,
        fractions=(Fraction(1, 2), Fraction(1, 1)),
    )
    assert report.detected() == (0.5,)
    assert report.detected_fractions() == (Fraction(1, 2),)
    assert report.ratio_at(Fraction(1, 1)) == 3.0
    with pytest.raises(KeyError):
        report.ratio_at(Fraction(1, 3))
    with pytest.raises(ValueError):
        BurstReport(windows=((0.5, -1.0),), threshold=10.0)
    with pytest.raises(ValueError):
        BurstReport(
            windows=((0.5, 1.0), (1.0, 1.0)),
            threshold=10.0,
            fractions=(Fraction(1, 2),),
        )


def test_detect_bursts_guards():
    times = np.linspace(0.0, 1.0, 101)
    trace = ObservableTrace(times, np.zeros(101), "flat")
    with pytest.raises(ValueError):
        detect_bursts(ObservableTrace(np.array([]), np.array([]), "e"), 1.0, 2)
    with pytest.raises(ValueError):
        detect_bursts(trace, 0.0, 2)
    with pytest.raises(ValueError):
        detect_bursts(trace, 1.0, 0)
    with pytest.raises(ValueError):
        detect_bursts(trace, 1.0, 2, window_frac=1.0)
    short = ObservableTrace(times, np.zeros(101), "short")
    with pytest.raises(ValueError):
        detect_bursts(short, 2.0, 2)


def test_detect_bursts_flat_trace_scores_zero():
    times = np.linspace(0.0, 1.0, 2001)
    trace = ObservableTrace(times, np.full(2001, 0.7), "flat")
    report = detect_bursts(trace, 1.0, 4)
    assert report.detected() == ()
    assert all(ratio == 0.0 for _, ratio in report.windows)


def test_detect_bursts_synthetic_bump():
    # A narrow Gaussian excursion at t = 1/2 on an otherwise constant
    # trace should light up the 1/2 window and nothing else.
    times = np.linspace(0.0, 1.0, 4001)
    values = 1.0 + np.exp(-((times - 0.5) ** 2) / (2 * 0.004**2))
    trace = ObservableTrace(times, values, "bump")
    report = detect_bursts(trace, 1.0, 2, window_frac=0.02)
    assert report.detected_fractions() == (Fraction(1, 2),)
    assert report.ratio_at(Fraction(1, 2)) > 10.0
    assert report.ratio_at(Fraction(1, 1)) < 1.0


def test_detect_bursts_windows_are_sorted_reduced_fractions():
    times = np.linspace(0.0, 1.0, 501)
    trace = ObservableTrace(times, np.sin(times), "s")
    report = detect_bursts(trace, 1.0, 4)
    expected = (
        Fraction(1, 4),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(3, 4),
        Fraction(1, 1),
    )
    assert report.fractions == expected
    centers = [c for c, _ in report.windows]
    assert centers == sorted(centers)


def test_autocorr_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(
        ["autocorr", "--p", "1.0", "--q", "1.0", "--samples", "11"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "revival_time = " in out
    assert "wrote autocorr.csv" in out
    meta, header, rows = _read_csv(tmp_path / "autocorr.csv")
    assert meta["command"] == "autocorr"
    assert meta["spectrum"] == "kerr"
    assert header == ["t", "re", "im", "abs2", "chi_t_over_pi"]
    assert len(rows) == 11
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-12)
    # last column is chi t / pi, so the final row of a default grid is 1
    assert float(rows[-1][-1]) == pytest.approx(1.0, abs=1e-12)


def test_moment_number_operator_is_constant(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert (
        main(
            [
                "moment", "--r", "1", "--s", "0",
                "--p", "2.0", "--q", "0.0", "--samples", "7",
            ]
        )
        == 0
    )
    meta, header, rows = _read_csv(tmp_path / "moment.csv")
    assert header == ["t", "re", "im", "chi_t_over_pi"]
    assert meta["r"] == "1" and meta["s"] == "0"
    for row in rows:
        assert row[1] == "2"
        assert row[2] == "0"


def test_xptrace_dxdp_floor_and_revival(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    chi = 0.5
    assert (
        main(
            [
                "xptrace", "--observable", "dxdp",
                "--p", "1.5", "--q", "-0.5",
                "--chi", str(chi), "--samples", "9",
            ]
        )
        == 0
    )
    _, header, rows = _read_csv(tmp_path / "xptrace.csv")
    assert header == ["t", "value", "chi_t_over_pi"]
    values = [float(r[1]) for r in rows]
    assert values[0] == pytest.approx(0.5, abs=1e-12)
    assert values[-1] == pytest.approx(0.5, abs=1e-10)
    assert all(v >= 0.5 - 1e-12 for v in values)


def test_lx_trace_zero_for_symmetric_modes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert (
        main(
            [
                "lx", "--n", "1",
                "--p2", "1.0", "--q2", "2.0",
                "--p3", "1.0", "--q3", "2.0",
                "--samples", "17",
            ]
        )
        == 0
    )
    _, _, rows = _read_csv(tmp_path / "lx.csv")
    assert max(abs(float(r[1])) for r in rows) < 1e-12


def test_carpet_pgm_dimensions(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert (
        main(
            [
                "carpet", "--p", "1.0", "--q", "0.0",
                "--nx", "8", "--nt", "5", "--format", "pgm",
            ]
        )
        == 0
    )
    blob = (tmp_path / "carpet.pgm").read_bytes()
    assert blob.startswith(b"P5\n8 5\n255\n")
    assert len(blob) == len(b"P5\n8 5\n255\n") + 8 * 5


def test_pendulum_snapshot_metadata(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["pendulum", "--at", "0.5"]) == 0
    meta, header, rows = _read_csv(tmp_path / "pendulum.csv")
    assert header == ["j", "x"]
    assert (meta["waves"], meta["strength"]) == ("2", "50")
    assert len(rows) == 100
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[1][1]) == pytest.approx(-1.0, abs=1e-12)


def test_talbot_row_and_note(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert (
        main(["talbot", "--wavelength", "0.6", "--grating-period", "1.0"])
        == 0
    )
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("talbot_length = 3")
    _, header, rows = _read_csv(tmp_path / "talbot.csv")
    assert header == [
        "wavelength", "grating_period", "talbot_length", "paraxial_length",
    ]
    assert float(rows[0][2]) == pytest.approx(3.0, rel=1e-12)


def test_cat_decomposition_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    q = 2.0 * math.sqrt(2.0)
    assert main(["cat", "--m", "2", "--p", "0.0", "--q", str(q)]) == 0
    meta, header, rows = _read_csv(tmp_path / "cat.csv")
    assert header == ["component", "coeff_re", "coeff_im", "label_p", "label_q"]
    assert float(meta["fidelity"]) > 1.0 - 1e-9
    assert len(rows) == 2
    weights = [float(r[1]) ** 2 + float(r[2]) ** 2 for r in rows]
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    # the two components sit at +/- alpha rotated by pi/2: along +/- p
    ps = sorted(float(r[3]) for r in rows)
    assert ps[0] == pytest.approx(-q, abs=1e-9)
    assert ps[1] == pytest.approx(q, abs=1e-9)


def test_byte_identical_reruns(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["autocorr", "--p", "1.3", "--q", "-0.4", "--samples", "101"]
    assert main(args + ["-o", "first.csv"]) == 0
    assert main(args + ["-o", "second.csv"]) == 0
    assert (tmp_path / "first.csv").read_bytes() == (
        tmp_path / "second.csv"
    ).read_bytes()


def test_cli_subprocess_end_to_end(tmp_path, cli_env):
    result = subprocess.run(
        [
            sys.executable, "-m", "revivals",
            "xptrace", "--observable", "x", "--samples", "21",
            "-o", "trace.csv",
        ],
        cwd=tmp_path,
        env=cli_env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "wrote trace.csv" in result.stdout
    assert (tmp_path / "trace.csv").exists()


def test_error_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # numeric domain problems come back as 1 with a message on stderr
    assert (
        main(["talbot", "--wavelength", "2.0", "--grating-period", "1.0"])
        == 1
    )
    assert "error:" in capsys.readouterr().err
    assert main(["autocorr", "--chi", "-1.0"]) == 1
    assert main(["autocorr", "--samples", "1"]) == 1
    # argparse handles unknown commands itself with usage exit code 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("target", ["missing_dir/x.csv", "a_dir"])
def test_unwritable_output_reported_without_traceback(tmp_path, monkeypatch, capsys, target):
    # A missing parent directory, or an output path that is a directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_dir").mkdir()
    argv = ["talbot", "--wavelength", "0.6", "--grating-period", "1.0", "-o", target]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in captured.err
    assert "wrote" not in captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir"]


def test_trace_rows_time_column_formatting(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    chi = 2.0
    assert (
        main(
            [
                "xptrace", "--observable", "x2", "--chi", str(chi),
                "--samples", "5",
            ]
        )
        == 0
    )
    _, _, rows = _read_csv(tmp_path / "xptrace.csv")
    for row in rows:
        t = float(row[0])
        assert float(row[-1]) == pytest.approx(chi * t / math.pi, rel=1e-15)


@pytest.mark.parametrize(
    "argv",
    [
        ["autocorr"],
        ["moment", "--r", "1", "--s", "1"],
        ["xptrace"],
        ["lx"],
    ],
)
def test_truncation_refused_where_unused(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--truncation", "-3", "--samples", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --truncation" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, field",
    [
        (["cat", "--m", "2", "--t-max", "inf"], "t_max"),
        (["cat", "--m", "2", "--samples", "9", "--t-min", "3", "--t-max", "4"], "samples"),
        (["carpet", "--nx", "3", "--nt", "3", "--samples", "7"], "samples"),
    ],
)
def test_time_grid_flags_refused_where_unused(tmp_path, monkeypatch, capsys, argv, field):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{field.replace('_', '-')}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_negative_truncation_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (["carpet"], ["cat", "--m", "2"]):
        assert main(argv + ["--truncation", "-3"]) == 1
        assert "error: truncation must be >= 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_explicit_truncation_tail_mass_checked(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # Label (1, 1) has nu = 1: N = 0 keeps only the vacuum and cuts 1 - e^-1.
    assert main(["carpet", "--truncation", "0", "--nx", "8", "--nt", "8"]) == 1
    err = capsys.readouterr().err
    assert "truncation N = 0" in err and "tail mass 6.321e-01" in err
    assert main(["cat", "--m", "3", "--truncation", "10"]) == 1
    err = capsys.readouterr().err
    assert "truncation N = 10" in err and "tail mass 1.005e-08" in err
    assert not list(tmp_path.iterdir())
    # A truncation that keeps the tail below DEFAULT_TOLERANCE is honoured.
    assert main(["carpet", "--truncation", "40", "--nx", "8", "--nt", "8"]) == 0
    assert main(["cat", "--m", "3", "--truncation", "40"]) == 0
    assert (tmp_path / "carpet.csv").exists() and (tmp_path / "cat.csv").exists()


@pytest.mark.parametrize(
    "r, s, p", [(0, 400, "30"), (60, 200, "30")], ids=["power", "product"]
)
def test_moment_overflow_reported_in_domain_terms(
    tmp_path, monkeypatch, capsys, r, s, p
):
    monkeypatch.chdir(tmp_path)
    argv = ["moment", "--r", str(r), "--s", str(s), "--p", p, "--samples", "5"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: moment r = {r}, s = {s} overflows float64 at nu = 450.5" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["xptrace", "--t-max", "inf", "--samples", "4"], "--t-max"),
        (["autocorr", "--t-max", "inf", "--samples", "4"], "--t-max"),
        (["autocorr", "--t-min=-inf", "--samples", "4"], "--t-min"),
        (["moment", "--r", "1", "--s", "1", "--t-max", "nan"], "--t-max"),
        (["lx", "--t-min", "nan"], "--t-min"),
        (["carpet", "--t-max", "inf", "--nx", "8", "--nt", "8"], "--t-max"),
        (["carpet", "--t-max", "inf", "--format", "pgm"], "--t-max"),
    ],
)
def test_non_finite_time_bounds_rejected(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {flag} must be finite" in err
    assert "Warning" not in err
    assert not list(tmp_path.iterdir())


def test_lx_order_beyond_verified_range_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["lx", "--n", "41", "--samples", "5"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: interference power must be at most 40 (the verified range 1..40), got 41\n"
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pendulum", "--t-rev", "inf", "--at", "0.5"], "t_rev and amplitude must be finite"),
        (["pendulum", "--amplitude", "inf"], "t_rev and amplitude must be finite"),
        (["pendulum", "--at", "inf"], "t must lie within [0, t_rev]"),
        (["talbot", "--wavelength", "inf", "--grating-period", "inf"],
         "wavelength and grating period must be finite and positive"),
        (["talbot", "--wavelength", "1e-300", "--grating-period", "1"],
         "(wavelength / grating period)^2 underflows float64 at --wavelength 1e-300 "
         "and --grating-period 1; rescale both"),
        (["talbot", "--wavelength", "1e-300", "--grating-period", "inf"],
         "wavelength and grating period must be finite and positive"),
    ],
)
def test_classical_inputs_refused(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, p, q",
    [
        (["xptrace", "--p", "1e200", "--samples", "3"], "1e+200", "1"),
        (["moment", "--r", "1", "--s", "0", "--p", "1e200", "--samples", "3"], "1e+200", "1"),
        (["lx", "--q3", "1e200", "--samples", "3"], "1", "1e+200"),
        (["autocorr", "--p", "1e200", "--samples", "3"], "1e+200", "1"),
        (["cat", "--m", "2", "--p", "1e200"], "1e+200", "1"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_overflowing_label_rejected(tmp_path, monkeypatch, capsys, argv, p, q):
    # Finite p and q whose nu = (p^2 + q^2)/2 overflows: refused as the label
    # is built, before any nan cell or numpy warning.
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: coherent label p = {p}, q = {q}: its mean photon number "
        "nu = (p^2 + q^2)/2 overflows float64\n"
    )
    assert not list(tmp_path.iterdir())


_TOO_MANY_LEVELS = (
    "N + 1 = {} Fock levels at nu = {}: that many complex128 amplitudes exceed "
    "sys.maxsize bytes, the largest array"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["autocorr", "--p", "1e150", "--samples", "3"], _TOO_MANY_LEVELS.format("5.000e+299", "5e+299")),
        (["autocorr", "--p", "1e10", "--samples", "3"], _TOO_MANY_LEVELS.format("5.000e+19", "5e+19")),
        (["carpet", "--p", "1e150", "--nx", "4", "--nt", "3"], _TOO_MANY_LEVELS.format("5.000e+299", "5e+299")),
        (["cat", "--m", "2", "--p", "1e150"], _TOO_MANY_LEVELS.format("5.000e+299", "5e+299")),
        (
            ["carpet", "--truncation", "10000000000000000000", "--nx", "4", "--nt", "3"],
            _TOO_MANY_LEVELS.format("1.000e+19", "1"),
        ),
        (
            ["xptrace", "--observable", "dxdp", "--p", "1e154", "--samples", "3"],
            "uncertainty trace at nu = 5e+307: <x^2> - <x>^2 or <p^2> - <p>^2 "
            "is not positive, so the subtraction lost every digit",
        ),
    ],
    ids=["autocorr-1e150", "autocorr-1e10", "carpet-1e150", "cat-1e150", "carpet-truncation", "dxdp-1e154"],
)
def test_huge_nu_refused_with_its_cause(tmp_path, monkeypatch, capsys, argv, message):
    # Level counts no array can hold, and variances whose subtraction lost
    # every digit, are named instead of failing inside numpy or writing nan.
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("chi", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["xptrace", "--t-max", "1", "--samples", "3"],
        ["autocorr", "--samples", "3"],
        ["carpet", "--nx", "4", "--nt", "3"],
    ],
)
def test_non_finite_chi_rejected(tmp_path, monkeypatch, capsys, argv, chi):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + [f"--chi={chi}"]) == 1
    err = capsys.readouterr().err
    assert "error: --chi must be finite and positive" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["xptrace", "--t-min=-1e308", "--t-max", "1e308", "--samples", "3"],
         "span --t-max - --t-min overflows"),
        (["autocorr", "--t-min=-1e308", "--t-max", "1e308", "--samples", "3"],
         "span --t-max - --t-min overflows"),
        (["carpet", "--nx", "4", "--nt", "3", "--x-min=-1e308", "--x-max", "1e308"],
         "spans x_max - x_min and t_max - t_min must be finite"),
        (["carpet", "--nx", "4", "--nt", "3", "--t-min=-1e308", "--t-max", "1e308"],
         "spans x_max - x_min and t_max - t_min must be finite"),
        (["carpet", "--nx", "4", "--nt", "3", "--x-min=-1e307", "--x-max", "1e307"],
         "x extents must lie within"),
    ],
)
def test_overflowing_spans_rejected(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_in_process_runs_match_fresh_subprocesses(tmp_path, monkeypatch, cli_env, capsys):
    # main() reuses one parser per process; a parse error in between must
    # leave no trace on the commands that follow.
    commands = [
        ["autocorr", "--p", "1.2", "--q", "0.3", "--samples", "301", "--spectrum", "harmonic"],
        ["xptrace", "--observable", "dxdp", "--samples", "201"],
        ["moment", "--r", "1", "--s", "2", "--chi", "0.7", "--samples", "101"],
        ["carpet", "--nx", "24", "--nt", "17", "--format", "pgm", "--truncation", "40"],
        ["lx", "--n", "3", "--samples", "51"],
        ["cat", "--m", "3"],
        ["pendulum", "--at", "0.25"],
        ["autocorr", "--samples", "101"],
    ]
    inprocess = tmp_path / "inprocess"
    fresh = tmp_path / "fresh"
    inprocess.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(inprocess)
    for k, argv in enumerate(commands):
        assert main(argv + ["-o", f"{k}.out"]) == 0
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--no-such-flag", "1"])
        assert exc.value.code == 2
    capsys.readouterr()
    for k, argv in enumerate(commands):
        result = subprocess.run(
            [sys.executable, "-m", "revivals", *argv, "-o", f"{k}.out"],
            cwd=fresh,
            env=cli_env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (inprocess / f"{k}.out").read_bytes() == (fresh / f"{k}.out").read_bytes(), argv


def test_allocation_failure_reported_without_traceback(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # 1e14 float64 samples need 728 TiB, more than a 128 TiB address space
    # holds, so the allocation fails at once and nothing is really allocated.
    assert main(["autocorr", "--samples", "100000000000000", "--t-max", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: autocorr ran out of memory: ")
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


#: Flags each command needs (or keeps small) in every run of the test below.
_BASE_ARGV = {
    "autocorr": ["--samples", "5"],
    "moment": ["--r", "1", "--s", "1", "--samples", "5"],
    "xptrace": ["--samples", "5"],
    "lx": ["--samples", "5"],
    "carpet": ["--nx", "4", "--nt", "3"],
    "pendulum": ["--count", "6", "--at", "0.3"],
    "talbot": ["--wavelength", "0.6", "--grating-period", "1.0"],
    "cat": ["--m", "2"],
}

#: One valid value, different from the base run's, for every flag of every command.
_FLAG_VALUES = {
    "autocorr": {"--p": "0.5", "--q": "-0.5", "--chi": "2.0", "--t-min": "0.1",
                 "--t-max": "0.5", "--samples": "6", "--spectrum": "harmonic"},
    "moment": {"--r": "2", "--s": "2", "--p": "0.5", "--q": "-0.5", "--chi": "2.0",
               "--t-min": "0.1", "--t-max": "0.5", "--samples": "6"},
    "xptrace": {"--observable": "p", "--p": "0.5", "--q": "-0.5", "--chi": "2.0",
                "--t-min": "0.1", "--t-max": "0.5", "--samples": "6"},
    "lx": {"--n": "2", "--p2": "0.5", "--q2": "-0.5", "--p3": "0.5", "--q3": "-0.5",
           "--chi": "2.0", "--t-min": "0.1", "--t-max": "0.5", "--samples": "6"},
    "carpet": {"--p": "0.5", "--q": "-0.5", "--chi": "2.0", "--t-min": "0.1",
               "--t-max": "0.5", "--truncation": "40", "--spectrum": "harmonic",
               "--nx": "5", "--nt": "4", "--x-min": "-5", "--x-max": "5",
               "--format": "pgm"},
    "pendulum": {"--count": "7", "--base-cycles": "20", "--t-rev": "2.0",
                 "--amplitude": "0.5", "--at": "0.25"},
    "talbot": {"--wavelength": "0.5", "--grating-period": "2.0"},
    "cat": {"--m": "3", "--p": "0.5", "--q": "-0.5", "--chi": "2.0", "--truncation": "40"},
}


def test_every_accepted_flag_is_read(tmp_path, monkeypatch, capsys):
    # A flag that parses but changes nothing is a silent no-op for the user.
    # The table must name every flag the parser accepts (apart from help and
    # the output path), so a new flag cannot be added without a case here.
    monkeypatch.chdir(tmp_path)
    parser = build_parser()
    commands = next(
        action.choices
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(commands) == set(_FLAG_VALUES)
    for command, subparser in commands.items():
        accepted = {
            flag
            for action in subparser._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help", "-o", "--output")
        }
        values = _FLAG_VALUES[command]
        assert set(values) == accepted, command
        base = [command, *_BASE_ARGV[command]]
        assert main(base + ["-o", "base.out"]) == 0
        reference = (tmp_path / "base.out").read_bytes()
        for flag, value in values.items():
            assert main(base + [flag, value, "-o", "changed.out"]) == 0, (command, flag)
            if flag != "--truncation":
                assert (tmp_path / "changed.out").read_bytes() != reference, (command, flag)
    capsys.readouterr()
