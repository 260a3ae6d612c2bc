"""CLI fuzzer: any argv drawn from the command table ends in exit 0, 1 or 2.

A command and a subset of its flags are drawn from ``cli._COMMANDS``, with
values from pools of edge cases (signed zeros, subnormals, values near the
float64 limits, nan, inf) and a few ordinary ones. Sizes are capped so that
no draw allocates more than a few MB. Every run must exit 0, 1 or 2 with no
traceback and no RuntimeWarning; exits 1 and 2 write no file, and a file
written on exit 0 has only finite numbers in its metadata and its cells.
Those numbers also keep the physics' bounds, each within a margin of a few
eps times the magnitude it guards: |A(t)|^2 <= 1 for ``autocorr``,
Δx·Δp >= 1/2 for ``xptrace --observable dxdp``, <x²> + <p²> = 1 + p² + q²
for ``xptrace --observable x2`` or ``p2`` against the library's sibling
observable on the same label and times, and a unit norm of the
coefficients for ``cat``.
"""

import contextlib
import io
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from revivals import cli
from revivals.fock import CoherentLabel
from revivals.moments import expect_p2, expect_x2

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

#: Float flag values: the edges of float64, then ordinary values.
FLOATS = (
    0.0, -0.0, 5e-324, 1e-320, 1e300, -1e300, 1.7e308, 1e16, 1e-8,
    math.nan, math.inf, -math.inf, 0.25, 0.6, 1.0, -1.5, 2.83, 7.0, 60.0,
)

#: Largest value of each size flag; the smallest drawn is -2.
SIZE_CAPS = {"--nx": 40, "--nt": 40, "--samples": 64, "--truncation": 500,
             "--m": 12, "--n": 12, "--count": 200}

#: Other integer flags (moment orders, pendulum cycles): small, then far out.
INTEGERS = st.one_of(st.integers(-2, 8), st.sampled_from((40, 1000, 10**6, 10**400)))

#: Commands whose work grows with the Fock truncation, so with p² + q².
FOCK_COMMANDS = ("autocorr", "carpet", "cat")
FOCK_LABEL_CAP = 60.0


def _values(command, flags, kwargs):
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"]).map(str)
    if kwargs.get("type") is int:
        cap = SIZE_CAPS.get(flags[-1])
        return (INTEGERS if cap is None else st.integers(-2, cap)).map(str)
    pool = FLOATS
    if command in FOCK_COMMANDS and flags[-1] in ("--p", "--q"):
        pool = tuple(v for v in FLOATS if not abs(v) > FOCK_LABEL_CAP)
    return st.sampled_from(pool).map(repr)


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [name]
    for flags, kwargs in cli._COMMANDS[name].options:
        if flags[-1] == "--output" or not (kwargs.get("required") or draw(st.booleans())):
            continue
        value = draw(_values(name, flags, kwargs))
        if draw(st.integers(0, 49)) == 49:
            value = "x"   # neither a number nor a choice: argparse exits 2
        argv.append(f"{flags[-1]}={value}")
    return argv


def _finite_text(text):
    """Every metadata value that parses as a number, and every cell, is finite."""
    lines = text.splitlines()
    meta = [line for line in lines if line.startswith("# ")]
    for line in meta:
        value = line.partition(" = ")[2]
        try:
            number = float(value)
        except ValueError:
            continue
        assert math.isfinite(number), line
    for row in lines[len(meta) + 1 :]:
        assert all(math.isfinite(float(cell)) for cell in row.split(",")), row


EPS = sys.float_info.epsilon

#: The library's sibling of each second quadrature moment: <x²> + <p²> = 1 + p² + q².
SIBLINGS = {"x2": expect_p2, "p2": expect_x2}


def _physical_bounds(text):
    """The bounds of the autocorr, xptrace and cat tables, with margins from p² + q² or m."""
    lines = text.splitlines()
    meta = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
    if meta["command"] not in ("autocorr", "xptrace", "cat"):
        return
    header, *rows = lines[len(meta):]
    cells = [[float(cell) for cell in row.split(",")] for row in rows]
    columns = dict(zip(header.split(","), zip(*cells)))
    p, q = float(meta["p"]), float(meta["q"])
    scale = 1.0 + p * p + q * q   # 1 + 2 nu; inf past float64, as float products overflow quietly
    if meta["command"] == "autocorr":
        # At 64 samples the factored route forms each phase by a chain of up
        # to 16 products, each moving its modulus by about an ulp: 6 eps seen.
        assert max(columns["abs2"]) <= 1.0 + 16.0 * EPS * scale, meta
    elif meta["command"] == "xptrace" and meta["observable"] == "dxdp":
        assert min(columns["value"]) >= 0.5 - 8.0 * EPS * scale, meta
    elif meta["command"] == "xptrace" and meta["observable"] in SIBLINGS:
        # Each sum rounds once: about 1 eps of 1 + p² + q² seen over 4000 labels.
        times = np.array(columns["t"])
        sibling = SIBLINGS[meta["observable"]](CoherentLabel(p, q), float(meta["chi"]), times)
        total = np.array(columns["value"]) + sibling
        assert np.max(np.abs(total - scale)) <= 4.0 * EPS * scale, meta
    elif meta["command"] == "cat":
        norm = sum(re * re + im * im for re, im in zip(columns["coeff_re"], columns["coeff_im"]))
        assert abs(norm - 1.0) <= 4.0 * EPS * int(meta["m"]), meta


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(argv=argvs())
# A revival period that overflows float64 (2 pi / chi at chi = 5e-324).
@example(argv=["xptrace", "--chi", "5e-324", "--t-max", "0.5", "--samples", "3"])
# alpha^40 at |alpha| ~ 7e15: Python's complex power overflows to nan, not inf.
@example(argv=["moment", "--r", "0", "--s", "40", "--p", "40", "--q", "1e16", "--samples", "3"])
# Δx·Δp, which random draws rarely reach with exit 0: at nu = 5.2, and at
# nu = 5e7, where <x^2> - <x>^2 cancels all but about 8 digits.
@example(argv=["xptrace", "--observable", "dxdp", "--p", "2.83", "--q", "-1.5", "--samples", "5"])
@example(argv=["xptrace", "--observable", "dxdp", "--p", "1e4", "--q", "2.83", "--samples", "5"])
# <x²> + <p²> at nu near 5e31 and a fast Kerr rate.
@example(argv=["xptrace", "--observable", "p2", "--p", "1e16", "--q", "-1.5", "--chi", "60", "--samples", "5"])
def test_every_argv_ends_in_a_clean_exit(argv):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(warnings.catch_warnings())
            stack.enter_context(contextlib.redirect_stdout(stdout))
            stack.enter_context(contextlib.redirect_stderr(stderr))
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = cli.main(argv + ["-o", str(path)])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        if code:
            assert not path.exists(), argv
            return
        body = path.read_bytes()
        if not body.startswith(b"P5\n"):
            text = body.decode("ascii")
            _finite_text(text)
            _physical_bounds(text)
