"""CLI fuzzer: any argv drawn from the command table ends in exit 0, 1 or 2.

A command and a subset of its flags are drawn from ``cli._COMMANDS``, with
values from pools of edge cases (signed zeros, subnormals, values near the
float64 limits, nan, inf) and a few ordinary ones. Sizes are capped so that
no draw allocates more than a few MB. Every run must exit 0, 1 or 2 with no
traceback and no RuntimeWarning; exits 1 and 2 write no file, and a file
written on exit 0 has only finite numbers in its metadata and its cells.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import pytest

from revivals import cli

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


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(argv=argvs())
# A revival period that overflows float64 (2 pi / chi at chi = 5e-324).
@example(argv=["xptrace", "--chi", "5e-324", "--t-max", "0.5", "--samples", "3"])
# alpha^40 at |alpha| ~ 7e15: Python's complex power overflows to nan, not inf.
@example(argv=["moment", "--r", "0", "--s", "40", "--p", "40", "--q", "1e16", "--samples", "3"])
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
            _finite_text(body.decode("ascii"))
