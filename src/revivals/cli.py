"""Command-line front end: argv in, the bytes of one file out.

Eight subcommands cover the library surface. Each is one entry of
``_COMMANDS``: its handler, its help line and its argparse options, built
from shared groups (label, chi, time grid, spectrum, truncation, output).
The entry also declares the command's metadata keys, written after
``# command`` in order. ``main(argv)`` parses, checks the flags, and
hands the namespace to the handler, which computes all it needs and returns
the values and the file's body as bytes-like chunks (a table's header and
rows, formed as they are written, or a PGM image's header and its uint8
level array, written without a copy). Only then does ``main`` open the file,
write the metadata, each key from those values or else from the flags, the
chunks and the summary line, the first value. A command declares exactly
the flags its handler reads, and defaults live only in the parser.

The four time traces share one handler, ``_run_trace``, bound to a function
giving the command's value columns. Its period is ``revival_time``, and its
metadata lists the command's own flags, then chi and revival_time. Phases
chi E t that overflow float64 are refused by the library
(``spectra._phase_angles``), and so is a chi t column that would, before
any column is built.

A file is a CSV table (a '#'-prefixed metadata block, a header row, then
``%.17g`` fields, all formed by ``revivals._text``) or, for carpets, a
binary PGM image. Nothing in any output depends on wall clock, environment,
or randomness, so the same argv always writes the same bytes.
"""

from __future__ import annotations

__all__ = ["main"]

import argparse
import contextlib
import math
import os
import sys
from functools import cache, partial
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from ._text import fmt, metadata, table
from .angular import TriModeLabel, lx_moment
from .carpets import _csv_chunks, _pgm_parts, carpet
from .classical import (
    PendulumArray,
    paraxial_talbot_length,
    pendulum_positions,
    talbot_length,
    wave_count,
)
from .fock import DEFAULT_TOLERANCE, CoherentLabel, coherent_amplitudes
from .moments import (
    autocorrelation,
    expect_p,
    expect_p2,
    expect_x,
    expect_x2,
    ladder_moment,
    uncertainty_trace,
)
from .ordering import MAX_INTERFERENCE_POWER
from .spectra import _KINDS, Spectrum, _phase_angles, decompose_fractional, revival_time

#: Default Kerr strength; makes the default revival time pi^2/10.
DEFAULT_CHI = 10.0 / math.pi

#: Largest magnitude of an integer flag: the most complex128 values one array holds.
_INT_LIMIT = sys.maxsize // 16


def _spectrum(args: argparse.Namespace) -> Spectrum:
    """The --spectrum kind at rate --chi; Kerr for a command without --spectrum."""
    return Spectrum(_KINDS[vars(args).get("spectrum", "kerr")], args.chi)


def _label(args: argparse.Namespace) -> CoherentLabel:
    return CoherentLabel(args.p, args.q)


def _check_truncation(args: argparse.Namespace, label: CoherentLabel) -> None:
    """Refuse an explicit truncation that cuts more than DEFAULT_TOLERANCE of the state."""
    if args.truncation is None:
        return
    tail = coherent_amplitudes(label, args.truncation).tail_mass
    if tail > DEFAULT_TOLERANCE:
        raise ValueError(
            f"truncation N = {args.truncation} cuts tail mass {tail:.3e} "
            f"of the state, above the tolerance {DEFAULT_TOLERANCE:g}; "
            f"raise --truncation or omit it"
        )


def _autocorr_values(args: argparse.Namespace, spectrum: Spectrum, times: np.ndarray) -> dict:
    values = autocorrelation(_label(args), spectrum, times)
    return {"re": values.real, "im": values.imag, "abs2": np.abs(values) ** 2}


def _moment_values(args: argparse.Namespace, spectrum: Spectrum, times: np.ndarray) -> dict:
    values = ladder_moment(args.r, args.r + args.s, _label(args), args.chi, times)
    return {"re": values.real, "im": values.imag}


_OBSERVABLES: dict[str, Callable[[CoherentLabel, float, np.ndarray], np.ndarray]] = {
    "x": expect_x,
    "p": expect_p,
    "x2": expect_x2,
    "p2": expect_p2,
}


def _xptrace_values(args: argparse.Namespace, spectrum: Spectrum, times: np.ndarray) -> dict:
    label = _label(args)
    if args.observable == "dxdp":
        dx, dp = uncertainty_trace(label, args.chi, times)
        return {"value": dx * dp}
    return {"value": _OBSERVABLES[args.observable](label, args.chi, times)}


def _lx_values(args: argparse.Namespace, spectrum: Spectrum, times: np.ndarray) -> dict:
    label = TriModeLabel(
        CoherentLabel(0.0, 0.0),
        CoherentLabel(args.p2, args.q2),
        CoherentLabel(args.p3, args.q3),
    )
    return {"value": lx_moment(args.n, label, args.chi, times)}


def _run_trace(values: Callable[..., dict], args: argparse.Namespace) -> tuple[dict, Iterable[bytes]]:
    """The period, and the columns t, the command's values and chi_t_over_pi."""
    spectrum = _spectrum(args)
    period = revival_time(spectrum)
    t_max = period if args.t_max is None else args.t_max
    if not t_max > args.t_min:
        raise ValueError("t_max must exceed t_min")
    if not math.isfinite(float(t_max) - float(args.t_min)):
        raise ValueError(f"the span --t-max - --t-min overflows float64 ({t_max:g} - {args.t_min:g})")
    times = np.linspace(args.t_min, t_max, args.samples)
    chi_t = _phase_angles(args.chi, 1.0, times)   # refused before any column if chi t overflows
    columns = {"t": times, **values(args, spectrum, times)}
    columns["chi_t_over_pi"] = chi_t / math.pi
    return {"revival_time": period}, table(columns)


def _run_carpet(args: argparse.Namespace) -> tuple[dict, Iterable[bytes]]:
    spectrum = _spectrum(args)
    label = _label(args)
    _check_truncation(args, label)
    period = revival_time(spectrum)
    keys = ("x_min", "x_max", "nx", "t_min", "t_max", "nt", "truncation")
    grid = carpet(label, spectrum, **{key: getattr(args, key) for key in keys})
    body = _pgm_parts(grid) if args.fmt == "pgm" else _csv_chunks(grid, args.chi)
    return {"revival_time": period}, body


def _run_pendulum(args: argparse.Namespace) -> tuple[dict, Iterable[bytes]]:
    keys = ("count", "base_cycles", "t_rev", "amplitude")
    array = PendulumArray(**{key: getattr(args, key) for key in keys})
    t = args.at * array.t_rev
    waves, strength = wave_count(array, t)   # refuses t outside [0, t_rev]
    positions = pendulum_positions(array, t)
    values = {"revival_time": array.t_rev, "t": t, "waves": waves, "strength": strength}
    return values, table({"j": np.arange(len(positions)), "x": positions})


def _run_talbot(args: argparse.Namespace) -> tuple[dict, Iterable[bytes]]:
    wavelength, grating = args.wavelength, args.grating_period
    length = talbot_length(wavelength, grating)
    columns = {"wavelength": [wavelength], "grating_period": [grating], "talbot_length": [length]}
    columns["paraxial_length"] = [paraxial_talbot_length(wavelength, grating)]
    return {"talbot_length": length}, table(columns)


def _run_cat(args: argparse.Namespace) -> tuple[dict, Iterable[bytes]]:
    label = _label(args)
    _check_truncation(args, label)
    spectrum = Spectrum.kerr(args.chi)
    period = revival_time(spectrum)
    cat = decompose_fractional(label, args.m, spectrum, args.truncation)
    columns = {
        "component": np.arange(cat.m),
        "coeff_re": cat.coefficients.real,
        "coeff_im": cat.coefficients.imag,
        "label_p": [comp.p for comp in cat.component_labels],
        "label_q": [comp.q for comp in cat.component_labels],
    }
    return {"revival_time": period, "time": cat.time, "fidelity": cat.fidelity}, table(columns)


#: One argparse option: its flags and the keywords of add_argument.
_Option = tuple[tuple[str, ...], dict[str, Any]]


def _opt(*flags: str, **kwargs: Any) -> _Option:
    return flags, kwargs


class _Command(NamedTuple):
    """One subcommand: its handler, its help line, its options and its metadata keys."""

    run: Callable[[argparse.Namespace], tuple[dict, Iterable[bytes]]]
    help: str
    options: tuple[_Option, ...]
    metadata: tuple[str, ...]


_LABEL = (
    _opt("--p", type=float, default=1.0, help="initial <x>"),
    _opt("--q", type=float, default=1.0, help="initial <p>"),
)
_CHI = (_opt("--chi", type=float, default=DEFAULT_CHI),)
_TIMES = (
    _opt("--t-min", type=float, default=0.0),
    _opt("--t-max", type=float, default=None, help="default: one revival period"),
)
_SAMPLES = (_opt("--samples", type=int, default=1001),)
_SPECTRUM = (_opt("--spectrum", choices=tuple(_KINDS), default="kerr"),)
_TRUNCATION = (
    _opt("--truncation", type=int, default=None, help="Fock cutoff N (default: auto)"),
)
_OUTPUT = (_opt("-o", "--output", default=None),)
#: The options every time trace shares.
_TRACE = _CHI + _TIMES + _SAMPLES + _OUTPUT
#: The metadata keys that follow the label of every Fock-space command but cat.
_PERIOD = ("chi", "revival_time")

_COMMANDS: dict[str, _Command] = {
    "autocorr": _Command(partial(_run_trace, _autocorr_values), "autocorrelation trace", (
        *_SPECTRUM,
        *_LABEL,
        *_TRACE,
    ), ("spectrum", "p", "q", *_PERIOD)),
    "moment": _Command(partial(_run_trace, _moment_values), "normal-ordered ladder moment trace", (
        _opt("--r", type=int, required=True),
        _opt("--s", type=int, required=True),
        *_LABEL,
        *_TRACE,
    ), ("r", "s", "p", "q", *_PERIOD)),
    "xptrace": _Command(partial(_run_trace, _xptrace_values), "quadrature moment trace", (
        _opt("--observable", choices=(*_OBSERVABLES, "dxdp"), default="x"),
        *_LABEL,
        *_TRACE,
    ), ("observable", "p", "q", *_PERIOD)),
    "lx": _Command(partial(_run_trace, _lx_values), "angular-momentum moment trace", (
        _opt("--n", type=int, default=1, help=f"power of Lx, 1..{MAX_INTERFERENCE_POWER}"),
        *(_opt(f"--{key}", type=float, default=1.0) for key in ("p2", "q2", "p3", "q3")),
        *_TRACE,
    ), ("n", "p2", "q2", "p3", "q3", *_PERIOD)),
    "carpet": _Command(_run_carpet, "space-time density grid", (
        *_LABEL,
        *_CHI,
        *_TIMES,
        *_OUTPUT,
        *_TRUNCATION,
        *_SPECTRUM,
        _opt("--nx", type=int, default=400),
        _opt("--nt", type=int, default=400),
        _opt("--x-min", type=float, default=None),
        _opt("--x-max", type=float, default=None),
        _opt("--format", dest="fmt", choices=("csv", "pgm"), default="csv"),
    ), ("spectrum", "p", "q", *_PERIOD, "nx", "nt")),
    "pendulum": _Command(_run_pendulum, "pendulum-wave snapshot", (
        _opt("--count", type=int, default=100),
        _opt("--base-cycles", type=int, default=30),
        _opt("--t-rev", type=float, default=1.0),
        _opt("--amplitude", type=float, default=1.0),
        _opt("--at", type=float, default=0.0, help="snapshot time as a fraction of t_rev"),
        *_OUTPUT,
    ), ("count", "base_cycles", "t_rev", "amplitude", "t", "waves", "strength")),
    "talbot": _Command(_run_talbot, "grating self-imaging length", (
        _opt("--wavelength", type=float, required=True),
        _opt("--grating-period", type=float, required=True),
        *_OUTPUT,
    ), ()),
    "cat": _Command(_run_cat, "fractional-revival cat decomposition", (
        _opt("--m", type=int, required=True, help="number of components"),
        *_LABEL,
        *_CHI,
        *_TRUNCATION,
        *_OUTPUT,
    ), ("p", "q", "chi", "m", "time", "fidelity", "revival_time")),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command; built once per process, as parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="revivals",
        description="Coherent-state revival traces, carpets, and analogs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        for flags, kwargs in command.options:
            subparser.add_argument(*flags, **kwargs)
    return parser


def _check_flags(args: argparse.Namespace) -> None:
    """The checks on the flags that argparse does not make; main exits 1 on each."""
    flags = vars(args)
    for key, value in flags.items():
        # --truncation is refused with its nu where the level count is checked.
        if isinstance(value, int) and key != "truncation" and abs(value) > _INT_LIMIT:
            from decimal import Decimal   # formats any int, even one past the largest float
            raise ValueError(
                f"--{key.replace('_', '-')} = {Decimal(value):.4g} lies beyond +-{_INT_LIMIT} "
                "(sys.maxsize // 16), the most complex128 values one array holds"
            )
    if flags.get("samples", 2) < 2:
        raise ValueError("samples must be at least 2")
    chi = flags.get("chi", DEFAULT_CHI)
    if not (math.isfinite(chi) and chi > 0):
        raise ValueError(f"--chi must be finite and positive, got {chi:g}")
    for flag, value in (("--t-min", flags.get("t_min")), ("--t-max", flags.get("t_max"))):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value:g}")


def main(argv: list[str] | None = None) -> int:
    """Run one command from argv: write its file, print its summary.

    A CSV file starts with the command's metadata, "# key = value" lines,
    floats as %.17g; a PGM image has none. Exit 1 on a numeric or domain
    error, an allocation that does not fit or a file that cannot be
    written, which leaves no new file; argparse exits 2 on a usage error.
    """
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    kind = getattr(args, "fmt", "csv")
    path = f"{args.command}.{kind}" if args.output is None else args.output
    created = False   # a path that existed before the open is never removed
    try:
        _check_flags(args)
        values, chunks = command.run(args)
        fields = {**vars(args), **values}
        created = not os.path.lexists(path)
        with open(path, "wb") as handle:
            if kind == "csv":
                handle.write(metadata((key, fields[key]) for key in ("command", *command.metadata)))
            handle.writelines(chunks)
    except (ValueError, ArithmeticError) as exc:
        message = str(exc)
    except MemoryError as exc:
        message = f"{args.command} ran out of memory: {exc}"
    except OSError as exc:
        message = f"cannot write {path}: {exc.strerror or exc}"
    else:
        summary, value = next(iter(values.items()))
        print(f"{summary} = {fmt(value)}")
        print(f"wrote {path}")
        return 0
    if created:
        with contextlib.suppress(OSError):
            os.remove(path)
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
