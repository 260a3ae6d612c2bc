"""Command-line front end: argv in, the bytes of one file out.

Eight subcommands cover the library surface. Each is one entry of
``_COMMANDS``: its handler, its help line and its argparse options, built
from shared groups (label, chi, time grid, spectrum, truncation, output).
The table builds the parser. ``main(argv)`` parses, checks the shared
flags, and hands the parsed namespace to the command's handler, which
returns a one-line summary and the file's bytes; ``main`` writes them in
one binary write. A command declares exactly the flags its handler reads,
and defaults live only in the parser.

A file is a CSV table (a '#'-prefixed metadata block, a header row, then
``%.17g`` fields from ``carpets._table_text``) or, for carpets, a binary
PGM image. Nothing in any output depends on wall clock, environment, or
randomness, so the same argv always writes the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Any, Callable, NamedTuple

import numpy as np

from .angular import TriModeLabel, lx_moment
from .carpets import _table_text, carpet, grid_to_csv, grid_to_pgm
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
from .spectra import Spectrum, decompose_fractional, revival_time

#: Default Kerr strength; makes the default revival time pi^2/10.
DEFAULT_CHI = 10.0 / math.pi


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _metadata(command: str, pairs: list[tuple[str, Any]]) -> bytes:
    lines = [f"# command = {command}\n"]
    for key, value in pairs:
        if isinstance(value, float):
            value = _fmt(value)
        lines.append(f"# {key} = {value}\n")
    return "".join(lines).encode()


def _csv(command: str, pairs: list, columns: dict) -> bytes:
    """Metadata lines, a header row of the column names, then the table."""
    header = (",".join(columns) + "\n").encode()
    return b"".join((_metadata(command, pairs), header, _table_text(list(columns.values()))))


def _time_grid(args: argparse.Namespace, period: float) -> np.ndarray:
    t_max = period if args.t_max is None else args.t_max
    if not t_max > args.t_min:
        raise ValueError("t_max must exceed t_min")
    if not math.isfinite(float(t_max) - float(args.t_min)):
        raise ValueError(
            f"the span --t-max - --t-min overflows float64 "
            f"({t_max:g} - {args.t_min:g})"
        )
    return np.linspace(args.t_min, t_max, args.samples)


_SPECTRA = ("kerr", "harmonic", "square_well")


def _spectrum(args: argparse.Namespace) -> Spectrum:
    return getattr(Spectrum, args.spectrum)(args.chi)


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


def _trace(
    args: argparse.Namespace, period: float, times: np.ndarray, pairs: list, columns: dict
) -> tuple[str, bytes]:
    """Trace CSV: metadata ending in chi and revival_time; t, columns, chi_t_over_pi."""
    pairs = [*pairs, ("chi", args.chi), ("revival_time", period)]
    columns = {"t": times, **columns, "chi_t_over_pi": args.chi * times / math.pi}
    return f"revival_time = {_fmt(period)}", _csv(args.command, pairs, columns)


def _run_autocorr(args: argparse.Namespace) -> tuple[str, bytes]:
    spectrum = _spectrum(args)
    label = _label(args)
    period = revival_time(spectrum)
    times = _time_grid(args, period)
    values = autocorrelation(label, spectrum, times)
    pairs = [("spectrum", spectrum.kind), ("p", label.p), ("q", label.q)]
    columns = {"re": values.real, "im": values.imag, "abs2": np.abs(values) ** 2}
    return _trace(args, period, times, pairs, columns)


def _run_moment(args: argparse.Namespace) -> tuple[str, bytes]:
    label = _label(args)
    r, s = args.r, args.s
    period = math.pi / args.chi
    times = _time_grid(args, period)
    values = np.asarray(
        ladder_moment(r, r + s, label, args.chi, times), dtype=np.complex128
    )
    pairs = [("r", r), ("s", s), ("p", label.p), ("q", label.q)]
    return _trace(args, period, times, pairs, {"re": values.real, "im": values.imag})


_OBSERVABLES: dict[str, Callable[[CoherentLabel, float, np.ndarray], np.ndarray]] = {
    "x": expect_x,
    "p": expect_p,
    "x2": expect_x2,
    "p2": expect_p2,
}


def _run_xptrace(args: argparse.Namespace) -> tuple[str, bytes]:
    label = _label(args)
    name = args.observable
    period = math.pi / args.chi
    times = _time_grid(args, period)
    if name == "dxdp":
        product, _ = uncertainty_trace(label, args.chi, times)
        values = product.values.real
    else:
        values = np.asarray(_OBSERVABLES[name](label, args.chi, times))
    pairs = [("observable", name), ("p", label.p), ("q", label.q)]
    return _trace(args, period, times, pairs, {"value": values})


def _run_lx(args: argparse.Namespace) -> tuple[str, bytes]:
    label = TriModeLabel(
        CoherentLabel(0.0, 0.0),
        CoherentLabel(args.p2, args.q2),
        CoherentLabel(args.p3, args.q3),
    )
    period = math.pi / args.chi
    times = _time_grid(args, period)
    values = np.asarray(lx_moment(args.n, label, args.chi, times))
    pairs = [(key, getattr(args, key)) for key in ("n", "p2", "q2", "p3", "q3")]
    return _trace(args, period, times, pairs, {"value": values})


def _run_carpet(args: argparse.Namespace) -> tuple[str, bytes]:
    spectrum = _spectrum(args)
    label = _label(args)
    _check_truncation(args, label)
    period = revival_time(spectrum)
    grid = carpet(
        label,
        spectrum,
        t_min=args.t_min,
        t_max=args.t_max,
        truncation=args.truncation,
        **{key: getattr(args, key) for key in ("x_min", "x_max", "nx", "nt")},
    )
    note = f"revival_time = {_fmt(period)}"
    if args.fmt == "pgm":
        return note, grid_to_pgm(grid)
    pairs = [("spectrum", spectrum.kind), ("p", label.p), ("q", label.q)]
    pairs += [("chi", args.chi), ("revival_time", period)]
    pairs += [("nx", grid.nx), ("nt", grid.nt)]
    return note, _metadata("carpet", pairs) + grid_to_csv(grid, args.chi)


def _run_pendulum(args: argparse.Namespace) -> tuple[str, bytes]:
    keys = ("count", "base_cycles", "t_rev", "amplitude")
    array = PendulumArray(**{key: getattr(args, key) for key in keys})
    t = args.at * array.t_rev
    waves, strength = wave_count(array, t)   # refuses t outside [0, t_rev]
    positions = pendulum_positions(array, t)
    pairs = [(key, getattr(array, key)) for key in keys]
    pairs += [("t", t), ("waves", waves), ("strength", strength)]
    columns = {"j": np.arange(len(positions)), "x": positions}
    text = _csv("pendulum", pairs, columns)
    return f"revival_time = {_fmt(array.t_rev)}", text


def _run_talbot(args: argparse.Namespace) -> tuple[str, bytes]:
    wavelength = args.wavelength
    grating = args.grating_period
    length = talbot_length(wavelength, grating)
    columns = {
        "wavelength": [wavelength],
        "grating_period": [grating],
        "talbot_length": [length],
        "paraxial_length": [paraxial_talbot_length(wavelength, grating)],
    }
    return f"talbot_length = {_fmt(length)}", _csv("talbot", [], columns)


def _run_cat(args: argparse.Namespace) -> tuple[str, bytes]:
    label = _label(args)
    _check_truncation(args, label)
    spectrum = Spectrum.kerr(args.chi)
    period = revival_time(spectrum)
    cat = decompose_fractional(label, args.m, spectrum, args.truncation)
    pairs = [("p", label.p), ("q", label.q), ("chi", args.chi), ("m", cat.m)]
    pairs += [("time", cat.time), ("fidelity", cat.fidelity), ("revival_time", period)]
    columns = {
        "component": np.arange(cat.m),
        "coeff_re": cat.coefficients.real,
        "coeff_im": cat.coefficients.imag,
        "label_p": [comp.p for comp in cat.component_labels],
        "label_q": [comp.q for comp in cat.component_labels],
    }
    text = _csv("cat", pairs, columns)
    return f"revival_time = {_fmt(period)}", text


#: One argparse option: its flags and the keywords of add_argument.
_Option = tuple[tuple[str, ...], dict[str, Any]]


def _opt(*flags: str, **kwargs: Any) -> _Option:
    return flags, kwargs


class _Command(NamedTuple):
    """One subcommand: its handler, its help line and its options."""

    run: Callable[[argparse.Namespace], tuple[str, bytes]]
    help: str
    options: tuple[_Option, ...]


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
_SPECTRUM = (_opt("--spectrum", choices=_SPECTRA, default="kerr"),)
_TRUNCATION = (
    _opt("--truncation", type=int, default=None, help="Fock cutoff N (default: auto)"),
)
_OUTPUT = (_opt("-o", "--output", default=None),)
#: The options every time trace shares.
_TRACE = _CHI + _TIMES + _SAMPLES + _OUTPUT

_COMMANDS: dict[str, _Command] = {
    "autocorr": _Command(_run_autocorr, "autocorrelation trace", (
        *_LABEL,
        *_TRACE,
        *_SPECTRUM,
    )),
    "moment": _Command(_run_moment, "normal-ordered ladder moment trace", (
        _opt("--r", type=int, required=True),
        _opt("--s", type=int, required=True),
        *_LABEL,
        *_TRACE,
    )),
    "xptrace": _Command(_run_xptrace, "quadrature moment trace", (
        _opt("--observable", choices=(*_OBSERVABLES, "dxdp"), default="x"),
        *_LABEL,
        *_TRACE,
    )),
    "lx": _Command(_run_lx, "angular-momentum moment trace", (
        _opt("--n", type=int, default=1, help="power of Lx, 1..40"),
        *(_opt(f"--{key}", type=float, default=1.0) for key in ("p2", "q2", "p3", "q3")),
        *_TRACE,
    )),
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
    )),
    "pendulum": _Command(_run_pendulum, "pendulum-wave snapshot", (
        _opt("--count", type=int, default=100),
        _opt("--base-cycles", type=int, default=30),
        _opt("--t-rev", type=float, default=1.0),
        _opt("--amplitude", type=float, default=1.0),
        _opt("--at", type=float, default=0.0, help="snapshot time as a fraction of t_rev"),
        *_OUTPUT,
    )),
    "talbot": _Command(_run_talbot, "grating self-imaging length", (
        _opt("--wavelength", type=float, required=True),
        _opt("--grating-period", type=float, required=True),
        *_OUTPUT,
    )),
    "cat": _Command(_run_cat, "fractional-revival cat decomposition", (
        _opt("--m", type=int, required=True, help="number of components"),
        *_LABEL,
        *_CHI,
        *_TRUNCATION,
        *_OUTPUT,
    )),
}


def build_parser() -> argparse.ArgumentParser:
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


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main() uses; built once per process, since parsing leaves it unchanged."""
    return build_parser()


def _check_flags(args: argparse.Namespace) -> None:
    """The checks on the shared flags that argparse does not make; main exits 1 on each."""
    flags = vars(args)
    if flags.get("samples", 2) < 2:
        raise ValueError("samples must be at least 2")
    chi = flags.get("chi", DEFAULT_CHI)
    if not (math.isfinite(chi) and chi > 0):
        raise ValueError(f"--chi must be finite and positive, got {chi:g}")
    for flag, value in (("--t-min", flags.get("t_min")), ("--t-max", flags.get("t_max"))):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value:g}")
    if flags.get("truncation") is not None and flags["truncation"] < 0:
        raise ValueError("truncation must be >= 0")


def main(argv: list[str] | None = None) -> int:
    """Run one command from argv: write its file, print its summary.

    Exit 1 on a numeric or domain error, an allocation that does not fit or
    a file that cannot be written; argparse exits 2 on a usage error.
    """
    args = _shared_parser().parse_args(argv)
    try:
        _check_flags(args)
        note, payload = _COMMANDS[args.command].run(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {args.command} ran out of memory: {exc}", file=sys.stderr)
        return 1
    path = args.output
    if path is None:
        path = f"{args.command}.{vars(args).get('fmt', 'csv')}"
    try:
        with open(path, "wb") as handle:
            handle.write(payload)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    print(note)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
