"""Command-line front end: one declarative table drives every subcommand.

Eight subcommands cover the library surface. Each is one entry of
``_COMMANDS``: its handler, its help line and its argparse options, built
from shared groups (label, chi, time grid, spectrum, truncation, output).
The table builds the parser and dispatches ``run``. ``config_from_args``
splits the parsed flags into the ``RunConfig`` fields and the command's
``params``; a command declares exactly the flags its handler reads, and
``RunConfig`` refuses a field whose flag the command does not declare.
Defaults live only in the parser.

Numeric output goes to CSV files with a '#'-prefixed metadata block, a
header row, and values printed at 17 significant digits (lossless for
float64); carpets can also be written as binary PGM images. Nothing in any
output depends on wall clock, environment, or randomness, so identical
invocations produce byte-identical files.

Tables are written by ``carpets._table_text``, a NumPy kernel whose every
field is exactly ``format(v, ".17g")``. Its significands come from a
double-double product with a relative error below 2^-100. A cell it cannot
vouch for is formatted by ``format()`` itself: nan, inf, subnormals,
|v| outside [1e-280, 1e280), and rounding fractions within 1e-6 of 1/2. So
the output is the same as per-cell formatting, byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Mapping, NamedTuple

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


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: command, its parameters, grid, destination.

    Every field after ``params`` belongs to a flag; a command that does not
    declare that flag must leave the field at its default.
    """

    command: str
    params: Mapping[str, Any] = field(default_factory=dict)
    chi: float = DEFAULT_CHI
    t_min: float = 0.0
    t_max: float | None = None
    samples: int = 1001
    truncation: int | None = None
    output: str | None = None
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.samples < 2:
            raise ValueError("samples must be at least 2")
        if not (math.isfinite(self.chi) and self.chi > 0):
            raise ValueError(f"--chi must be finite and positive, got {self.chi:g}")
        for flag, value in (("--t-min", self.t_min), ("--t-max", self.t_max)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value:g}")
        if self.fmt not in ("csv", "pgm"):
            raise ValueError(f"unknown format {self.fmt!r}")
        declared = _COMMANDS[self.command].dests()
        for flag in _FLAG_FIELDS:
            if flag.name not in declared and getattr(self, flag.name) != flag.default:
                raise ValueError(f"{self.command} takes no {flag.name}")
        if self.truncation is not None and self.truncation < 0:
            raise ValueError("truncation must be >= 0")

    def output_path(self) -> str:
        return f"{self.command}.{self.fmt}" if self.output is None else self.output


#: The RunConfig fields that flags set; everything else parsed goes to params.
_FLAG_FIELDS = tuple(f for f in fields(RunConfig) if f.default is not MISSING)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _metadata(command: str, pairs: list[tuple[str, Any]]) -> list[str]:
    lines = [f"# command = {command}"]
    for key, value in pairs:
        if isinstance(value, float):
            value = _fmt(value)
        lines.append(f"# {key} = {value}")
    return lines


def _csv(command: str, pairs: list, columns: dict) -> str:
    """Metadata lines, a header row of the column names, then the table."""
    table = _table_text(list(columns.values()))
    return "\n".join(_metadata(command, pairs) + [",".join(columns)]) + "\n" + table


def _time_grid(config: RunConfig, period: float) -> np.ndarray:
    t_max = period if config.t_max is None else config.t_max
    if not t_max > config.t_min:
        raise ValueError("t_max must exceed t_min")
    if not math.isfinite(float(t_max) - float(config.t_min)):
        raise ValueError(
            f"the span --t-max - --t-min overflows float64 "
            f"({t_max:g} - {config.t_min:g})"
        )
    return np.linspace(config.t_min, t_max, config.samples)


_SPECTRA = ("kerr", "harmonic", "square_well")


def _spectrum(config: RunConfig) -> Spectrum:
    name = config.params["spectrum"]
    if name not in _SPECTRA:
        raise ValueError(f"unknown spectrum {name!r}")
    return getattr(Spectrum, name)(config.chi)


def _label(config: RunConfig) -> CoherentLabel:
    return CoherentLabel(config.params["p"], config.params["q"])


def _check_truncation(config: RunConfig, label: CoherentLabel) -> None:
    """Refuse an explicit truncation that cuts more than DEFAULT_TOLERANCE of the state."""
    if config.truncation is None:
        return
    tail = coherent_amplitudes(label, config.truncation).tail_mass
    if tail > DEFAULT_TOLERANCE:
        raise ValueError(
            f"truncation N = {config.truncation} cuts tail mass {tail:.3e} "
            f"of the state, above the tolerance {DEFAULT_TOLERANCE:g}; "
            f"raise --truncation or omit it"
        )


def _trace(
    config: RunConfig, period: float, times: np.ndarray, pairs: list, columns: dict
) -> tuple[str, str]:
    """Trace CSV: metadata ending in chi and revival_time; t, columns, chi_t_over_pi."""
    pairs = [*pairs, ("chi", config.chi), ("revival_time", period)]
    columns = {"t": times, **columns, "chi_t_over_pi": config.chi * times / math.pi}
    return f"revival_time = {_fmt(period)}", _csv(config.command, pairs, columns)


def _run_autocorr(config: RunConfig) -> tuple[str, bytes | str]:
    spectrum = _spectrum(config)
    label = _label(config)
    period = revival_time(spectrum)
    times = _time_grid(config, period)
    values = autocorrelation(label, spectrum, times)
    pairs = [("spectrum", spectrum.kind), ("p", label.p), ("q", label.q)]
    columns = {"re": values.real, "im": values.imag, "abs2": np.abs(values) ** 2}
    return _trace(config, period, times, pairs, columns)


def _run_moment(config: RunConfig) -> tuple[str, bytes | str]:
    label = _label(config)
    r, s = config.params["r"], config.params["s"]
    period = math.pi / config.chi
    times = _time_grid(config, period)
    values = np.asarray(
        ladder_moment(r, r + s, label, config.chi, times), dtype=np.complex128
    )
    pairs = [("r", r), ("s", s), ("p", label.p), ("q", label.q)]
    return _trace(config, period, times, pairs, {"re": values.real, "im": values.imag})


_OBSERVABLES: dict[str, Callable[[CoherentLabel, float, np.ndarray], np.ndarray]] = {
    "x": expect_x,
    "p": expect_p,
    "x2": expect_x2,
    "p2": expect_p2,
}


def _run_xptrace(config: RunConfig) -> tuple[str, bytes | str]:
    label = _label(config)
    name = config.params["observable"]
    period = math.pi / config.chi
    times = _time_grid(config, period)
    if name == "dxdp":
        product, _ = uncertainty_trace(label, config.chi, times)
        values = product.values.real
    elif name in _OBSERVABLES:
        values = np.asarray(_OBSERVABLES[name](label, config.chi, times))
    else:
        raise ValueError(f"unknown observable {name!r}")
    pairs = [("observable", name), ("p", label.p), ("q", label.q)]
    return _trace(config, period, times, pairs, {"value": values})


def _run_lx(config: RunConfig) -> tuple[str, bytes | str]:
    params = config.params
    label = TriModeLabel(
        CoherentLabel(0.0, 0.0),
        CoherentLabel(params["p2"], params["q2"]),
        CoherentLabel(params["p3"], params["q3"]),
    )
    period = math.pi / config.chi
    times = _time_grid(config, period)
    values = np.asarray(lx_moment(params["n"], label, config.chi, times))
    pairs = [(key, params[key]) for key in ("n", "p2", "q2", "p3", "q3")]
    return _trace(config, period, times, pairs, {"value": values})


def _run_carpet(config: RunConfig) -> tuple[str, bytes | str]:
    spectrum = _spectrum(config)
    label = _label(config)
    _check_truncation(config, label)
    period = revival_time(spectrum)
    grid = carpet(
        label,
        spectrum,
        t_min=config.t_min,
        t_max=config.t_max,
        truncation=config.truncation,
        **{key: config.params[key] for key in ("x_min", "x_max", "nx", "nt")},
    )
    note = f"revival_time = {_fmt(period)}"
    if config.fmt == "pgm":
        return note, grid_to_pgm(grid)
    pairs = [("spectrum", spectrum.kind), ("p", label.p), ("q", label.q)]
    pairs += [("chi", config.chi), ("revival_time", period)]
    pairs += [("nx", grid.nx), ("nt", grid.nt)]
    meta = "\n".join(_metadata("carpet", pairs))
    return note, meta + "\n" + grid_to_csv(grid, config.chi)


def _run_pendulum(config: RunConfig) -> tuple[str, bytes | str]:
    params = dict(config.params)
    at = params.pop("at")
    array = PendulumArray(**params)
    t = at * array.t_rev
    waves, strength = wave_count(array, t)   # refuses t outside [0, t_rev]
    positions = pendulum_positions(array, t)
    keys = ("count", "base_cycles", "t_rev", "amplitude")
    pairs = [(key, getattr(array, key)) for key in keys]
    pairs += [("t", t), ("waves", waves), ("strength", strength)]
    columns = {"j": np.arange(len(positions)), "x": positions}
    text = _csv("pendulum", pairs, columns)
    return f"revival_time = {_fmt(array.t_rev)}", text


def _run_talbot(config: RunConfig) -> tuple[str, bytes | str]:
    wavelength = config.params["wavelength"]
    grating = config.params["grating_period"]
    length = talbot_length(wavelength, grating)
    columns = {
        "wavelength": [wavelength],
        "grating_period": [grating],
        "talbot_length": [length],
        "paraxial_length": [paraxial_talbot_length(wavelength, grating)],
    }
    return f"talbot_length = {_fmt(length)}", _csv("talbot", [], columns)


def _run_cat(config: RunConfig) -> tuple[str, bytes | str]:
    label = _label(config)
    _check_truncation(config, label)
    m = config.params["m"]
    spectrum = Spectrum.kerr(config.chi)
    period = revival_time(spectrum)
    cat = decompose_fractional(label, m, spectrum, config.truncation)
    pairs = [("p", label.p), ("q", label.q), ("chi", config.chi), ("m", cat.m)]
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

    run: Callable[[RunConfig], tuple[str, bytes | str]]
    help: str
    options: tuple[_Option, ...]

    def dests(self) -> set[str]:
        """The names the options parse into, derived as argparse derives them."""
        return {
            kwargs.get("dest", flags[-1].lstrip("-").replace("-", "_"))
            for flags, kwargs in self.options
        }


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


def run(config: RunConfig) -> int:
    """Execute one configured command: write its file, print its summary.

    A file that cannot be opened or written is reported on stderr with exit 1.
    """
    note, payload = _COMMANDS[config.command].run(config)
    path = config.output_path()
    try:
        if isinstance(payload, bytes):
            with open(path, "wb") as handle:
                handle.write(payload)
        else:
            with open(path, "w", newline="\n") as handle:
                handle.write(payload)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    print(note)
    print(f"wrote {path}")
    return 0


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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Translate parsed flags into a RunConfig: its own fields, the rest as params."""
    params = dict(vars(args))
    command = params.pop("command")
    flags = {f.name: params.pop(f.name) for f in _FLAG_FIELDS if f.name in params}
    return RunConfig(command=command, params=params, **flags)


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return run(config_from_args(args))
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: {args.command} ran out of memory: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
