"""Command-line front end: traces, grids, snapshots, and burst detection.

Eight subcommands cover the library surface. Numeric output goes to CSV
files with a '#'-prefixed metadata block, a header row, and values printed
at 17 significant digits (lossless for float64); carpets can also be
written as binary PGM images. Nothing in any output depends on wall clock,
environment, or randomness, so identical invocations produce byte-identical
files.

The burst detector quantifies "a signature is visible at t = (j/k) T_rev":
for every reduced fraction it compares the mean squared deviation from the
global trace mean inside a narrow window around j/k T_rev against the same
measure over the part of the trace belonging to no window. Flat traces
report zero everywhere; a window counts as detected when its ratio reaches
the threshold.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Mapping

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
    ObservableTrace,
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
DEFAULT_WINDOW_FRAC = 1.0 / 50.0
DEFAULT_THRESHOLD = 10.0

COMMANDS = (
    "autocorr",
    "moment",
    "xptrace",
    "lx",
    "carpet",
    "pendulum",
    "talbot",
    "cat",
)

#: Commands that build a Fock state and so take an explicit --truncation.
_TRUNCATING_COMMANDS = ("carpet", "cat")


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: command, its parameters, grid, destination."""

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
        if self.command not in COMMANDS:
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
        if self.truncation is not None:
            if self.command not in _TRUNCATING_COMMANDS:
                raise ValueError(f"{self.command} takes no truncation")
            if self.truncation < 0:
                raise ValueError("truncation must be >= 0")

    def output_path(self) -> str:
        if self.output is not None:
            return self.output
        suffix = "pgm" if self.fmt == "pgm" else "csv"
        return f"{self.command}.{suffix}"


@dataclass(frozen=True)
class BurstReport:
    """Variance ratios per fractional-revival window of one trace."""

    windows: tuple[tuple[float, float], ...]
    threshold: float
    fractions: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        if any(ratio < 0.0 for _, ratio in self.windows):
            raise ValueError("variance ratios cannot be negative")
        if self.fractions and len(self.fractions) != len(self.windows):
            raise ValueError("fractions must align with windows")

    def detected(self) -> tuple[float, ...]:
        """Window centers whose ratio reaches the threshold."""
        return tuple(c for c, r in self.windows if r >= self.threshold)

    def detected_fractions(self) -> tuple[Fraction, ...]:
        return tuple(
            f
            for f, (_, r) in zip(self.fractions, self.windows)
            if r >= self.threshold
        )

    def ratio_at(self, fraction: Fraction) -> float:
        for f, (_, ratio) in zip(self.fractions, self.windows):
            if f == fraction:
                return ratio
        raise KeyError(f"no window at {fraction}")


def detect_bursts(
    trace: ObservableTrace,
    revival_time: float,
    k_max: int,
    window_frac: float = DEFAULT_WINDOW_FRAC,
    threshold: float = DEFAULT_THRESHOLD,
) -> BurstReport:
    """Score every reduced fraction j/k (k <= k_max) window of the trace.

    The score of a window centered at (j/k) * revival_time is the mean
    squared deviation from the global trace mean inside the window divided
    by the same quantity over the complement of all windows. Deviations are
    measured from the one global mean, not per-window means: a fractional
    revival announces itself as an excursion of the trace away from its
    plateau, and that excursion must not be absorbed into a local mean.
    Ratio conventions: 0/0 -> 0 (flat trace), positive/0 -> inf.
    """
    times = trace.times
    values = trace.values
    if times.size == 0:
        raise ValueError("empty trace")
    if not revival_time > 0:
        raise ValueError("revival_time must be positive")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if not (0.0 < window_frac < 1.0):
        raise ValueError("window_frac must lie in (0, 1)")
    span = 1e-9 * revival_time
    if times[0] > span or times[-1] < revival_time - span:
        raise ValueError("trace must cover [0, revival_time]")

    fractions = sorted(
        {Fraction(j, k) for k in range(1, k_max + 1) for j in range(1, k + 1)}
    )
    half = 0.5 * window_frac * revival_time
    deviations = np.abs(values - np.mean(values)) ** 2
    in_any = np.zeros(times.shape, dtype=bool)
    masks = []
    for frac in fractions:
        center = float(frac) * revival_time
        mask = np.abs(times - center) <= half
        masks.append(mask)
        in_any |= mask
    outside = ~in_any
    out_level = float(np.mean(deviations[outside])) if outside.any() else 0.0

    windows = []
    for frac, mask in zip(fractions, masks):
        in_level = float(np.mean(deviations[mask])) if mask.any() else 0.0
        if out_level > 0.0:
            ratio = in_level / out_level
        else:
            ratio = 0.0 if in_level == 0.0 else math.inf
        windows.append((float(frac) * revival_time, ratio))
    return BurstReport(
        windows=tuple(windows),
        threshold=threshold,
        fractions=tuple(fractions),
    )


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _metadata(command: str, pairs: list[tuple[str, Any]]) -> list[str]:
    lines = [f"# command = {command}"]
    for key, value in pairs:
        if isinstance(value, float):
            value = _fmt(value)
        lines.append(f"# {key} = {value}")
    return lines


def _csv_text(metadata: list[str], header: list[str], table: str) -> str:
    return "\n".join(metadata + [",".join(header)]) + "\n" + table


def _time_grid(config: RunConfig, period: float | None) -> np.ndarray:
    t_max = config.t_max
    if t_max is None:
        if period is None:
            raise ValueError("aperiodic spectrum: pass --t-max explicitly")
        t_max = period
    if not t_max > config.t_min:
        raise ValueError("t_max must exceed t_min")
    if not math.isfinite(float(t_max) - float(config.t_min)):
        raise ValueError(
            f"the span --t-max - --t-min overflows float64 "
            f"({t_max:g} - {config.t_min:g})"
        )
    return np.linspace(config.t_min, t_max, config.samples)


def _spectrum(config: RunConfig) -> Spectrum:
    name = config.params.get("spectrum", "kerr")
    factory = {
        "kerr": Spectrum.kerr,
        "harmonic": Spectrum.harmonic,
        "square_well": Spectrum.square_well,
    }.get(name)
    if factory is None:
        raise ValueError(f"unknown spectrum {name!r}")
    return factory(config.chi)


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


def _trace_table(times: np.ndarray, columns: list[np.ndarray], chi: float) -> str:
    return _table_text([times, *columns, chi * times / math.pi])


def _run_autocorr(config: RunConfig) -> tuple[str, bytes | str]:
    spectrum = _spectrum(config)
    label = _label(config)
    period = revival_time(spectrum)
    times = _time_grid(config, period)
    values = autocorrelation(label, spectrum, times)
    meta = _metadata(
        "autocorr",
        [
            ("spectrum", spectrum.kind),
            ("p", label.p),
            ("q", label.q),
            ("chi", config.chi),
            ("revival_time", period if period is not None else "aperiodic"),
        ],
    )
    table = _trace_table(
        times, [values.real, values.imag, np.abs(values) ** 2], config.chi
    )
    text = _csv_text(meta, ["t", "re", "im", "abs2", "chi_t_over_pi"], table)
    return f"revival_time = {_fmt(period) if period is not None else 'aperiodic'}", text


def _run_moment(config: RunConfig) -> tuple[str, bytes | str]:
    label = _label(config)
    r, s = config.params["r"], config.params["s"]
    period = math.pi / config.chi
    times = _time_grid(config, period)
    values = np.asarray(
        ladder_moment(r, r + s, label, config.chi, times), dtype=np.complex128
    )
    meta = _metadata(
        "moment",
        [
            ("r", r),
            ("s", s),
            ("p", label.p),
            ("q", label.q),
            ("chi", config.chi),
            ("revival_time", period),
        ],
    )
    table = _trace_table(times, [values.real, values.imag], config.chi)
    text = _csv_text(meta, ["t", "re", "im", "chi_t_over_pi"], table)
    return f"revival_time = {_fmt(period)}", text


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
    meta = _metadata(
        "xptrace",
        [
            ("observable", name),
            ("p", label.p),
            ("q", label.q),
            ("chi", config.chi),
            ("revival_time", period),
        ],
    )
    table = _trace_table(times, [values], config.chi)
    text = _csv_text(meta, ["t", "value", "chi_t_over_pi"], table)
    return f"revival_time = {_fmt(period)}", text


def _run_lx(config: RunConfig) -> tuple[str, bytes | str]:
    n = config.params["n"]
    label = TriModeLabel(
        CoherentLabel(0.0, 0.0),
        CoherentLabel(config.params["p2"], config.params["q2"]),
        CoherentLabel(config.params["p3"], config.params["q3"]),
    )
    period = math.pi / config.chi
    times = _time_grid(config, period)
    values = np.asarray(lx_moment(n, label, config.chi, times))
    meta = _metadata(
        "lx",
        [
            ("n", n),
            ("p2", label.mode_b.p),
            ("q2", label.mode_b.q),
            ("p3", label.mode_c.p),
            ("q3", label.mode_c.q),
            ("chi", config.chi),
            ("revival_time", period),
        ],
    )
    table = _trace_table(times, [values], config.chi)
    text = _csv_text(meta, ["t", "value", "chi_t_over_pi"], table)
    return f"revival_time = {_fmt(period)}", text


def _run_carpet(config: RunConfig) -> tuple[str, bytes | str]:
    spectrum = _spectrum(config)
    label = _label(config)
    _check_truncation(config, label)
    period = revival_time(spectrum)
    grid = carpet(
        label,
        spectrum,
        x_min=config.params.get("x_min"),
        x_max=config.params.get("x_max"),
        nx=config.params.get("nx", 400),
        t_min=config.t_min,
        t_max=config.t_max if config.t_max is not None else period,
        nt=config.params.get("nt", 400),
        truncation=config.truncation,
    )
    note = f"revival_time = {_fmt(period) if period is not None else 'aperiodic'}"
    if config.fmt == "pgm":
        return note, grid_to_pgm(grid)
    meta = _metadata(
        "carpet",
        [
            ("spectrum", spectrum.kind),
            ("p", label.p),
            ("q", label.q),
            ("chi", config.chi),
            ("revival_time", period if period is not None else "aperiodic"),
            ("nx", grid.nx),
            ("nt", grid.nt),
        ],
    )
    return note, "\n".join(meta) + "\n" + grid_to_csv(grid, config.chi)


def _run_pendulum(config: RunConfig) -> tuple[str, bytes | str]:
    array = PendulumArray(
        count=config.params.get("count", 100),
        base_cycles=config.params.get("base_cycles", 30),
        t_rev=config.params.get("t_rev", 1.0),
        amplitude=config.params.get("amplitude", 1.0),
    )
    at = config.params.get("at", 0.0)
    t = at * array.t_rev
    positions = pendulum_positions(array, t)
    waves, strength = wave_count(array, t)
    meta = _metadata(
        "pendulum",
        [
            ("count", array.count),
            ("base_cycles", array.base_cycles),
            ("t_rev", array.t_rev),
            ("amplitude", array.amplitude),
            ("t", t),
            ("waves", waves),
            ("strength", strength),
        ],
    )
    table = _table_text([np.arange(len(positions)), positions], integer_columns=1)
    text = _csv_text(meta, ["j", "x"], table)
    return f"revival_time = {_fmt(array.t_rev)}", text


def _run_talbot(config: RunConfig) -> tuple[str, bytes | str]:
    wavelength = config.params["wavelength"]
    period = config.params["grating_period"]
    length = talbot_length(wavelength, period)
    paraxial = paraxial_talbot_length(wavelength, period)
    meta = _metadata("talbot", [])
    table = _table_text([[wavelength], [period], [length], [paraxial]])
    text = _csv_text(
        meta,
        ["wavelength", "grating_period", "talbot_length", "paraxial_length"],
        table,
    )
    return f"talbot_length = {_fmt(length)}", text


def _run_cat(config: RunConfig) -> tuple[str, bytes | str]:
    label = _label(config)
    _check_truncation(config, label)
    m = config.params["m"]
    spectrum = Spectrum.kerr(config.chi)
    period = revival_time(spectrum)
    cat = decompose_fractional(label, m, spectrum, config.truncation)
    meta = _metadata(
        "cat",
        [
            ("p", label.p),
            ("q", label.q),
            ("chi", config.chi),
            ("m", cat.m),
            ("time", cat.time),
            ("fidelity", cat.fidelity),
            ("revival_time", period),
        ],
    )
    table = _table_text(
        [
            np.arange(cat.m),
            cat.coefficients.real,
            cat.coefficients.imag,
            [comp.p for comp in cat.component_labels],
            [comp.q for comp in cat.component_labels],
        ],
        integer_columns=1,
    )
    text = _csv_text(
        meta,
        ["component", "coeff_re", "coeff_im", "label_p", "label_q"],
        table,
    )
    return f"revival_time = {_fmt(period)}", text


_HANDLERS: dict[str, Callable[[RunConfig], tuple[str, bytes | str]]] = {
    "autocorr": _run_autocorr,
    "moment": _run_moment,
    "xptrace": _run_xptrace,
    "lx": _run_lx,
    "carpet": _run_carpet,
    "pendulum": _run_pendulum,
    "talbot": _run_talbot,
    "cat": _run_cat,
}


def run(config: RunConfig) -> int:
    """Execute one configured command: write its file, print its summary."""
    note, payload = _HANDLERS[config.command](config)
    path = config.output_path()
    if isinstance(payload, bytes):
        with open(path, "wb") as handle:
            handle.write(payload)
    else:
        with open(path, "w", newline="\n") as handle:
            handle.write(payload)
    print(note)
    print(f"wrote {path}")
    return 0


def _add_label_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=float, default=1.0, help="initial <x>")
    parser.add_argument("--q", type=float, default=1.0, help="initial <p>")


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chi", type=float, default=DEFAULT_CHI)
    parser.add_argument("--t-min", type=float, default=0.0)
    parser.add_argument(
        "--t-max", type=float, default=None, help="default: one revival period"
    )
    parser.add_argument("--samples", type=int, default=1001)
    parser.add_argument("-o", "--output", default=None)


def _add_truncation_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--truncation", type=int, default=None, help="Fock cutoff N (default: auto)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revivals",
        description="Coherent-state revival traces, carpets, and analogs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_auto = sub.add_parser("autocorr", help="autocorrelation trace")
    _add_label_options(p_auto)
    _add_grid_options(p_auto)
    p_auto.add_argument(
        "--spectrum",
        choices=("kerr", "harmonic", "square_well"),
        default="kerr",
    )

    p_mom = sub.add_parser("moment", help="normal-ordered ladder moment trace")
    p_mom.add_argument("--r", type=int, required=True)
    p_mom.add_argument("--s", type=int, required=True)
    _add_label_options(p_mom)
    _add_grid_options(p_mom)

    p_xp = sub.add_parser("xptrace", help="quadrature moment trace")
    p_xp.add_argument(
        "--observable",
        choices=("x", "p", "x2", "p2", "dxdp"),
        default="x",
    )
    _add_label_options(p_xp)
    _add_grid_options(p_xp)

    p_lx = sub.add_parser("lx", help="angular-momentum moment trace")
    p_lx.add_argument("--n", type=int, default=1, help="power of Lx")
    p_lx.add_argument("--p2", type=float, default=1.0)
    p_lx.add_argument("--q2", type=float, default=1.0)
    p_lx.add_argument("--p3", type=float, default=1.0)
    p_lx.add_argument("--q3", type=float, default=1.0)
    _add_grid_options(p_lx)

    p_car = sub.add_parser("carpet", help="space-time density grid")
    _add_label_options(p_car)
    _add_grid_options(p_car)
    _add_truncation_option(p_car)
    p_car.add_argument(
        "--spectrum",
        choices=("kerr", "harmonic", "square_well"),
        default="kerr",
    )
    p_car.add_argument("--nx", type=int, default=400)
    p_car.add_argument("--nt", type=int, default=400)
    p_car.add_argument("--x-min", type=float, default=None)
    p_car.add_argument("--x-max", type=float, default=None)
    p_car.add_argument("--format", choices=("csv", "pgm"), default="csv")

    p_pen = sub.add_parser("pendulum", help="pendulum-wave snapshot")
    p_pen.add_argument("--count", type=int, default=100)
    p_pen.add_argument("--base-cycles", type=int, default=30)
    p_pen.add_argument("--t-rev", type=float, default=1.0)
    p_pen.add_argument("--amplitude", type=float, default=1.0)
    p_pen.add_argument(
        "--at", type=float, default=0.0, help="snapshot time as a fraction of t_rev"
    )
    p_pen.add_argument("-o", "--output", default=None)

    p_tal = sub.add_parser("talbot", help="grating self-imaging length")
    p_tal.add_argument("--wavelength", type=float, required=True)
    p_tal.add_argument("--grating-period", type=float, required=True)
    p_tal.add_argument("-o", "--output", default=None)

    p_cat = sub.add_parser("cat", help="fractional-revival cat decomposition")
    p_cat.add_argument("--m", type=int, required=True, help="number of components")
    _add_label_options(p_cat)
    _add_grid_options(p_cat)
    _add_truncation_option(p_cat)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main() uses; built once per process, since parsing leaves it unchanged."""
    return build_parser()


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Translate parsed flags into a RunConfig."""
    command = args.command
    params: dict[str, Any] = {}
    passthrough = {
        "autocorr": ("p", "q", "spectrum"),
        "moment": ("p", "q", "r", "s"),
        "xptrace": ("p", "q", "observable"),
        "lx": ("n", "p2", "q2", "p3", "q3"),
        "carpet": ("p", "q", "spectrum", "nx", "nt", "x_min", "x_max"),
        "pendulum": ("count", "base_cycles", "t_rev", "amplitude", "at"),
        "talbot": ("wavelength", "grating_period"),
        "cat": ("p", "q", "m"),
    }[command]
    for name in passthrough:
        params[name] = getattr(args, name)
    return RunConfig(
        command=command,
        params=params,
        chi=getattr(args, "chi", DEFAULT_CHI),
        t_min=getattr(args, "t_min", 0.0),
        t_max=getattr(args, "t_max", None),
        samples=getattr(args, "samples", 1001),
        truncation=getattr(args, "truncation", None),
        output=getattr(args, "output", None),
        fmt=getattr(args, "format", "csv"),
    )


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        return run(config)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
