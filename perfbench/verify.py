"""Correctness checks: CLI outputs against the dense route, and oracle_check jobs.

Every CLI output is parsed in full: its ``#`` metadata must repeat the job's
parameters, its header must name the expected columns and it must hold the
expected number of rows with the expected time grid. A few sampled rows are
then recomputed by the independent matrix route: ``numerical_expectation``
on an evolved state for traces, ``evolve`` plus ``inner_product`` for
autocorrelation, ``lx_moment_oracle`` for angular moments and
``position_wavefunction`` for carpet rows (PGM rows within one grey level).

An error is measured against a scale that bounds the value's magnitude
(for example 1 for an overlap, (1 + nu)^k for a k-th moment) and against the
float64 rounding of the largest phase chi*E*t that the row needs, so the
same tolerance holds at nu = 1 and at nu = 2500.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

#: Relative agreement required between closed form and oracle (of the scale).
RTOL = 1e-8

_EPS = float(np.finfo(np.float64).eps)

_HEADERS = {
    "autocorr": ["t", "re", "im", "abs2", "chi_t_over_pi"],
    "moment": ["t", "re", "im", "chi_t_over_pi"],
    "xptrace": ["t", "value", "chi_t_over_pi"],
    "lx": ["t", "value", "chi_t_over_pi"],
    "pendulum": ["j", "x"],
}

#: Number of random rows per output recomputed by the oracle (besides first and last).
SAMPLED_ROWS = 4


class Mismatch(Exception):
    """An output disagrees with its specification or with the oracle."""


class Errors:
    """Largest relative error seen, with the tolerance each comparison used."""

    def __init__(self) -> None:
        self.max_rel = 0.0

    def compare(self, what: str, got, ref, scale: float, phase: float = 0.0) -> None:
        """|got - ref| <= (RTOL + 16 eps phase) * scale, elementwise."""
        got = np.asarray(got)
        ref = np.asarray(ref)
        err = float(np.max(np.abs(got - ref))) / scale if got.size else 0.0
        tol = RTOL + 16.0 * _EPS * phase
        self.max_rel = max(self.max_rel, err)
        if not err <= tol:
            raise Mismatch(f"{what}: relative error {err:.3e} exceeds {tol:.3e}")


# -- CLI outputs --------------------------------------------------------------


def _parse_csv(path: str) -> tuple[dict[str, str], list[str], list[str]]:
    with open(path, encoding="ascii") as handle:
        lines = handle.read().split("\n")
    if lines[-1] != "":
        raise Mismatch("file does not end with a newline")
    lines.pop()
    meta = {}
    k = 0
    while k < len(lines) and lines[k].startswith("# "):
        key, sep, value = lines[k][2:].partition(" = ")
        if not sep:
            raise Mismatch(f"bad metadata line {lines[k]!r}")
        meta[key] = value
        k += 1
    if k == len(lines):
        raise Mismatch("no header row")
    return meta, lines[k].split(","), lines[k + 1 :]


def _expect_meta(meta: dict[str, str], command: str, expected: dict) -> None:
    if meta.get("command") != command:
        raise Mismatch(f"metadata command {meta.get('command')!r}, expected {command!r}")
    for key, value in expected.items():
        if key not in meta:
            raise Mismatch(f"metadata lacks {key!r}")
        same = meta[key] == value if isinstance(value, str) else float(meta[key]) == value
        if not same:
            raise Mismatch(f"metadata {key} = {meta[key]!r}, expected {value!r}")


def _table(rows: list[str], width: int) -> np.ndarray:
    if any(row.count(",") != width - 1 for row in rows):
        raise Mismatch(f"rows do not all have {width} cells")
    try:
        cells = np.array(",".join(rows).split(","), dtype=np.float64)
    except ValueError as exc:
        raise Mismatch(f"unparsable cell: {exc}") from None
    return cells.reshape(len(rows), width)


def _sample(rng: random.Random, count: int) -> list[int]:
    picks = {0, count - 1}
    picks.update(rng.randrange(count) for _ in range(SAMPLED_ROWS))
    return sorted(picks)


def _period(spectrum: str, chi: float) -> float:
    return math.pi / chi if spectrum == "kerr" else 2.0 * math.pi / chi


def _check_grid(table: np.ndarray, params: dict, chi: float, spectrum: str, errors: Errors,
                column: int = -1) -> np.ndarray:
    """Row count, time column and chi_t_over_pi column (at `column`) of a trace table."""
    samples = params.get("samples", 1001)
    if table.shape[0] != samples:
        raise Mismatch(f"{table.shape[0]} rows, expected {samples}")
    t_max = params.get("t_max", _period(spectrum, chi))
    times = np.linspace(0.0, t_max, samples)
    errors.compare("time column", table[:, 0], times, t_max)
    errors.compare("chi_t_over_pi column", table[:, column], chi * times / math.pi, chi * t_max / math.pi)
    return times


def _spectrum(R, params: dict):
    return getattr(R.Spectrum, params.get("spectrum", "kerr"))(params["chi"])


def _nu(p: float, q: float) -> float:
    return 0.5 * (p * p + q * q)


def _dense_moments(R, params: dict, t: float, pairs, pad: int):
    """<a†^i a^j> for each (i, j) on the Kerr-evolved state, by dense matrices; and N."""
    label = R.CoherentLabel(params["p"], params["q"])
    n = R.auto_truncation(label.nu) + pad
    state = R.evolve(R.coherent_amplitudes(label, n), R.Spectrum.kerr(params["chi"]), t)
    return [R.numerical_expectation(state, R.ladder_product_matrix(i, j, n)) for i, j in pairs], n


# Each reference gives the row's value columns, the scale bounding their
# magnitude and the largest phase chi*E*t the computation rounds.


def _reference_autocorr(R, params: dict, t: float):
    spectrum = _spectrum(R, params)
    state = R.coherent_amplitudes(R.CoherentLabel(params["p"], params["q"]))
    overlap = R.inner_product(R.evolve(state, spectrum, t), state)
    phase = params["chi"] * t * float(np.max(np.abs(spectrum.energies(state.truncation))))
    return [overlap.real, overlap.imag, abs(overlap) ** 2], 1.0, phase


def _reference_moment(R, params: dict, t: float):
    r, s = params["r"], params["s"]
    (value,), n = _dense_moments(R, params, t, [(r, r + s)], r + s + 10)
    scale = (1.0 + _nu(params["p"], params["q"])) ** (r + 0.5 * s)
    return [value.real, value.imag], scale, params["chi"] * t * n * n


def _reference_xptrace(R, params: dict, t: float):
    (a, a2, number), n = _dense_moments(R, params, t, [(0, 1), (0, 2), (1, 1)], 12)
    x, p = math.sqrt(2.0) * a.real, math.sqrt(2.0) * a.imag
    x2, p2 = 0.5 + number.real + a2.real, 0.5 + number.real - a2.real
    value = {"x": x, "p": p, "x2": x2, "p2": p2,
             "dxdp": math.sqrt(max(x2 - x * x, 0.0) * max(p2 - p * p, 0.0))}[params["observable"]]
    return [value], 2.0 * (1.0 + _nu(params["p"], params["q"])), params["chi"] * t * n * n


def _reference_lx(R, params: dict, t: float):
    modes = R.TriModeLabel(R.CoherentLabel(0.0, 0.0), R.CoherentLabel(params["p2"], params["q2"]),
                           R.CoherentLabel(params["p3"], params["q3"]))
    n = params["n"]
    value = R.lx_moment_oracle(n, modes, params["chi"], t)
    dim = R.auto_truncation(max(modes.mode_b.nu, modes.mode_c.nu))
    scale = (1.0 + modes.mode_b.nu + modes.mode_c.nu) ** n
    return [value], scale, params["chi"] * t * dim * dim


_REFERENCES = {
    "autocorr": _reference_autocorr,
    "moment": _reference_moment,
    "xptrace": _reference_xptrace,
    "lx": _reference_lx,
}

_META_KEYS = ("observable", "r", "s", "n", "p", "q", "p2", "q2", "p3", "q3", "spectrum", "chi")


def _verify_trace(R, job: dict, path: str, rng: random.Random, errors: Errors) -> None:
    command, params = job["command"], job["params"]
    meta, header, rows = _parse_csv(path)
    _expect_meta(meta, command, {key: params[key] for key in _META_KEYS if key in params})
    if header != _HEADERS[command]:
        raise Mismatch(f"header {header}, expected {_HEADERS[command]}")
    table = _table(rows, len(header))
    times = _check_grid(table, params, params["chi"], params.get("spectrum", "kerr"), errors)
    for k in _sample(rng, len(rows)):
        values, scale, phase = _REFERENCES[command](R, params, float(times[k]))
        errors.compare(f"{command} row {k}", table[k, 1 : 1 + len(values)], values, scale, phase)


def _carpet_row(R, params: dict, x: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """Density |psi(x, t)|^2 by position_wavefunction, and the row's largest phase."""
    spectrum = _spectrum(R, params)
    label = R.CoherentLabel(params["p"], params["q"])
    psi = R.position_wavefunction(label, x, t, spectrum)
    phase = params["chi"] * t * float(np.max(np.abs(spectrum.energies(R.auto_truncation(label.nu)))))
    return psi.real ** 2 + psi.imag ** 2, phase


def _window(params: dict) -> tuple[float, float]:
    radius = math.sqrt(0.5 * (params["p"] ** 2 + params["q"] ** 2))
    half = max(6.0, math.sqrt(2.0) * radius + 6.0 / math.sqrt(2.0))
    return -half, half


def _verify_carpet_csv(R, job: dict, path: str, rng: random.Random, errors: Errors) -> None:
    params = job["params"]
    chi = params["chi"]
    spectrum = params.get("spectrum", "kerr")
    meta, header, rows = _parse_csv(path)
    _expect_meta(meta, "carpet", {key: params[key] for key in ("spectrum", "p", "q", "chi", "nx", "nt")})
    nx, nt = params["nx"], params["nt"]
    if header[:2] != ["t", "chi_t_over_pi"] or len(header) != nx + 2:
        raise Mismatch(f"carpet header has {len(header)} columns, expected {nx + 2}")
    try:
        x = np.array([float(h.removeprefix("x=")) for h in header[2:]])
    except ValueError as exc:
        raise Mismatch(f"bad x header: {exc}") from None
    lo, hi = _window(params)
    errors.compare("carpet x axis", x, np.linspace(lo, hi, nx), hi)
    table = _table(rows, nx + 2)
    params = dict(params, samples=nt)
    times = _check_grid(table, params, chi, spectrum, errors, column=1)
    for k in _sample(rng, nt):
        density, phase = _carpet_row(R, params, x, float(times[k]))
        errors.compare(f"carpet row {k}", table[k, 2:], density, 1.0, phase)


def _verify_carpet_pgm(R, job: dict, path: str, rng: random.Random, errors: Errors) -> None:
    params = job["params"]
    nx, nt = params["nx"], params["nt"]
    with open(path, "rb") as handle:
        data = handle.read()
    head = f"P5\n{nx} {nt}\n255\n".encode("ascii")
    if not data.startswith(head) or len(data) != len(head) + nx * nt:
        raise Mismatch("PGM header or size does not match the grid")
    levels = np.frombuffer(data, dtype=np.uint8, offset=len(head)).reshape(nt, nx).astype(int)
    lit = np.flatnonzero(levels.max(axis=1) == 255)
    if lit.size == 0:
        raise Mismatch("PGM has no full-scale pixel")
    chi = params["chi"]
    t_max = params.get("t_max", _period(params.get("spectrum", "kerr"), chi))
    times = np.linspace(0.0, t_max, nt)
    x = np.linspace(*_window(params), nx)
    rows = {k: _carpet_row(R, params, x, float(times[k]))[0] for k in _sample(rng, nt) + [int(lit[0])]}
    # A row holding a 255 pixel peaks within half a grey level of the grid maximum.
    peak = max(float(row.max()) for row in rows.values())
    for k, density in rows.items():
        worst = int(np.max(np.abs(np.rint(density * (255.0 / peak)) - levels[k])))
        if worst > 1:
            raise Mismatch(f"PGM row {k} is {worst} grey levels off")


def _verify_pendulum(R, job: dict, path: str, rng: random.Random, errors: Errors) -> None:
    params = job["params"]
    count, at = params["count"], params["at"]
    meta, header, rows = _parse_csv(path)
    t = at * params["t_rev"]
    waves = Fraction(at).limit_denominator(count).denominator
    _expect_meta(meta, "pendulum", {key: params[key] for key in ("count", "base_cycles", "t_rev", "amplitude")}
                 | {"t": t, "waves": waves, "strength": count // waves})
    if header != _HEADERS["pendulum"]:
        raise Mismatch(f"header {header}, expected {_HEADERS['pendulum']}")
    table = _table(rows, 2)
    if table.shape[0] != count or not np.array_equal(table[:, 0], np.arange(count)):
        raise Mismatch("pendulum rows are not oscillators 0..count-1")
    freq = (params["base_cycles"] + np.arange(count)) / params["t_rev"]
    ref = params["amplitude"] * np.cos(2.0 * math.pi * freq * t)
    errors.compare("pendulum positions", table[:, 1], ref, params["amplitude"], 2.0 * math.pi * float(freq[-1]) * t)


def verify_output(R, job: dict, path: str, rng: random.Random, errors: Errors) -> None:
    """Raise Mismatch unless the file the CLI job wrote is correct."""
    command = job["command"]
    if command == "carpet":
        if job["params"].get("format") == "pgm":
            _verify_carpet_pgm(R, job, path, rng, errors)
        else:
            _verify_carpet_csv(R, job, path, rng, errors)
    elif command == "pendulum":
        _verify_pendulum(R, job, path, rng, errors)
    else:
        _verify_trace(R, job, path, rng, errors)


# -- oracle_check jobs --------------------------------------------------------


def _check_ladder(R, job: dict, errors: Errors) -> None:
    i, j, chi, t = job["i"], job["j"], job["chi"], job["t"]
    label = R.CoherentLabel(job["p"], job["q"])
    closed = complex(R.ladder_moment(i, j, label, chi, t))
    state = R.evolve(R.coherent_amplitudes(label), R.Spectrum.kerr(chi), t)
    n = state.truncation + max(i, j)
    dense = R.numerical_expectation(state.padded(n), R.ladder_product_matrix(i, j, n))
    errors.compare("ladder moment", closed, dense, (1.0 + label.nu) ** (0.5 * (i + j)), chi * t * n * n)


def _check_autocorr(R, job: dict, errors: Errors) -> None:
    chi, t = job["chi"], job["t"]
    label = R.CoherentLabel(job["p"], job["q"])
    spectrum = getattr(R.Spectrum, job["spectrum"])(chi)
    closed = R.autocorrelation(label, spectrum, t)
    state = R.coherent_amplitudes(label)
    dense = R.inner_product(R.evolve(state, spectrum, t), state)
    errors.compare("autocorrelation", closed, dense, 1.0, chi * t * (state.truncation + 1) ** 2)


def _check_lx(R, job: dict, errors: Errors) -> None:
    n, chi, t = job["n"], job["chi"], job["t"]
    modes = R.TriModeLabel(R.CoherentLabel(0.0, 0.0), R.CoherentLabel(job["p2"], job["q2"]),
                           R.CoherentLabel(job["p3"], job["q3"]))
    closed = R.lx_moment(n, modes, chi, t)
    dense = R.lx_moment_oracle(n, modes, chi, t)
    dim = R.auto_truncation(max(modes.mode_b.nu, modes.mode_c.nu))
    errors.compare(f"<Lx^{n}>", closed, dense, (1.0 + modes.mode_b.nu + modes.mode_c.nu) ** n, chi * t * dim * dim)


def _check_cat(R, job: dict, errors: Errors) -> None:
    m = job["m"]
    label = R.CoherentLabel(job["p"], job["q"])
    cat = R.decompose_fractional(label, m, R.Spectrum.kerr(job["chi"]))
    if len(cat.component_labels) != m:
        raise Mismatch(f"cat has {len(cat.component_labels)} components, expected {m}")
    errors.compare("cat fidelity", cat.fidelity, 1.0, 1.0)
    errors.compare("cat weights", float(np.sum(np.abs(cat.coefficients) ** 2)), 1.0, 1.0)
    errors.compare("cat component radii", [c.nu for c in cat.component_labels], label.nu, 1.0 + label.nu)


CHECKS = {"ladder": _check_ladder, "autocorr": _check_autocorr, "lx": _check_lx, "cat": _check_cat}
