"""Write every CLI output of the benchmark's job lists, with a sha256 manifest.

    python tools/cli_outputs.py SRC OUTDIR [--seeds 1 2 3] [--expect SHA256]

Imports ``revivals`` from SRC (a ``src/`` directory of any checkout) and runs
``revivals.cli.main`` in-process on the ``trace_export`` and
``spectral_sweep`` job lists of ``perfbench/workloads.py`` for each seed, plus
the commands and flags those lists do not reach (``cat``, ``talbot``, the
pendulum and carpet flags, ``--t-min``, ``--truncation`` and the rest), so
that every flag of every command is exercised. Files go to
OUTDIR/seed<S>/<workload>/, the printed summary lines of each directory to
its ``stdout.txt``, and one line per file to OUTDIR/MANIFEST.sha256 (the
``sha256sum`` format). The last line printed is
the sha256 of the manifest: two source trees whose CLI outputs are
byte-identical give the same hash. With ``--expect`` the exit status is 1
when that hash differs from the one given, so a byte-identity check is one
command. The expected hash of the current tree is kept in one place, the
``expected`` string of ``tests/test_cli_outputs.py``, which tier-1 checks:

    python tools/cli_outputs.py src /tmp/out \
        --expect "$(grep -oE '[0-9a-f]{64}' tests/test_cli_outputs.py)"

To see which files moved, and by how much, write the old tree's outputs
and compare the new ones with them:

    python tools/cli_outputs.py ../old/src /tmp/old
    python tools/cli_outputs.py src /tmp/new --compare /tmp/old

``--compare`` prints one line for each file whose bytes differ or that only
one side holds (see ``compare``), before the summary lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Commands outside the benchmark's job lists, as argv without the output file.
EXTRA = (
    ["cat", "--m", "3", "--p", "0.0", "--q", "2.83"],
    ["cat", "--m", "4", "--p", "1.5", "--q", "-0.5", "--truncation", "60"],
    ["talbot", "--wavelength", "0.6", "--grating-period", "1.0"],
    ["pendulum"],
    ["pendulum", "--at", "0.5"],
    ["moment", "--r", "1", "--s", "2", "--p", "2.0", "--q", "0.0"],
    ["lx", "--n", "4", "--p2", "7.07", "--q2", "7.07", "--p3", "7.07", "--q3", "7.07"],
    # Flags that no benchmark job sets, so that the manifest covers every flag.
    ["carpet", "--p", "2.0", "--q", "-1.0", "--nx", "60", "--nt", "40",
     "--x-min=-7.5", "--x-max", "6.5", "--t-min", "0.1", "--truncation", "60"],
    ["autocorr", "--spectrum", "harmonic", "--t-min", "0.25", "--samples", "301"],
    ["xptrace", "--observable", "dxdp", "--t-min", "0.2", "--t-max", "1.1", "--samples", "301"],
    ["moment", "--r", "0", "--s", "1", "--t-min", "0.05", "--t-max", "0.6", "--samples", "201"],
    ["lx", "--n", "2", "--t-min", "0.05", "--t-max", "0.6", "--samples", "201"],
    ["cat", "--m", "3", "--chi", "0.7"],
    ["pendulum", "--count", "37", "--base-cycles", "12", "--t-rev", "2.5",
     "--amplitude", "0.75", "--at", "0.4"],
    # An angular order above the n <= 4 that the benchmark's jobs reach.
    ["lx", "--n", "6", "--samples", "201"],
    # A window reaching |x| = 44, beyond the |x| > 26.27 where hermite_functions
    # scales its columns; no benchmark carpet reaches them.
    ["carpet", "--p", "40", "--q", "0", "--nx", "64", "--nt", "5"],
    # Both routes of a linear spectrum's carpet: the travelling Gaussian, and
    # the contraction that an explicit truncation asks for.
    ["carpet", "--spectrum", "harmonic", "--p", "2.5", "--q", "1.5", "--chi", "0.8", "--nx", "60", "--nt", "40"],
    ["carpet", "--spectrum", "harmonic", "--p", "2.5", "--q", "1.5", "--chi", "0.8", "--nx", "60", "--nt", "40",
     "--truncation", "40"],
)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_revivals(src: Path):
    sys.path.insert(0, str(src))
    import revivals.cli

    if Path(revivals.cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"imported revivals from {revivals.cli.__file__}, not from {src}")
    return revivals.cli


def _run_all(main, argvs: list[list[str]], directory: Path) -> int:
    """Run each argv in directory; returns the number of nonzero exits."""
    directory.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    log = io.StringIO()
    failures = 0
    os.chdir(directory)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(log):
                code = main(argv)
            if code != 0:
                failures += 1
                log.write(f"exit {code}: {' '.join(argv)}\n")
    finally:
        os.chdir(here)
    (directory / "stdout.txt").write_text(log.getvalue())
    return failures


def _csv_columns(path: Path) -> list[tuple[str, list[str]]]:
    """A CSV output's columns as (name, cells): each '# key = value' line is a
    column of one cell, and then come the header's columns."""
    lines = path.read_text().splitlines()
    columns = [(f"# {key}", [value]) for key, _, value in
               (line[2:].partition(" = ") for line in lines if line.startswith("# "))]
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    if rows:
        header, body = rows[0], rows[1:]
        columns += [(name, [row[k] for row in body if k < len(row)]) for k, name in enumerate(header)]
    return columns


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_move(old: Path, new: Path) -> str:
    """The largest |new - old| cell over its column's largest finite |old|, and its column."""
    before, after = _csv_columns(old), _csv_columns(new)
    if [len(cells) for _, cells in before] != [len(cells) for _, cells in after]:
        return "the columns or their lengths differ"
    worst, where, text = 0.0, None, [name for name, _ in before] != [name for name, _ in after]
    for (name, cells), (_, moved) in zip(before, after):
        values = [_number(cell) for cell in cells]
        scale = max((abs(v) for v in values if v is not None and math.isfinite(v)), default=0.0)
        for cell, other, value in zip(cells, moved, values):
            if cell == other:
                continue
            number = _number(other)
            if value is None or number is None:
                text = True
                continue
            change = abs(number - value)
            move = change / scale if scale else (math.inf if change else 0.0)
            move = math.inf if math.isnan(move) else move
            if where is None or move > worst:
                worst, where = move, name
    parts = [f"largest move {worst:.3g} of its column's largest |old|, in column {where}"] if where else []
    return ", ".join(parts + ["header or text cells differ"] * text)


def _pgm_move(old: Path, new: Path) -> str:
    """The largest grey-level change and the number of changed pixels."""
    (*before, pixels), (*after, moved) = (path.read_bytes().split(b"\n", 3) for path in (old, new))
    if before != after or len(pixels) != len(moved):
        return f"header {b' '.join(before).decode()} -> {b' '.join(after).decode()}"
    changes = [abs(a - b) for a, b in zip(pixels, moved) if a != b]
    return f"largest grey-level change {max(changes, default=0)}, {len(changes)} pixels changed"


def compare(old: Path, new: Path) -> list[str]:
    """One line for each file of the output trees old and new whose bytes differ
    or that only one side holds, MANIFEST.sha256 aside: for a CSV the largest
    |new - old| cell over that column's largest |old|, for a PGM the largest
    grey-level change and the number of changed pixels."""
    names = {
        p.relative_to(root).as_posix()
        for root in (old, new) for p in root.rglob("*") if p.is_file() and p.name != "MANIFEST.sha256"
    }
    lines = []
    for name in sorted(names):
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: only in {'old' if a.is_file() else 'new'}")
        elif a.read_bytes() != b.read_bytes():
            move = {".csv": _csv_move, ".pgm": _pgm_move}.get(a.suffix, lambda *_: "bytes differ")
            lines.append(f"{name}: {move(a, b)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="src/ directory holding the revivals package")
    parser.add_argument("outdir", type=Path, help="directory for the outputs and the manifest")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--expect", metavar="SHA256",
                        help="exit 1 unless the manifest hash equals this one")
    parser.add_argument("--compare", metavar="OLD_OUTDIR", type=Path,
                        help="print how each file differs from the one in OLD_OUTDIR")
    args = parser.parse_args(argv)

    outdir = args.outdir.resolve()
    if outdir.exists() and any(outdir.iterdir()):
        parser.error(f"{outdir} is not empty")
    if args.compare is not None and not args.compare.is_dir():
        parser.error(f"{args.compare} is not a directory")
    cli = _load_revivals(args.src.resolve())
    workloads = _load_workloads()
    failures = 0
    for seed in args.seeds:
        for workload in ("trace_export", "spectral_sweep"):
            jobs = workloads.jobs_for(workload, seed)
            argvs = [workloads.cli_argv(job) for job in jobs]
            failures += _run_all(cli.main, argvs, outdir / f"seed{seed}" / workload)
    extra = [argv + ["-o", f"{k:02d}_{argv[0]}.csv"] for k, argv in enumerate(EXTRA)]
    failures += _run_all(cli.main, extra, outdir / "extra")

    files = sorted(p for p in outdir.rglob("*") if p.is_file() and p.name != "MANIFEST.sha256")
    manifest = "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(outdir).as_posix()}\n"
        for p in files
    )
    (outdir / "MANIFEST.sha256").write_text(manifest)
    if args.compare is not None:
        print("\n".join(compare(args.compare.resolve(), outdir)) or "no file differs")
    print(f"{len(files)} files, {failures} failed commands")
    digest = hashlib.sha256(manifest.encode()).hexdigest()
    print(digest)
    if args.expect is not None and digest != args.expect.lower():
        print(f"manifest hash differs from the expected {args.expect}", file=sys.stderr)
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
