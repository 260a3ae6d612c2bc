"""Summarise parent and change benchmark runs into one committed JSON file.

    python tools/bench_summary.py PARENT_RESULTS CHANGE_RESULTS -o BENCH_<n>.json

PARENT_RESULTS and CHANGE_RESULTS are the ``perfbench/results/`` directories
of the two checkouts, each holding the ``<workload>-seed<S>-trace<T>.json``
records that ``perfbench/run.py`` saves.
For every workload (traced runs under ``<workload>/trace1``) the output
gives, per metric of the records and per side, the median, the quartiles and
the interquartile range over the seeds both sides ran; a seed run on one side
only is left out, so every figure describes the same pairs. For the metrics
``BENCHMARK.json`` declares it adds their direction and bound, the number of
pairs, how many of them the change won, the relative change of the medians,
and whether the medians differ by more than the parent's interquartile range. The perfbench
machine record (CPU, caches, BLAS, NumPy, Python) is stored once per side.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"


def _load(folder: str) -> dict[str, dict[int, dict]]:
    """Records of one side, grouped by workload key and then by seed."""
    groups: dict[str, dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(folder, "*-seed*-trace[01].json"))):
        with open(path, encoding="ascii") as handle:
            result = json.load(handle)
        key = result["workload"] + ("/trace1" if result["trace"] else "")
        groups.setdefault(key, {})[int(result["seed"])] = result
    if not groups:
        raise SystemExit(f"error: no perfbench result records in {folder}")
    return groups


def _spread(values: list[float]) -> dict[str, float | int]:
    """Median, inclusive quartiles and their distance over one side's values."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _compare(parent: dict[int, dict], change: dict[int, dict], declared: dict) -> dict:
    seeds = sorted(set(parent) & set(change))
    parent = {s: parent[s] for s in seeds}
    change = {s: change[s] for s in seeds}
    names = sorted({m for side in (parent, change) for r in side.values() for m in r["metrics"]})
    metrics = {}
    for name in names:
        # Only seeds where both sides report the metric: every figure is paired.
        pairs = [(parent[s]["metrics"].get(name), change[s]["metrics"].get(name)) for s in seeds]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        entry: dict = {
            "parent": _spread([p for p, _ in pairs]),
            "change": _spread([c for _, c in pairs]),
        }
        spec = declared.get(name)
        if spec is not None:
            lower = spec["better"] == "lower"
            base, new = entry["parent"]["median"], entry["change"]["median"]
            entry.update(
                better=spec["better"],
                bound=spec.get("bound"),
                pairs=len(pairs),
                change_wins=sum((c < p) if lower else (c > p) for p, c in pairs),
                median_rel_change=(new - base) / base if base else None,
                gap_exceeds_parent_iqr=abs(new - base) > entry["parent"]["iqr"],
            )
        metrics[name] = entry
    return {
        "seeds": seeds,
        "failed": {
            side: sum(r["child"]["failed"] for r in results.values())
            for side, results in (("parent", parent), ("change", change))
        },
        "metrics": metrics,
    }


def summarise(parent_folder: str, change_folder: str) -> dict:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    declared = {m["name"]: m for group in ("end_to_end", "per_layer") for m in spec[group]}
    parent, change = _load(parent_folder), _load(change_folder)
    sides = {}
    for side, groups in (("parent", parent), ("change", change)):
        # Every run of one checkout shares its machine and source record.
        results = next(iter(groups.values()))
        record = dict(results[min(results)]["child"]["record"])
        sides[side] = {
            "commit": record.pop("commit", None),
            "source_digest": record.pop("source_digest", None),
            "machine": record,
        }
    workloads = {
        key: _compare(parent[key], change[key], declared)
        for key in sorted(set(parent) & set(change))
    }
    return {
        "command": spec["command"],
        "run_seconds": sorted({r["seconds"] for g in (parent, change) for rs in g.values() for r in rs.values()}),
        "parent": sides["parent"],
        "change": sides["change"],
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent checkout's perfbench/results directory")
    parser.add_argument("change", help="the change checkout's perfbench/results directory")
    parser.add_argument("-o", "--output", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    summary = summarise(args.parent, args.change)
    with open(args.output, "w", encoding="ascii") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for key, workload in summary["workloads"].items():
        for name, entry in workload["metrics"].items():
            if entry.get("bound") is not None and entry.get("median_rel_change") is not None:
                print(
                    f"{key:24s} {name:12s} parent {entry['parent']['median']:.4g} "
                    f"change {entry['change']['median']:.4g} "
                    f"({entry['median_rel_change']:+.1%}) wins {entry['change_wins']}/{entry['pairs']}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
