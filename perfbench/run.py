"""Benchmark of the revivals package, defined by BENCHMARK.json at the repository root.

    python3 perfbench/run.py --workload trace_export --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each workload runs in fresh child interpreters (worker.py), built from the
package sources under ``src/`` of the checkout; nothing is installed. With
``--trace 0`` the run measures set-up time over several fresh interpreters,
then times whole passes over the workload's seeded job list in one more
child for ``--seconds`` and reports the end-to-end metrics. With
``--trace 1`` one child runs untraced passes, then passes with every layer
wrapped, and reports the per-layer metrics and the tracing overhead.

Every job output is checked after the timed passes. The last line on stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report and the run record
(machine, BLAS threads, versions, commit, seed). The exit status is 0 only
when every job ran and every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up-only interpreters started besides the measuring one; setup_s is their median.
SETUP_SAMPLES = 8

#: Wall-clock limit for one workload, start to result.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; returns its set-up time and, when measuring, its result."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, str(seed), repr(seconds), mode]
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(argv, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"), stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker passed the {DEADLINE_S:.0f} s deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(f"{workload} {mode} worker exited with status {proc.returncode}")
    setup_s = (int(lines[0].split()[1]) - start) / 1e9
    return setup_s, (json.loads(lines[-1]) if mode != "setup" else None)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All metrics of one workload, plus the worker's raw summary."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        _, child = _spawn(workload, seed, seconds, "trace", deadline)
        metrics = dict(child["layers"], **{"verify.max_rel_err": child["max_rel_err"]})
        setups: list[float] = []
    else:
        # The first interpreter also compiles bytecode and warms the file cache,
        # which a user pays once per install; it is not a set-up sample.
        _spawn(workload, seed, seconds, "setup", deadline)

        def setup_samples(count: int) -> list[float]:
            return [_spawn(workload, seed, seconds, "setup", deadline)[0] for _ in range(count)]

        # Back-to-back interpreters share one state of a shared host, whose speed
        # drifts over tens of seconds; so some samples are taken after the passes.
        setups = setup_samples(SETUP_SAMPLES // 2)
        setup_s, child = _spawn(workload, seed, seconds, "measure", deadline)
        setups += [setup_s] + setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        metrics = {key: child[key] for key in ("wall_ref", "job_ref_p50", "job_ref_p90", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "metrics": metrics,
            "setup_samples_s": setups, "child": child}


def _verdict(result: dict, spec: dict) -> dict:
    """The contract's result object: every declared metric with its unit."""
    child = result["child"]
    metrics = {}
    for entry in spec["per_layer"] if result["trace"] else spec["end_to_end"]:
        if entry["name"] not in result["metrics"]:
            raise BenchError(f"{result['workload']} produced no value for {entry['name']}")
        metrics[entry["name"]] = {"value": result["metrics"][entry["name"]], "unit": entry["unit"]}
    correct = child["failed"] == 0 and not child.get("problems")
    return {"correct": correct, "attempted": child["attempted"], "failed": child["failed"], "metrics": metrics}


def report(result: dict, spec: dict) -> list[str]:
    """Readable lines: every metric by name and unit, then the run record."""
    child = result["child"]
    mode = "traced" if result["trace"] else "untraced"
    lines = [
        f"== {result['workload']}  seed {result['seed']}  {mode}: closed loop, one client, "
        f"{child['passes']} passes of {child['jobs_per_pass']} jobs; wall_s is the median pass, "
        f"job_ms_p50 the median job's median latency, job_ms_p90 over all "
        f"{child['latency_samples']} latencies ({child['beyond_p90']} beyond it); "
        f"*_ref divide them by the median reference_ms"
    ]
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    rows = [(name, result["metrics"][name]) for name in sorted(result["metrics"])]
    if not result["trace"]:
        rows += [
            ("wall_s", child["wall_s"]),
            ("job_ms_p50", child["job_ms_p50"]),
            ("job_ms_p90", child["job_ms_p90"]),
            ("reference_ms", child["reference_ms"]),
            ("out_mb_per_s", child["out_mb_per_s"]),
            ("checks_per_s", child["checks_per_s"]),
            ("fail_ratio", child["failed"] / child["attempted"]),
            ("verify.max_rel_err", child["max_rel_err"]),
        ]
        units.update(wall_s="s", job_ms_p50="ms", job_ms_p90="ms", reference_ms="ms",
                     out_mb_per_s="MB/s", checks_per_s="1/s", fail_ratio="ratio")
    for name, value in rows:
        shown = "n/a (no such work in this workload)" if value is None else f"{value:.6g}"
        lines.append(f"  {name:34s} {shown} {units.get(name, '') if value is not None else ''}".rstrip())
    if result["setup_samples_s"]:
        lines.append("  setup samples s: " + ", ".join(f"{v:.4f}" for v in result["setup_samples_s"]))
    for failure in child["failures"][:10] + child.get("problems", []):
        lines.append("  FAILED " + failure.strip().replace("\n", "\n         "))
    record = dict(child["record"], seed=result["seed"], seconds=result["seconds"])
    lines.append("  record: " + json.dumps(record, sort_keys=True))
    return lines


def _save(result: dict) -> None:
    folder = os.path.join(HERE, "results")
    os.makedirs(folder, exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    with open(os.path.join(folder, name), "w", encoding="ascii") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "revivals", "__init__.py")):
        print(f"error: no package sources at {os.path.join(ROOT, 'src', 'revivals')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    verdicts = {}
    try:
        for workload in names if args.workload == "all" else [args.workload]:
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
            _save(result)
            print("\n".join(report(result, spec)), flush=True)
            verdicts[workload] = _verdict(result, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(v["correct"] for v in verdicts.values()),
            "attempted": sum(v["attempted"] for v in verdicts.values()),
            "failed": sum(v["failed"] for v in verdicts.values()),
            "metrics": {f"{w}.{k}": m for w, v in verdicts.items() for k, m in v["metrics"].items()},
        }
    else:
        final = verdicts[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
