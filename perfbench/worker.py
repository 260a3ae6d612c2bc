"""One workload in one fresh interpreter; started by run.py.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (start, import revivals, run the warm-up jobs, report
ready and exit), ``measure`` (then timed passes with tracing off) or
``trace`` (untraced passes, then traced passes with the layer wrappers
installed). A pass sends the workload's jobs one at a time, each only after
the previous one has finished (a closed loop with a single client).

On stdout the worker writes one line ``ready <CLOCK_MONOTONIC ns>`` when
set-up is done and, in the measuring modes, a last line holding the result
as JSON. Whatever the package prints goes to /dev/null. It writes job
outputs to a private directory under ``perfbench/.work`` and removes it.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from record import run_record
from tracing import LAYERS, Tracer, layer_time_metric
from verify import CHECKS, Errors, Mismatch, verify_output
from workloads import cli_argv, jobs_for, warmup_jobs

#: Latency samples the 90th percentile needs so that at least ten lie beyond it.
MIN_LATENCIES = 110
MIN_PASSES = 3


def min_passes(jobs: list[dict]) -> int:
    return max(MIN_PASSES, -(-MIN_LATENCIES // len(jobs)))


#: Seconds between two timings of the reference computation during the passes.
REFERENCE_EVERY_S = 0.25
_REFERENCE_FLOATS = [math.sin(0.7 * k) for k in range(3000)]
_REFERENCE_PHASES = np.sin(0.37 * np.arange(80_000)).reshape(200, 400)
_REFERENCE_WEIGHTS = np.cos(0.11 * np.arange(400))


def reference_ns() -> int:
    """Time of a fixed computation that never calls the package, about 15 ms.

    The speed of a shared host swings by up to 1.8x, in stretches that last
    from seconds to a minute, so a whole 30 s run can fall in a fast or a
    slow stretch. Timed just before a pass, this computation slows with the
    host and not with the package: the pass divided by it keeps what the
    package costs and drops most of what the host does. Its parts are the
    kinds of work the workloads do: Python-level float formatting, and
    complex exponentials over a NumPy array contracted with a vector, each
    three times, the first of them with the caches the last pass left.
    """
    start = time.perf_counter_ns()
    for _ in range(3):
        ",".join(format(v, ".17g") for v in _REFERENCE_FLOATS)
    for _ in range(3):
        np.exp(1j * _REFERENCE_PHASES) @ _REFERENCE_WEIGHTS
    return time.perf_counter_ns() - start


def _load_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import revivals

    if not os.path.abspath(revivals.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"imported revivals from {revivals.__file__}, not from {src}")
    return revivals


class Pass:
    """Latencies and failures of one traversal of the job list."""

    def __init__(self) -> None:
        self.latencies_ns: list[int] = []
        self.wall_ns = 0
        self.failures: dict[int, str] = {}
        self.out_bytes = 0
        self.reference_ns = 0
        self.layers: dict[str, float] = {}
        self.spans: list[tuple] = []


def run_pass(R, jobs: list[dict], argvs: list, errors: Errors, tracer: Tracer | None = None) -> Pass:
    clock = time.perf_counter_ns
    result = Pass()
    start = clock()
    for index, (job, argv) in enumerate(zip(jobs, argvs)):
        if tracer is not None:
            tracer.begin_job(index)
        t0 = clock()
        try:
            if argv is None:
                CHECKS[job["check"]](R, job, errors)
            else:
                try:
                    code = R.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                if code != 0:
                    result.failures[index] = f"exit status {code}"
        except Exception:  # a failing job is counted, not fatal
            result.failures[index] = traceback.format_exc(limit=-3)
        t1 = clock()
        if tracer is not None:
            tracer.end_job(t0, t1)
        result.latencies_ns.append(t1 - t0)
    result.wall_ns = clock() - start
    result.out_bytes = sum(
        os.path.getsize(job["output"])
        for index, job in enumerate(jobs)
        if job["kind"] == "cli" and index not in result.failures
    )
    return result


def _passes(R, jobs, argvs, errors, seconds: float, tracer=None) -> list[Pass]:
    """Whole passes until `seconds` have gone and enough latencies are in.

    One untimed pass and one untimed reference come first: the warm-up jobs
    are small, and the first full-size pass still grows the heap. Before a
    pass, the reference computation is timed again once REFERENCE_EVERY_S
    have gone since its last timing; each pass carries the latest one.
    """
    run_pass(R, jobs, argvs, errors, tracer)
    reference_ns()
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    next_reference = 0.0
    while time.perf_counter() < deadline or len(passes) < min_passes(jobs):
        if time.perf_counter() >= next_reference:
            reference = reference_ns()
            next_reference = time.perf_counter() + REFERENCE_EVERY_S
        if tracer is not None:
            tracer.reset()
        passes.append(run_pass(R, jobs, argvs, errors, tracer))
        passes[-1].reference_ns = reference
        if tracer is not None:
            passes[-1].layers = tracer.metrics()
            passes[-1].spans = tracer.spans
    return passes


def _verify(R, jobs: list[dict], failures: dict[int, str], seed: int, errors) -> dict[int, str]:
    """Check every output the last pass wrote; returns the jobs that failed."""
    bad = {}
    for index, job in enumerate(jobs):
        if job["kind"] != "cli" or index in failures:
            continue
        rng = random.Random(f"verify/{seed}/{index}")
        try:
            verify_output(R, job, job["output"], rng, errors)
        except (Mismatch, OSError, ValueError) as exc:
            bad[index] = f"{job['output']}: {exc}"
    return bad


def _summary(passes: list[Pass], jobs: list[dict]) -> dict:
    """End-to-end figures of the measured passes, as medians over the whole run.

    ``wall_s`` is the median pass. ``job_ms_p50`` is the median job's
    latency: the median over jobs of each job's median over passes.
    ``job_ms_p90`` pools every latency of the run, so at least ten lie beyond
    it. The ``*_ref`` figures are the same three with every pass and latency
    first divided by the reference time its pass carries (see reference_ns).
    """
    def figures(scale: list[float]) -> tuple[float, float, float]:
        walls = [p.wall_ns * k for p, k in zip(passes, scale)]
        job_medians = [statistics.median(p.latencies_ns[j] * k for p, k in zip(passes, scale))
                       for j in range(len(jobs))]
        latencies = [ns * k for p, k in zip(passes, scale) for ns in p.latencies_ns]
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        return statistics.median(walls), statistics.median(job_medians), p90

    wall_ms, job_ms_p50, job_ms_p90 = figures([1e-6] * len(passes))
    wall_ref, job_ref_p50, job_ref_p90 = figures([1.0 / p.reference_ns for p in passes])
    job_s = sum(sum(p.latencies_ns) for p in passes) / 1e9
    checks = sum(1 for job in jobs if job["kind"] == "check") * len(passes)
    out_mb = sum(p.out_bytes for p in passes) / 1e6
    return {
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "latency_samples": len(passes) * len(jobs),
        "beyond_p90": sum(1 for p in passes for ns in p.latencies_ns if ns / 1e6 > job_ms_p90),
        "pass_wall_s": [p.wall_ns / 1e9 for p in passes],
        "pass_reference_ms": [p.reference_ns / 1e6 for p in passes],
        "pass_latencies_ms": [[ns / 1e6 for ns in p.latencies_ns] for p in passes],
        "wall_s": wall_ms / 1e3,
        "job_ms_p50": job_ms_p50,
        "job_ms_p90": job_ms_p90,
        "reference_ms": statistics.median(p.reference_ns for p in passes) / 1e6,
        "wall_ref": wall_ref,
        "job_ref_p50": job_ref_p50,
        "job_ref_p90": job_ref_p90,
        "out_mb_per_s": out_mb / job_s if out_mb else None,
        "checks_per_s": checks / job_s if checks else None,
        "out_bytes_per_pass": passes[-1].out_bytes,
    }


def _median_pass_ref(passes: list[Pass]) -> float:
    return statistics.median(p.wall_ns / p.reference_ns for p in passes)


def _layer_metrics(passes: list[Pass], untraced: list[Pass]) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over traced passes of per-pass values."""
    problems = []
    metrics = {}
    for name, value in passes[0].layers.items():
        values = [p.layers[name] for p in passes]
        if isinstance(value, float):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = value
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced passes: {values}")
    metrics["cli.out_bytes"] = passes[0].out_bytes
    job_ms = statistics.median(sum(p.latencies_ns) / 1e6 for p in passes)
    layer_ms = sum(metrics[layer_time_metric(layer)] for layer in LAYERS)
    metrics["trace.job_ms"] = job_ms
    metrics["trace.accounted_ratio"] = layer_ms / job_ms
    metrics["trace.overhead_ratio"] = _median_pass_ref(passes) / _median_pass_ref(untraced)
    return metrics, problems


def main(argv: list[str]) -> int:
    root, workload, seed, seconds, mode = argv[0], argv[1], int(argv[2]), float(argv[3]), argv[4]
    R = _load_package(root)
    protocol = sys.stdout
    work = os.path.join(root, "perfbench", ".work", f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        os.chdir(work)
        with open(os.devnull, "w") as sink:
            sys.stdout = sink
            try:
                return _run(R, root, workload, seed, seconds, mode, protocol)
            finally:
                sys.stdout = protocol
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)


def _argvs(jobs: list[dict]) -> list:
    return [cli_argv(job) if job["kind"] == "cli" else None for job in jobs]


def _run(R, root: str, workload: str, seed: int, seconds: float, mode: str, protocol) -> int:
    warm = warmup_jobs(workload)
    warm_pass = run_pass(R, warm, _argvs(warm), Errors())
    if warm_pass.failures:
        for index, message in warm_pass.failures.items():
            print(f"warm-up job {warm[index]} failed: {message}", file=sys.stderr)
        return 1
    print("ready", time.clock_gettime_ns(time.CLOCK_MONOTONIC), file=protocol, flush=True)
    if mode == "setup":
        return 0

    jobs = jobs_for(workload, seed)
    argvs = _argvs(jobs)
    errors = Errors()
    result: dict = {"mode": mode}
    if mode == "measure":
        passes = _passes(R, jobs, argvs, errors, seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        every_pass = passes
    else:
        untraced = _passes(R, jobs, argvs, errors, seconds / 2)
        tracer = Tracer(R)
        tracer.install()
        try:
            passes = _passes(R, jobs, argvs, errors, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        result["layers"], result["problems"] = _layer_metrics(passes, untraced)
        _write_spans(root, workload, seed, passes[-1].spans)
        every_pass = untraced + passes
    failed_jobs: dict[int, str] = {}
    for p in every_pass:
        failed_jobs.update(p.failures)
    failed_jobs.update(_verify(R, jobs, failed_jobs, seed, errors))
    result.update(_summary(passes, jobs))
    result["attempted"] = sum(len(p.latencies_ns) for p in every_pass)
    # A job whose output is wrong is wrong in every pass: the program is deterministic.
    result["failed"] = sum(len(set(p.failures) | set(failed_jobs)) for p in every_pass)
    result["failures"] = [f"job {i}: {m}" for i, m in sorted(failed_jobs.items())]
    result["max_rel_err"] = errors.max_rel
    result["record"] = run_record(root)
    print(json.dumps(result), file=protocol, flush=True)
    return 0


def _write_spans(root: str, workload: str, seed: int, spans: list) -> None:
    folder = os.path.join(root, "perfbench", "results")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"spans-{workload}-seed{seed}.jsonl")
    fields = ("id", "parent", "job", "layer", "name", "start_ns", "end_ns")
    with open(path, "w", encoding="ascii") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(fields, span))) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
