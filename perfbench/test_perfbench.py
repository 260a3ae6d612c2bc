"""Self-tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import revivals  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


@pytest.fixture
def workdir():
    path = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")
    os.makedirs(path)
    old = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(old)
        shutil.rmtree(path, ignore_errors=True)


def test_benchmark_json_names_match_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    reported = set(tracing.TIMES + tracing.COUNTS + tracing.ERRORS) | {
        "cli.out_bytes", "verify.max_rel_err", "trace.job_ms", "trace.accounted_ratio", "trace.overhead_ratio"
    }
    assert {e["name"] for e in SPEC["per_layer"]} == reported
    assert {e["name"] for e in SPEC["end_to_end"]} == {"setup_s", "wall_ref", "job_ref_p50", "job_ref_p90", "peak_rss_mb"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_one_job_list(workload):
    first = workloads.jobs_for(workload, 7)
    assert first == workloads.jobs_for(workload, 7)
    assert first != workloads.jobs_for(workload, 8)
    code = f"import json, workloads; print(json.dumps(workloads.jobs_for({workload!r}, 7)))"
    fresh = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True)
    assert json.loads(fresh.stdout) == json.loads(json.dumps(first))


def _small_cli_jobs() -> list[dict]:
    return [job for w in ("trace_export", "spectral_sweep") for job in workloads.warmup_jobs(w)]


def _corrupt(job: dict) -> None:
    """Change one value in the first data row, which verification always samples."""
    path = job["output"]
    if path.endswith(".pgm"):
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        offset = len(data) - job["params"]["nx"] * job["params"]["nt"]
        data[offset] = data[offset] + 3 if data[offset] < 250 else data[offset] - 3
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        return
    with open(path, encoding="ascii") as handle:
        lines = handle.read().split("\n")
    row = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1
    cells = lines[row].split(",")
    column = 2 if len(cells) > 2 else 1
    cells[column] = repr(float(cells[column]) + 0.01)
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines))


def test_outputs_verify_and_corrupted_outputs_fail(workdir):
    import random

    jobs = _small_cli_jobs()
    done = worker.run_pass(revivals, jobs, [workloads.cli_argv(j) for j in jobs], verify.Errors())
    assert done.failures == {}
    assert {j["command"] for j in jobs} == {"xptrace", "moment", "lx", "autocorr", "carpet", "pendulum"}
    for index, job in enumerate(jobs):
        errors = verify.Errors()
        verify.verify_output(revivals, job, job["output"], random.Random(index), errors)
        assert errors.max_rel < verify.RTOL
        _corrupt(job)
        with pytest.raises(verify.Mismatch):
            verify.verify_output(revivals, job, job["output"], random.Random(index), verify.Errors())


def test_truncated_output_fails(workdir):
    import random

    job = workloads.warmup_jobs("trace_export")[0]
    worker.run_pass(revivals, [job], [workloads.cli_argv(job)], verify.Errors())
    with open(job["output"], encoding="ascii") as handle:
        text = handle.read()
    with open(job["output"], "w", encoding="ascii") as handle:
        handle.write(text[: text.rindex("\n", 0, -1) + 1])
    with pytest.raises(verify.Mismatch, match="rows"):
        verify.verify_output(revivals, job, job["output"], random.Random(0), verify.Errors())


@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_oracle_checks_pass_and_catch_a_wrong_closed_form(check, monkeypatch):
    job = next(j for j in workloads.jobs_for("oracle_check", 1) if j["check"] == check)
    verify.CHECKS[check](revivals, job, verify.Errors())
    name = {"ladder": "ladder_moment", "autocorr": "autocorrelation", "lx": "lx_moment",
            "cat": "decompose_fractional"}[check]
    original = getattr(revivals, name)
    if check == "cat":
        def wrong(*args, **kwargs):
            cat = original(*args, **kwargs)
            return type(cat)(cat.m, cat.coefficients * 1.001, cat.component_labels, cat.time, cat.fidelity)
    else:
        def wrong(*args, **kwargs):
            return original(*args, **kwargs) * (1.0 + 1e-4)
    monkeypatch.setattr(revivals, name, wrong)
    with pytest.raises(verify.Mismatch):
        verify.CHECKS[check](revivals, job, verify.Errors())


def _namespace_snapshot():
    out = {}
    for module in [revivals] + [getattr(revivals, layer) for layer in tracing.LAYERS]:
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if isinstance(value, dict):
                out.update({(module.__name__, name, k): v for k, v in value.items()})
            elif isinstance(value, type):
                out.update({(module.__name__, name, k): v for k, v in vars(value).items()})
    return out


def test_tracer_rebinds_every_alias_and_restores_originals(workdir):
    before = _namespace_snapshot()
    originals = (revivals.moments.autocorrelation, revivals.spectra.Spectrum.energies,
                 revivals.cli._OBSERVABLES["x"], revivals.carpets.coherent_amplitudes)
    tracer = tracing.Tracer(revivals)
    tracer.install()
    try:
        assert revivals.cli.autocorrelation is revivals.moments.autocorrelation is not originals[0]
        assert revivals.autocorrelation is revivals.moments.autocorrelation
        assert revivals.spectra.Spectrum.energies is not originals[1]
        assert revivals.cli._OBSERVABLES["x"] is revivals.moments.expect_x is not originals[2]
        assert revivals.carpets.coherent_amplitudes is revivals.fock.coherent_amplitudes is not originals[3]
        job = workloads.warmup_jobs("spectral_sweep")[-1]
        tracer.begin_job(0)
        start = tracing.time.perf_counter_ns()
        assert revivals.cli.main(workloads.cli_argv(job)) == 0
        tracer.end_job(start, tracing.time.perf_counter_ns())
    finally:
        tracer.uninstall()
    assert _namespace_snapshot() == before

    metrics = tracer.metrics()
    assert metrics["cli.calls"] == 1 and metrics["fock.coherent_amplitudes.calls"] == 1
    assert metrics["carpets.carpet.cells"] == 24 * 24 * metrics["fock.levels"]
    root = tracer.spans[-1]
    ids = {span[0] for span in tracer.spans}
    assert all(span[1] in ids for span in tracer.spans[:-1])
    layer_ms = sum(metrics[tracing.layer_time_metric(layer)] for layer in tracing.LAYERS)
    assert 0 < layer_ms <= (root[6] - root[5]) / 1e6
    assert set(metrics) == set(tracing.TIMES + tracing.COUNTS + tracing.ERRORS)


def test_report_prints_every_metric_and_a_verdict():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "oracle_check", "--seed", "1",
         "--seconds", "0.2", "--trace", "0"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    verdict = json.loads(lines[-1])
    assert set(verdict) == {"correct", "attempted", "failed", "metrics"}
    assert verdict["correct"] and verdict["failed"] == 0
    for entry in SPEC["end_to_end"]:
        assert verdict["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert verdict["metrics"][entry["name"]]["value"] > 0
        assert any(line.split()[:1] == [entry["name"]] and line.endswith(entry["unit"]) for line in lines)
    for name in ("wall_s", "job_ms_p50", "job_ms_p90", "reference_ms", "out_mb_per_s", "checks_per_s", "fail_ratio",
                 "verify.max_rel_err"):
        assert any(line.split()[:1] == [name] for line in lines)

    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "oracle_check", "--seed", "1",
         "--seconds", "0.2", "--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().split("\n")[-1])["metrics"]
    assert {e["name"]: e["unit"] for e in SPEC["per_layer"]} == {k: v["unit"] for k, v in metrics.items()}


def test_refuses_to_run_without_the_package(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_check", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
