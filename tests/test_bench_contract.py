"""The benchmark's calls into the library: perfbench's checks and output verification.

perfbench/verify.py reaches the library by name (``ladder_product_matrix``,
``FockVector.padded``, ``lx_moment_oracle``, ...), and its jobs come from
perfbench/workloads.py. Both are loaded by path and run here on small jobs,
so a change that renames or reshapes a name the benchmark calls fails this
suite rather than only a benchmark run.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import revivals

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def verify():
    return _load("verify")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_oracle_check_job_passes(verify, workloads):
    jobs = workloads.jobs_for("oracle_check", 1)
    assert {job["check"] for job in jobs} == set(verify.CHECKS)
    errors = verify.Errors()
    for job in jobs:
        verify.CHECKS[job["check"]](revivals, job, errors)
    assert errors.max_rel <= verify.RTOL


@pytest.mark.parametrize("workload", ["trace_export", "spectral_sweep"])
def test_warmup_outputs_verify(workload, verify, workloads, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    errors = verify.Errors()
    jobs = workloads.warmup_jobs(workload)
    for index, job in enumerate(jobs):
        assert revivals.cli.main(workloads.cli_argv(job)) == 0, job
        verify.verify_output(revivals, job, job["output"], random.Random(index), errors)
    assert errors.max_rel <= verify.RTOL
