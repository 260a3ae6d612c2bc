"""Seeded job lists for the benchmark workloads.

A job is a plain dict, so the same seed always yields an equal list and the
list can be compared, printed or written out. Two kinds exist:

* ``cli`` jobs hold a command and its flag values; ``cli_argv`` turns them
  into the argv list handed to ``revivals.cli.main``. The output file name
  is relative to the worker's scratch directory.
* ``check`` jobs name one closed-form-vs-oracle comparison and its inputs.

Every slot of a workload has a fixed size (sample count, grid, mean photon
number) and a fixed code path (command, observable, order, spectrum) that
the seed does not choose; the seed jitters the sizes by a few percent and
chooses the labels, phases and times. The work in one pass therefore barely
depends on the seed, so runs with different seeds can be compared, while the
states themselves change from seed to seed.

Why each workload exists:

* ``trace_export``: CLI traces and CSV carpets at nu <= 10 with 1k-20k
  samples. Formatting numbers into text is almost all of the job time, so a
  serializer change shows here and a compute change should not.
* ``spectral_sweep``: CLI ``autocorr`` at nu 100-2500 (about 800 samples)
  on three integer spectra and PGM carpets of about 600x600 at nu 10-200. Outputs are small
  and the phase contraction dominates, so spectral folding shows here. A
  third of the jobs use a ``--t-max`` that is not commensurate with the
  revival time and keep exercising the dense route.
* ``oracle_check``: library calls at one scalar time each, comparing a
  closed form with its dense oracle at nu <= 40. Many small calls instead of
  wide arrays, so added per-call set-up shows here as a loss.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("trace_export", "spectral_sweep", "oracle_check")

SPECTRA = ("kerr", "harmonic", "square_well")


def _geometric(lo: float, hi: float, count: int) -> list[float]:
    return [lo * (hi / lo) ** (k / (count - 1)) for k in range(count)]


def _jitter(rng: random.Random, value: float, frac: float = 0.02) -> float:
    return value * (1.0 + frac * (2.0 * rng.random() - 1.0))


def _label(rng: random.Random, nu: float) -> tuple[float, float]:
    """Phase-space label (p, q) with mean photon number nu at a random angle."""
    radius = math.sqrt(2.0 * nu)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return radius * math.cos(angle), radius * math.sin(angle)


def _cli(command: str, output: str, **params) -> dict:
    return {"kind": "cli", "command": command, "params": params, "output": output}


def cli_argv(job: dict) -> list[str]:
    """Argv for ``revivals.cli.main``; floats print with repr so they parse back exactly."""
    argv = [job["command"]]
    for name, value in job["params"].items():
        argv += ["--" + name.replace("_", "-"), repr(value) if isinstance(value, float) else str(value)]
    return argv + ["-o", job["output"]]


# Sample counts of the 13 trace slots of trace_export, log-spaced over
# 1k..20k and dealt to the slots in a fixed order so every seed pays the
# same formatting bill per slot.
_TRACE_SAMPLES = _geometric(1_000, 20_000, 13)
_TRACE_ORDER = (12, 3, 7, 0, 10, 5, 9, 1, 11, 6, 2, 8, 4)


def _trace_export(rng: random.Random) -> list[dict]:
    samples = iter(int(round(_jitter(rng, _TRACE_SAMPLES[k]))) for k in _TRACE_ORDER)
    nus = iter(_geometric(1.0, 10.0, 13))
    jobs: list[dict] = []

    def name(command: str, ext: str = "csv") -> str:
        return f"{len(jobs):02d}_{command}.{ext}"

    def chi() -> float:
        return rng.uniform(0.5, 4.0)

    for observable in ("x", "p", "x2", "p2", "dxdp"):
        p, q = _label(rng, _jitter(rng, next(nus)))
        jobs.append(_cli("xptrace", name("xptrace"), observable=observable, p=p, q=q,
                         chi=chi(), samples=next(samples)))
    for r, s in ((0, 2), (2, 1)):
        p, q = _label(rng, _jitter(rng, next(nus)))
        jobs.append(_cli("moment", name("moment"), r=r, s=s,
                         p=p, q=q, chi=chi(), samples=next(samples)))
    for n in (1, 2, 3, 4):
        nu = _jitter(rng, next(nus))
        split = rng.uniform(0.3, 0.7)
        p2, q2 = _label(rng, nu * split)
        p3, q3 = _label(rng, nu * (1.0 - split))
        jobs.append(_cli("lx", name("lx"), n=n, p2=p2, q2=q2, p3=p3, q3=q3,
                         chi=chi(), samples=next(samples)))
    for spectrum in ("kerr", "square_well"):
        p, q = _label(rng, _jitter(rng, next(nus)))
        jobs.append(_cli("autocorr", name("autocorr"), spectrum=spectrum,
                         p=p, q=q, chi=chi(), samples=next(samples)))
    for nu, spectrum in ((3.0, "harmonic"), (8.0, "kerr")):
        p, q = _label(rng, _jitter(rng, nu))
        jobs.append(_cli("carpet", name("carpet"), spectrum=spectrum, p=p, q=q, chi=chi(),
                         nx=int(round(_jitter(rng, 140))), nt=int(round(_jitter(rng, 140)))))
    for _ in range(3):
        k = rng.randint(2, 6)
        j = rng.choice([j for j in range(1, k) if math.gcd(j, k) == 1])
        jobs.append(_cli("pendulum", name("pendulum"), count=120,
                         base_cycles=30, t_rev=rng.uniform(0.5, 2.0),
                         amplitude=rng.uniform(0.5, 2.0), at=j / k))
    return jobs


def _spectral_sweep(rng: random.Random) -> list[dict]:
    jobs: list[dict] = []
    # Slots 2, 5 and 8 of each kind stop at a --t-max that no revival period
    # divides, so the dense route keeps a share of the work after folding.
    for slot, nu in enumerate(_geometric(100.0, 2500.0, 9)):
        p, q = _label(rng, _jitter(rng, nu))
        chi = rng.uniform(0.5, 4.0)
        params = dict(spectrum=SPECTRA[slot % 3], p=p, q=q, chi=chi,
                      samples=801 - rng.randint(0, 16))
        if slot % 3 == 2:
            params["t_max"] = math.pi / chi * rng.uniform(0.6, 0.95)
        jobs.append(_cli("autocorr", f"{len(jobs):02d}_autocorr.csv", **params))
    for slot, nu in enumerate(_geometric(10.0, 200.0, 9)):
        p, q = _label(rng, _jitter(rng, nu))
        chi = rng.uniform(0.5, 4.0)
        params = dict(spectrum=SPECTRA[(slot + 1) % 3], p=p, q=q, chi=chi,
                      nx=int(round(_jitter(rng, 600))), nt=int(round(_jitter(rng, 600))),
                      format="pgm")
        if slot % 3 == 2:
            params["t_max"] = math.pi / chi * rng.uniform(0.6, 0.95)
        jobs.append(_cli("carpet", f"{len(jobs):02d}_carpet.pgm", **params))
    return jobs


def _oracle_check(rng: random.Random) -> list[dict]:
    jobs: list[dict] = []

    def check(kind: str, nu: float, timed: bool = True, **extra) -> None:
        chi = rng.uniform(0.5, 2.0)
        job = {"kind": "check", "check": kind, "chi": chi, **extra}
        if timed:
            job["t"] = rng.uniform(0.0, math.pi / chi)
        if kind == "lx":
            split = rng.uniform(0.3, 0.7)
            job["p2"], job["q2"] = _label(rng, _jitter(rng, nu * split))
            job["p3"], job["q3"] = _label(rng, _jitter(rng, nu * (1.0 - split)))
        else:
            job["p"], job["q"] = _label(rng, _jitter(rng, nu))
        jobs.append(job)

    orders = [(i, j) for i in range(4) for j in range(4) if i + j > 0]
    for slot, nu in enumerate(_geometric(1.0, 40.0, 96)):
        i, j = orders[slot % len(orders)]
        check("ladder", nu, i=i, j=j)
    for slot, nu in enumerate(_geometric(1.0, 40.0, 60)):
        check("autocorr", nu, spectrum=SPECTRA[slot % 3])
    for slot, nu in enumerate(_geometric(1.0, 12.0, 32)):
        check("lx", nu, n=slot % 4 + 1)
    for slot, nu in enumerate(_geometric(1.0, 40.0, 30)):
        check("cat", nu, timed=False, m=slot % 5 + 2)
    return jobs


_BUILDERS = {
    "trace_export": _trace_export,
    "spectral_sweep": _spectral_sweep,
    "oracle_check": _oracle_check,
}


def jobs_for(workload: str, seed: int) -> list[dict]:
    """The fixed job list of one pass over the workload for this seed."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"))


#: Parameters that select a code path rather than a size.
_SHAPE_KEYS = ("command", "check", "observable", "n", "m", "spectrum", "format")


def warmup_jobs(workload: str) -> list[dict]:
    """One small seed-independent job per code path of the workload (caches, first calls)."""
    seen, warm = set(), []
    for job in jobs_for(workload, 0):
        params = job.get("params", job)
        key = tuple(job.get(k, params.get(k)) for k in _SHAPE_KEYS)
        if key in seen:
            continue
        seen.add(key)
        if "samples" in params:
            params["samples"] = 101
        if "nx" in params:
            params["nx"] = params["nt"] = 24
        warm.append(job)
    return warm
