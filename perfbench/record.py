"""Description of the machine and software a run measured, kept beside its metrics."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys

import numpy as np

# Thread-count getters of the BLAS builds numpy ships or links against.
_THREAD_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "MKL_Get_Max_Threads",
)


def _blas_threads() -> tuple[str, int | None]:
    """Path of the loaded BLAS library and its current thread count, when it tells."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            paths = sorted({line.split()[-1] for line in maps if "blas" in line.lower() or "mkl" in line.lower()})
    except OSError:
        return "unknown", None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return os.path.basename(path), int(getter())
    return (os.path.basename(paths[0]) if paths else "unknown"), None


def _read(path: str) -> str:
    with open(path, encoding="ascii") as handle:
        return handle.read().strip()


def _caches() -> dict[str, str]:
    """Cache sizes of CPU 0 by level, e.g. {"L1d": "48K", "L2": "2048K"}."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        entries = sorted(e for e in os.listdir(base) if e.startswith("index"))
        for entry in entries:
            level, kind, size = (_read(os.path.join(base, entry, f)) for f in ("level", "type", "size"))
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            out[f"L{level}{suffix}"] = size
    except OSError:
        pass
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        ref = _read(os.path.join(git, "HEAD"))
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            return _read(path)
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as packed:
            for line in packed:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: str) -> str:
    """sha256 over the package sources, which names the code when there is no .git."""
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "revivals")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def run_record(root: str) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    library, threads = _blas_threads()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_library": library,
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "platform": platform.platform(),
        "executable": os.path.basename(sys.executable),
        "commit": _git_commit(root),
        "source_digest": _source_digest(root),
    }
