"""Shared fixtures for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

import revivals


@pytest.fixture
def cli_env():
    """Environment for a ``python -m revivals`` child process.

    The child must import the same ``revivals`` this process imported,
    whatever its working directory. A relative ``PYTHONPATH`` such as
    ``src`` stops resolving once the child runs in ``tmp_path``, so the
    directory holding the package is prepended as an absolute path.
    """
    package_root = str(Path(revivals.__file__).resolve().parents[1])
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    return env


def ladder(truncation):
    """Truncated annihilation and creation matrices (a, a†) on levels 0..N, complex128.

    The tests' dense reference for the ladder operators: sqrt(n) placed on
    the superdiagonal by np.diag, sharing no code with the library's
    closed forms or oracles.
    """
    roots = np.sqrt(np.arange(1, truncation + 1, dtype=np.float64))
    a = np.diag(roots, k=1).astype(np.complex128)
    return a, a.T
