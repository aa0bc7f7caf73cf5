import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gllflow.singular_ode import integrate_rk, origin_start

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gllflow"

# one line per acceptance criterion, echoed in the terminal summary
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
    # the package's size, counted as `wc -l src/gllflow/*.py` counts it
    terminalreporter.section("src/gllflow lines")
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted(PACKAGE.glob("*.py"))}
    for name, lines in counts.items():
        terminalreporter.write_line(f"{lines:6d} {name}")
    terminalreporter.write_line(f"{sum(counts.values()):6d} total")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def smooth_bump(r, center, width):
    """C-infinity bump supported on |r - center| < width."""
    t = (np.asarray(r, float) - center) / width
    return np.where(np.abs(t) < 1.0,
                    np.exp(1.0 - 1.0 / np.maximum(1e-300, 1.0 - t**2)), 0.0)


def solve_from_origin(ivp, r_max, rel_tol):
    """The complex-spec solve of a singular problem: its `origin_start`,
    carried out to r_max by `integrate_rk`."""
    start = origin_start(ivp, rel_tol)
    return integrate_rk(ivp.rhs(), start.r0, start.y0, r_max, rel_tol=rel_tol)


def solution_content(sol):
    """Every array and count of a DenseSolution, with the dense rows of every
    step built."""
    return (sol.r, sol.y, sol.f, sol.rows(np.arange(sol.r.size - 1)), sol.steps_accepted,
            sol.steps_rejected, sol.rhs_evals)


def digests_by_openblas_kernel(script):
    """The stdout of `python -c script` under each OpenBLAS kernel that ran,
    by kernel name; skips the test unless Haswell and Sandybridge both did
    (OPENBLAS_VERBOSE=2 reports the kernel a process runs)."""
    digests = {}
    for core in ("Haswell", "Sandybridge", "SkylakeX"):
        env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2",
                   OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(PACKAGE.parent))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        if f"Core: {core}" in proc.stderr:
            digests[core] = proc.stdout
    if not {"Haswell", "Sandybridge"} <= digests.keys():
        pytest.skip(f"OpenBLAS ran only {sorted(digests)} of the kernels asked for")
    return digests


@pytest.fixture
def deadline():
    """Fail a test that runs past 20 s instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("no result within 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
