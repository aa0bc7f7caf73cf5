import signal
from pathlib import Path

import numpy as np
import pytest

from gllflow.singular_ode import ProfileGrid, integrate_rk, origin_start

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
    return ProfileGrid(integrate_rk(ivp.rhs(), start.r0, start.y0, r_max, rel_tol=rel_tol))


def solution_content(sol):
    """Every array and count of a DenseSolution, with the dense rows of every
    step built."""
    return (sol.r, sol.y, sol.f, sol.rows(np.arange(sol.r.size - 1)), sol.steps_accepted,
            sol.steps_rejected, sol.rhs_evals)


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
