from pathlib import Path

import numpy as np
import pytest

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
