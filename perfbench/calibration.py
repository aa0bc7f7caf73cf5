"""Machine-speed correction for the timed metrics.

On a shared machine the speed available to one process drifts by tens of
percent within seconds (other tenants, the core a process lands on), and
it moves every timing with it.  The functions here time fixed pieces of
work of the kind the measured code does; a measurement taken between two
calibrations is scaled by a reference time over their mean, which gives the
time the measured work would have taken at reference speed.  The
calibrations touch no gllflow code, so a change to the package moves the
corrected time as it moves the raw one.  Raw times are kept next to the
corrected ones.
"""

from __future__ import annotations

from time import perf_counter

# Typical timings on the 2-core x86-64 box the bounds were set on, so that
# corrected times read close to seconds there.
REFERENCE_S = 0.007               # seconds()
REFERENCE_INTERPRETER_S = 0.0045  # interpreter_seconds()


def interpreter_seconds():
    """Fastest of three timings of a fixed pure-Python loop; imports nothing,
    so it can run before the import it brackets."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        s = 0.0
        for i in range(60000):
            s += i * 0.5
        best = min(best, perf_counter() - t0)
    return best


def seconds():
    """interpreter_seconds() plus the fastest of three timings of a loop of
    tiny-array numpy calls, the mix the jobs run."""
    import numpy as np

    best = float("inf")
    y = np.zeros(2, dtype=complex)
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(3000):
            z = np.array([y[0], y[1] * 2.0 + 1.0], dtype=complex)
            y[0] = z[0] * 0.5
        best = min(best, perf_counter() - t0)
    return interpreter_seconds() + best


def corrected(measured, cal_before, cal_after, reference=REFERENCE_S):
    """`measured` seconds rescaled to reference speed."""
    return measured * reference / (0.5 * (cal_before + cal_after))
