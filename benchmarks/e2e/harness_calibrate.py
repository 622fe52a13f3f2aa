"""Calibration of host time against a fixed reference loop.

On a shared 2-vCPU machine the speed of a vCPU drifts by up to ~40% over
seconds to tens of seconds as other tenants' work comes and goes (user
CPU time drifts with it, so this is not steal time): far more than any
bound worth gating on.  The benchmark therefore times a benchmark-owned
pure-Python loop in its own process right before and right after every
measured pass, and reports times scaled by ``REFERENCE_NOMINAL_S /
reference``.  Drift of the machine cancels; a change in the program's own
speed does not, because the loop is not the program's code.

Measured over ten 20-s runs per workload, this cut the run-to-run spread
(IQR/median) of pass times from 7-30% to 2-10%.  Timing the loop on every
CPU at once in pinned workers, with longer loops, or with a memory-bound
walk instead tracked the drift no better.
"""

from __future__ import annotations

import time

REFERENCE_NOMINAL_S = 0.0135
"""One :func:`reference_loop` on an uncontended vCPU of the 2-vCPU Xeon
VM the benchmark was written on: calibrated times are in its seconds."""


def reference_loop() -> float:
    """Wall time of one run of the fixed reference loop, in seconds."""
    started = time.perf_counter()
    total, table = 0, {}
    for i in range(150_000):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - started


def reference_s() -> float:
    """Fastest of three reference loops: the machine's current speed."""
    return min(reference_loop() for _ in range(3))


def calibration(before: float, after: float) -> float:
    """Factor from host seconds measured between two reference timings
    to seconds of the nominal machine."""
    return REFERENCE_NOMINAL_S / ((before + after) / 2)
