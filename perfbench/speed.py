"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the speed of one core drifts by tens of
percent over minutes, whatever runs on it, so raw wall times of the same
job move far more between runs than any change worth detecting.  Each
timing is therefore divided by the time of a fixed calibration loop run
just before and just after it, and reported in reference seconds: the
wall time the job would take on a core where the loop takes
``REFERENCE_S``.  The loop does the kind of work hypdiv does (exact
fractions, dicts, sorting, string formatting, random reads from a large
dict) and uses nothing from hypdiv, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from fractions import Fraction

# About the fastest the loop ran on the 2-vCPU x86-64 VM (Python 3.11.7)
# the benchmark was defined on.
REFERENCE_S = 0.25
_EXPECTED = (245379, 453557)


def _formatting_work() -> int:
    """Small exact fractions, dicts, sorting and formatting: cache-resident."""
    lines = []
    for i in range(3000):
        row = {j: Fraction(i * j % 17 + 1, j % 5 + 1) for j in range(i, i + 8)}
        items = sorted(row.items(), key=lambda kv: -kv[0])
        total = sum(v for _, v in items)
        lines.append(" ".join(f"{v}*x{k}" for k, v in items) + f" = {total}")
    return len("\n".join(lines))


def _memory_work() -> int:
    """Build a 120k-entry dict of fractions, larger than the CPU caches, and
    read it in pseudo-random order, so the loop feels contention for the
    shared caches the way hypdiv's large dicts do."""
    size = 120_000
    table = {i: Fraction(i % 97 + 1, i % 89 + 1) for i in range(size)}
    x = total = 0
    for _ in range(150_000):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        value = table[x % size]
        total += value.numerator - value.denominator
    return total


def _loop() -> float:
    """Seconds taken by the fixed calibration loop in this process.

    The collector is off during the loop, so its time does not depend on
    how many objects the process happens to hold.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = (_formatting_work(), _memory_work())
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if result != _EXPECTED:
        raise RuntimeError(f"calibration loop computed {result}, expected {_EXPECTED}")
    return elapsed


def calibrate() -> float:
    """Run the loop in a fresh interpreter, as a hypdiv job runs, and
    return its time.  A child also keeps the loop's heap out of the
    benchmark process, whose size would otherwise show in the peak RSS of
    the jobs it forks."""
    out = subprocess.run(
        [sys.executable, __file__], stdout=subprocess.PIPE, text=True, check=True, timeout=60
    )
    return float(out.stdout)


class Scaler:
    """Turns wall times into reference seconds.

    Every call to ``scale`` runs the loop once more, so each timing is set
    against the mean of the loops that bracket it.
    """

    def __init__(self):
        self._previous = calibrate()

    def scale(self, wall_s: float) -> float:
        current = calibrate()
        bracket = (self._previous + current) / 2
        self._previous = current
        return wall_s * REFERENCE_S / bracket


if __name__ == "__main__":
    print(repr(_loop()))
