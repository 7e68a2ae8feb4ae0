"""A fixed pure-Python loop that measures how fast the host runs right now.

On a host whose cores are shared with other tenants, speed can change by up
to 2x within seconds, and CPU time tracks wall time, so neither escapes it.
The benchmark times this loop next to every request and reports each
latency scaled by REFERENCE_S / (loop time), so that it reads as if the
host ran at one fixed speed.  The loop does exact rational and dict work
like the program's and uses no wreathlitt code, so no change to the
program can move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.010  # the loop's time at the host's usual speed


def loop_seconds(repeats: int = 3) -> float:
    """Median time of the loop over a few repeats."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 3000):
            acc += Fraction(i % 97 + 1, i % 89 + 2)
            seen[i % 31, i % 17] = acc
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def scaled(seconds: float, loop_s: float) -> float:
    """A latency expressed at the reference host speed."""
    return seconds * REFERENCE_S / loop_s
