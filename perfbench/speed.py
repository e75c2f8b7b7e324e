"""Core-speed reference for the benchmark's times.

On a host whose physical cores are shared with other tenants, the speed of a
vCPU drifts: on a 2-vCPU Xeon VM the same numeric pass, in the same process,
takes anywhere from 0.38 s to 0.78 s within a minute, and CPU time tracks wall
time, so the core itself runs slower.  A fixed pure-Python reference loop
slows down with it.  Timing that loop right before and right after a timed
op gives the core's speed during the op, and the op's time is reported at
the reference speed:

    time at reference speed = measured time * REFERENCE_S / reference loop time

The reference loop calls no library code, so a change to the library moves
the reported time by the same share as the measured one.  The process and
its children are pinned to one CPU, so the loop and the op run on the same
vCPU.
"""

from __future__ import annotations

import math
import os
import time

# Wall time of one `reference_work()` at the speed the reported times are
# scaled to; about the loop's time on an uncontended core of the baseline
# machine (see perfbench/README.md).
REFERENCE_S = 0.007
_BIG = 3**1500
_MODULUS = 7**1400 + 1


def _term(x: float) -> float:
    return math.exp(-x) * math.cosh(0.5 * x) + math.log1p(x)


def reference_work() -> float:
    """Fixed work of the kinds the library does: float arithmetic, libm calls
    through a Python function, and big-integer products."""
    total = 0.0
    for i in range(12_000):
        total += _term(i * 1e-4) + i * 0.5
    n = _BIG
    for _ in range(80):
        n = n * n % _MODULUS
    return total + (n & 1)


def probe() -> float:
    """Wall seconds of one reference loop."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)


def pin_to_one_cpu() -> int | None:
    """Pin this process, and the children it starts, to its lowest allowed CPU."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu
