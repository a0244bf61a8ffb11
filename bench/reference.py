"""Fixed work that paces the host, so that timings can be given in reference
seconds.

The host this benchmark was written on changes speed by up to 2x, from one
fraction of a second to the next and for minutes at a time, and rot4 slows
down with everything else.  A run therefore times some reference work right
after every operation, and scales each time it reports by the speed of the
reference work done around it:

    scale = (units of reference work / units per reference second)
            / (their measured wall seconds)

A change to rot4 moves a scaled figure as it moves the wall-clock one,
because the reference work never calls rot4; a change in the host's speed
moves the operations and the reference work alike, and cancels.  There are
two kinds of reference work, one for operations inside the benchmark's
process and one for operations that start a process:

- the kernel: the benchmark's own Hamilton product and numpy on fixed
  inputs, mixing Python tuple arithmetic with small numpy calls as rot4
  does;
- a start: a fresh interpreter that imports numpy and exits, most of what
  starting rot4 costs, without rot4.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

import checks
import inputs

# kernel runs per reference second: about this host's median rate while it
# alternates kernel runs with rot4 operations
KERNEL_RATE = 40000.0
# fresh interpreters importing numpy per reference second: about this
# host's median rate
START_RATE = 10.0
START = [sys.executable, "-c", "import numpy"]

_A, _B = inputs.generic(np.random.default_rng(4_1504))
_I = np.eye(4)


def kernel() -> float:
    m = checks.rotation_matrix(_A, _B)
    q = checks.qmul(checks.qmul(_A, _B), checks.qconj(_A))
    return q[0] + float(np.linalg.svd(m - _I, compute_uv=False)[0]) + float(np.linalg.norm(m @ m.T - _I))


def kernel_seconds(runs: int) -> float:
    """Wall seconds of `runs` kernel runs, after one run that is not timed.
    That first run refills the caches that the operation before it used, so
    that the timed runs follow the host's speed rather than what the
    operation left in the caches."""
    kernel()
    t0 = time.perf_counter()
    for _ in range(runs):
        kernel()
    return time.perf_counter() - t0


def start_seconds(starts: int) -> float:
    """Wall seconds of `starts` fresh interpreters importing numpy, one
    after another."""
    t0 = time.perf_counter()
    for _ in range(starts):
        subprocess.run(START, capture_output=True, check=True)
    return time.perf_counter() - t0


class Pace(NamedTuple):
    """Reference work timed after each operation: `units` units of `work`,
    which a reference second holds `rate` of.  An operation's time is scaled
    by the work timed after the `window` operations around it."""

    work: Callable[[int], float]
    units: int
    rate: float
    window: int

    def seconds(self) -> float:
        """Wall seconds of the reference work after one operation."""
        return self.work(self.units)

    def scale(self, operations, seconds):
        """Reference seconds per wall second, from the work after
        `operations` operations that took `seconds`; elementwise on
        arrays."""
        return operations * self.units / self.rate / seconds


def kernel_pace(runs: int, window: int) -> Pace:
    return Pace(kernel_seconds, runs, KERNEL_RATE, window)


def start_pace(window: int) -> Pace:
    return Pace(start_seconds, 1, START_RATE, window)
