"""Machine-speed calibration, so that time metrics do not follow the host.

On a shared VM the speed of one process switches between levels up to
2x apart for seconds to minutes at a time, and a Python program slows
nearly as a whole.  A raw time then says more about the host's
moment than about the program.  So the benchmark runs a fixed reference
kernel at short intervals next to the work it times, and reports each
time in *reference seconds*: the measured time times ``REFERENCE_S``
over the kernel's time measured around it.  A program that gets 10%
slower reads 10% higher whatever the host's speed; raw times are
printed beside the reported ones.

Interpreter start-up follows the host less closely than Python code
does, so set-up time has its own reference: a spawn of an interpreter
that imports only standard modules (``REFERENCE_SPAWN``), timed next to
each spawn of the program, and ``REFERENCE_SPAWN_S`` in place of
``REFERENCE_S``.

The kernel imitates the program's own work (tuple reflections into a
set, and integer scans) and imports nothing from it, so no change to the
program moves it.  Of the candidate parts tried (these two, 4x4 matrix
products of tuples, JSON emission), these two tracked the slow level of
all three workloads best; the others slow down more than the program
does.  Do not change the kernel, the reference spawn or their reference
times: they define the unit of every time metric, and a change makes
figures from before and after it incomparable.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

# One kernel call on the reference machine: a shared 2-vCPU Xeon VM at
# its faster speed level (2.3-2.6 ms there; 3.6-3.9 ms at the slower one).
REFERENCE_S = 0.0024

# Code of the reference spawn, and its time on the same machine and level.
REFERENCE_SPAWN = "import argparse, json, fractions, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
REFERENCE_SPAWN_S = 0.05


def _reflections(depth: int) -> int:
    seen = {(0, 1, 1, 1)}
    frontier = [(0, 1, 1, 1)]
    for _ in range(depth):
        nxt = []
        for a, b, c, d in frontier:
            for q in ((2 * (b + c + d) - a, b, c, d), (a, 2 * (a + c + d) - b, c, d),
                      (a, b, 2 * (a + b + d) - c, d), (a, b, c, 2 * (a + b + c) - d)):
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def _scan(n: int) -> int:
    total = 0
    for w in range(n):
        r = 123456789 - w * w
        if r % 7 == 3:
            total += r // 3
    return total


def kernel() -> float:
    """Run the reference kernel once and return its seconds.  The garbage
    collector is off meanwhile, so the size of the caller's heap does not
    change the kernel's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(2):
            _reflections(6)
            _scan(8000)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def warm_up(n: int = 5) -> None:
    for _ in range(n):
        kernel()


class Speed:
    """Kernel samples ``(time, seconds)`` taken during a run, and the scale
    that turns a time measured over an interval into reference seconds."""

    WINDOW_S = 1.0  # samples this far either side of an interval count
    MIN_SAMPLES = 3

    def __init__(self, samples):
        samples = sorted(samples)
        self.times = [t for t, _ in samples]
        self.secs = [s for _, s in samples]

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        if hi - lo < self.MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - self.MIN_SAMPLES // 2 - 1, len(self.times) - self.MIN_SAMPLES))
            hi = min(len(self.times), lo + self.MIN_SAMPLES)
        return REFERENCE_S / statistics.median(self.secs[lo:hi])
