"""A fixed pure-Python loop, timed next to every measurement so that times
can be given at a fixed machine speed.

On a shared virtual machine a core's speed can drift by tens of percent
within seconds and between minutes. The loop runs no program code, so a
change to the program does not change its time. The benchmark multiplies a
measured time by REFERENCE_MS over the loop's time measured around it
("ref-" units). REFERENCE_MS is about the loop's time on the machine of
the first baseline (bench/results/baseline.json), so ref- figures stay
close to raw ones there.
"""

from __future__ import annotations

from time import perf_counter_ns

REFERENCE_ITERATIONS = 40_000
REFERENCE_MS = 3.0


def reference_ns() -> int:
    """Time of one pass of the reference loop."""
    start = perf_counter_ns()
    x = 0
    for i in range(REFERENCE_ITERATIONS):
        x += i * i
    return perf_counter_ns() - start
