"""CPU times put on one speed scale, whatever the host's load.

``cpu()`` is the whole process's CPU time, all its threads, plus that of
its finished child processes, so work the program hands to a thread or
a process pool is charged to the request that caused it.

On a shared virtual machine the CPU time of identical work drifts by half
or more over seconds to minutes, as other tenants load the host.  A fixed
pure-Python reference loop, run between requests, measures that drift
where it happens: each request's CPU time is multiplied by NOMINAL_S over
the median cost of the reference runs nearest to it.  Calibrated times
are thus the times the same work takes when the reference loop costs
NOMINAL_S, which is about its cost on an unloaded 2-vCPU Intel Xeon VM.
The reference loop belongs to the benchmark, so no change to the program
can move it.
"""

from __future__ import annotations

import bisect
import resource
import statistics
import time

NOMINAL_S = 0.00075
PROBE_EVERY_S = 0.025
WINDOW = 9


def cpu() -> float:
    """CPU seconds of this process and of its children that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference() -> int:
    """Fixed work in the program's idiom: bit loops, indexing, a dict."""
    acc = 0
    table = list(range(32))
    seen: dict = {}
    for i in range(600):
        mask = (i * 2654435761) & 0xFFFF
        while mask:
            low = mask & -mask
            acc += table[low.bit_length() & 31]
            mask ^= low
        key = (i & 63, acc & 7)
        seen[key] = seen.get(key, 0) + 1
    return acc


class SpeedProbe:
    """Reference-loop costs with the wall time each was taken at."""

    def __init__(self) -> None:
        self.when: list[float] = []
        self.cost: list[float] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            started = cpu()
            reference()
            self.cost.append(cpu() - started)
            self.when.append(time.perf_counter())

    def due(self) -> bool:
        return time.perf_counter() - self.when[-1] >= PROBE_EVERY_S

    def scale(self, when: float) -> float:
        """NOMINAL_S over the median cost of the WINDOW probes nearest ``when``."""
        mid = bisect.bisect_left(self.when, when)
        lo = max(0, min(mid - WINDOW // 2, len(self.cost) - WINDOW))
        return NOMINAL_S / statistics.median(self.cost[lo:lo + WINDOW])
