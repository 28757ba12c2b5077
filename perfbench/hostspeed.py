"""How fast the host runs Python while a measured run goes on.

The benchmark runs on a few vCPUs of a shared host whose speed drifts,
by up to about 2x, over seconds and minutes; the run's own CPU time
drifts with it.  :class:`HostSpeed` samples that speed during a run: an
interval timer interrupts the run every :data:`INTERVAL_S` and times a
fixed miniature event loop -- heap-ordered events over a few stations
with method dispatch and float arithmetic, the kind of work the
simulator does, but none of its code.  The loop's input never changes,
so its CPU time measures only the host.  A run's time divided by the
loop's mean time beside it is the run's cost in reference-loop units,
which stays put while the host drifts.

Signal handlers run in the main thread only and are not armed in forked
children: forked processes do not inherit interval timers.
"""

from __future__ import annotations

import heapq
import random
import signal
import time
from typing import List, Tuple

#: Seconds between two samples, and events in one sample (about 1 ms of
#: CPU on a 2-vCPU VM, so sampling costs under 2% of a run).
INTERVAL_S = 0.05
SAMPLE_EVENTS = 1000
#: Share of samples dropped at each end before averaging: a sample the
#: guest scheduler or a page fault interrupts reads long.
TRIM = 0.1

_WORKS = [random.Random(3).expovariate(100.0) for _ in range(SAMPLE_EVENTS)]


class _Station:
    __slots__ = ("busy", "served")

    def __init__(self) -> None:
        self.busy = 0.0
        self.served = 0

    def serve(self, now: float, work: float) -> float:
        self.busy += work
        self.served += 1
        return now + work


def reference_loop() -> float:
    """One sample: simulated time reached by a fixed event loop."""
    stations = [_Station() for _ in range(8)]
    heap = [(0.0, i) for i in range(len(stations))]
    now = 0.0
    for work in _WORKS:
        now, i = heapq.heappop(heap)
        heapq.heappush(heap, (stations[i].serve(now, work), i))
    return now


class HostSpeed:
    """Samples the reference loop during a block; see the module doc."""

    def __init__(self) -> None:
        #: (wall start, wall seconds, CPU seconds) of each sample.
        self.samples: List[Tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        reference_loop()
        t1, c1 = time.perf_counter(), time.process_time()
        self.samples.append((t0, t1 - t0, c1 - c0))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if not self.samples:
            self._sample(signal.SIGALRM, None)
        signal.signal(signal.SIGALRM, self._previous)

    def loop_cpu_s(self) -> float:
        """Trimmed mean CPU seconds of one sample."""
        cpu = sorted(c for _, _, c in self.samples)
        k = int(len(cpu) * TRIM)
        kept = cpu[k:len(cpu) - k]
        return sum(kept) / len(kept)

    def spent(self, start: float, end: float) -> Tuple[float, float]:
        """Wall and CPU seconds the samples took between two instants."""
        inside = [(w, c) for t, w, c in self.samples if start <= t < end]
        return sum(w for w, _ in inside), sum(c for _, c in inside)
