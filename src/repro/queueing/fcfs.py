"""Multi-server first-come-first-served queue (``M/M/c - FCFS``).

The workhorse of the hardware layer: CPUs (one queue per socket, ``q``
cores each), NICs, network switches and disk controllers are all FCFS
queue-servers whose service rate is the device speed in its native unit
(cycles/s, bits/s, bytes/s).

Since the event-kernel refactor the queue is an *exact-event* state
machine: every admission and completion is processed at its precise
absolute timestamp (``job.finish_at`` is fixed once at admission), and
the queue pushes its earliest pending event to the engine through
``Agent._reschedule`` instead of being polled every tick.  Because all
float mutations are anchored at exact event times, the resulting state
is independent of how the engine partitions time — which is what makes
``mode="event"`` bit-identical to ``mode="adaptive"``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.core.agent import Agent
from repro.core.job import Job

_INF = float("inf")


class FCFSQueue(Agent):
    """``c`` identical servers draining a single FCFS waiting line.

    Parameters
    ----------
    name:
        Agent name (unique within a simulation).
    rate:
        Service rate of *each* server, in work units per second.
    servers:
        Number of parallel servers ``c``.
    """

    agent_type = "fcfs"

    # set by BatchedTier.adopt_fcfs under the vector kernel: scheduling,
    # completions and failure bookkeeping delegate to the bank while this
    # object stays the observational face (telemetry, invariants, traces)
    _bank = None
    _bank_inflight = 0

    def __init__(self, name: str, rate: float, servers: int = 1) -> None:
        super().__init__(name)
        if rate <= 0:
            raise ValueError(f"service rate must be positive, got {rate}")
        if servers < 1:
            raise ValueError(f"server count must be >= 1, got {servers}")
        self.rate = float(rate)
        self.servers = int(servers)
        self.waiting: Deque[Job] = deque()
        self.in_service: List[Job] = []
        self.completed_count = 0
        # internal event clock: the time of the last processed internal
        # event (admission, completion, arrival, repair).  Only moves at
        # such events, so it is identical across stepping modes.
        self._now = 0.0
        # lazy busy accounting: busy server-seconds are accrued between
        # anchor points (internal events and measurement syncs)
        self._busy_anchor = 0.0
        self._advancing = False

    # ------------------------------------------------------------------
    # queue interface
    # ------------------------------------------------------------------
    def enqueue(self, job: Job, now: float) -> None:
        if self._bank is not None:
            self._bank.fcfs_enqueue(self, job, now)
            return
        # settle events that predate the arrival at their own timestamps,
        # then record that the queue state changed at ``now`` so the
        # admission below happens at exactly the arrival time
        self._advance_to(now)
        if now > self._now:
            self._now = now
        self.waiting.append(job)
        self._advance_to(now)
        # the arrival itself changes the next-event time even when no
        # event fired (e.g. a guarded job waiting on a free server)
        self._reschedule()

    def queue_length(self) -> int:
        if self._bank is not None:
            return self._bank_inflight
        return len(self.waiting) + len(self.in_service)

    def capacity(self) -> float:
        return float(self.servers)

    def _completions(self) -> int:
        return self.completed_count

    # ------------------------------------------------------------------
    # exact-event contract
    # ------------------------------------------------------------------
    def next_event_time(self) -> float:
        if self._bank is not None:
            return _INF  # the bank schedules; stale hooks stay inert
        if self._paused:
            return _INF
        return self._next_internal()

    def advance_to(self, t: float) -> None:
        if self._bank is not None:
            return
        self._advance_to(t)

    def sync_to(self, t: float) -> None:
        if self._bank is not None:
            if t > self.local_time:
                self.local_time = t
            return
        self._advance_to(t)
        self._accrue_to(t)
        if t > self.local_time:
            self.local_time = t

    # ------------------------------------------------------------------
    # internal event machinery
    # ------------------------------------------------------------------
    def _next_internal(self) -> float:
        """Earliest pending internal event (absolute time), ``inf`` if none."""
        nxt = _INF
        for job in self.in_service:
            fa = job.finish_at
            if fa is not None and fa < nxt:
                nxt = fa
        if self.waiting and len(self.in_service) < self.servers:
            due = self.waiting[0].not_before
            if due < self._now:
                due = self._now
            if due < nxt:
                nxt = due
        return nxt

    def _advance_to(self, t: float) -> None:
        """Process every internal event up to ``t`` at its own timestamp."""
        if self._advancing or self._paused:
            return
        self._advancing = True
        processed = False
        try:
            while True:
                e = self._next_internal()
                if e > t + 1e-9:
                    break
                self._process_at(e)
                processed = True
        finally:
            self._advancing = False
        if processed:
            # only a processed event can change the next-event time, so
            # no-op advances (monitor syncs) skip the wake-heap re-key
            self._reschedule()

    def _process_at(self, t: float) -> None:
        self._accrue_to(t)
        done = [j for j in self.in_service
                if j.finish_at is not None and j.finish_at <= t + 1e-12]
        if done:
            self.in_service = [j for j in self.in_service if j not in done]
            met = self._metrics
            for job in done:
                self.completed_count += 1
                job.finish_at = None
                if met is not None:
                    start = job.start_time if job.start_time is not None else t
                    enq = job.enqueue_time if job.enqueue_time is not None \
                        else start
                    met.observe_completion(start - enq, t - start, t - enq)
                job.finish(t)
        self._admit_at(t)
        if t > self._now:
            self._now = t

    def _admit_at(self, t: float) -> None:
        while self.waiting and len(self.in_service) < self.servers:
            head = self.waiting[0]
            if head.not_before > t + 1e-9:
                break  # timestamp guard: head may not start yet
            self.waiting.popleft()
            if head.start_time is None:
                head.start_time = t
            head.finish_at = t + head.remaining / self.rate
            self.in_service.append(head)

    def _accrue_to(self, t: float) -> None:
        if t <= self._busy_anchor:
            return
        if self.in_service and not self._paused:
            self.record_busy((t - self._busy_anchor) * len(self.in_service))
        self._busy_anchor = t

    # ------------------------------------------------------------------
    # failure semantics
    # ------------------------------------------------------------------
    def on_pause(self, now: float | None) -> None:
        """Freeze service: accrue busy time to the failure instant and
        materialize each in-service job's remaining work."""
        if self._bank is not None:
            self._bank.fcfs_pause(self, now)
            return
        p = self._now if now is None else max(now, self._now)
        if p < self._busy_anchor:
            p = self._busy_anchor
        if p > self._busy_anchor and self.in_service:
            # bypass the paused gate: this span was genuinely served
            self.record_busy((p - self._busy_anchor) * len(self.in_service))
        self._busy_anchor = p
        for job in self.in_service:
            if job.finish_at is not None:
                job.remaining = max((job.finish_at - p) * self.rate, 0.0)
                job.finish_at = None
        if p > self._now:
            self._now = p

    def on_repair(self, now: float) -> None:
        """Resume interrupted service from ``now``."""
        if self._bank is not None:
            self._bank.fcfs_repair(self, now)
            return
        r = max(now, self._now)
        self._now = r
        if self._busy_anchor < r:
            self._busy_anchor = r
        for job in self.in_service:
            job.finish_at = r + job.remaining / self.rate
        self._advance_to(r)

    def on_crash(self) -> None:
        """Crash semantics: in-service progress is lost; jobs restart."""
        if self._bank is not None:
            self._bank.fcfs_crash(self)
            return
        for job in reversed(self.in_service):
            job.remaining = job.demand
            job.start_time = None
            job.finish_at = None
            self.waiting.appendleft(job)
        self.in_service = []
