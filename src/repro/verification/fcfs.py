"""Reference FCFS station: the event-by-event ``M/M/c - FCFS`` loop.

:class:`~repro.queueing.fcfs.FCFSQueue` fixes each job's start and
finish in closed form when the job is admitted.  This module keeps the
loop that closed form replaces, in its plainest form: a waiting line
drained head first, one admission or completion at a time, each at its
own timestamp, with the head's ``not_before`` guard checked at every
event.  It is the differential oracle of the closed form
(``tests/queueing/test_fcfs_reference.py``, the kernel lockstep tests),
not a simulation option.

It subclasses :class:`FCFSQueue` so that every place that accepts an
FCFS station (a vector-kernel bank, a composite) accepts it too, and
shares its line-independent parts: the counters, ``sync_to``, the busy
accrual, the pause and the crash.
"""

from __future__ import annotations

from collections import deque

from repro.core.job import Job
from repro.queueing.fcfs import FCFSQueue

_INF = float("inf")


class ReferenceFCFS(FCFSQueue):
    """``c`` identical servers draining one FCFS waiting line, event by
    event."""

    def __init__(self, name: str, rate: float, servers: int = 1) -> None:
        super().__init__(name, rate, servers)
        self.waiting = deque()
        self.in_service = []

    def enqueue(self, job: Job, now: float) -> None:
        # settle events that predate the arrival at their own timestamps
        if self._next_internal() <= now + 1e-9:
            self.advance_to(now)
        # an arrival from behind the station's clock is admitted at it
        if now > self._now:
            self._now = now
        owner = self._depth_owner
        while owner is not None:
            owner._depth += 1
            owner = owner._depth_owner
        self.waiting.append(job)
        self.advance_to(now)
        # the arrival changes the next-event time even when no event
        # fired (e.g. a guarded job waiting on a free server)
        self._reschedule()

    def next_event_time(self) -> float:
        return _INF if self._paused else self._next_internal()

    def advance_to(self, t: float) -> None:
        """Process every internal event up to ``t`` at its own timestamp."""
        if self._advancing or self._paused:
            return
        e = self._next_internal()
        if e > t + 1e-9:
            return
        self._advancing = True
        try:
            # a completion continuation may fail the station: stop there
            while e <= t + 1e-9 and not self._paused:
                self._process_at(e)
                e = self._next_internal()
        finally:
            self._advancing = False
        self._reschedule()

    def _next_internal(self) -> float:
        """Earliest pending internal event (absolute time), ``inf`` if none."""
        nxt = _INF
        for job in self.in_service:
            if job.finish_at is not None and job.finish_at < nxt:
                nxt = job.finish_at
        if self.waiting and len(self.in_service) < self.servers:
            nxt = min(nxt, max(self.waiting[0].not_before, self._now))
        return nxt

    def _process_at(self, t: float) -> None:
        self._accrue_to(t)
        ins = self.in_service
        done = [j for j in ins
                if j.finish_at is not None and j.finish_at <= t + 1e-12]
        if done:
            # every due job leaves service before any continuation runs
            for job in done:
                ins.remove(job)
            owner = self._depth_owner
            while owner is not None:
                owner._depth -= len(done)
                owner = owner._depth_owner
            for job in done:
                self.completed_count += 1
                job.finish_at = None
                if self._metrics is not None:
                    self._observe(self._metrics, job, t)
                job.finish(t)
        if self.waiting and not self._paused:
            self._admit_at(t)
        if t > self._now:
            self._now = t

    def _admit_at(self, t: float) -> None:
        """Start waiting jobs at ``t`` while servers are free and the
        head's timestamp guard allows."""
        while self.waiting and len(self.in_service) < self.servers:
            head = self.waiting[0]
            if head.not_before > t + 1e-9:
                break  # timestamp guard: head may not start yet
            self.waiting.popleft()
            if head.start_time is None:
                head.start_time = t
            head.finish_at = t + head.remaining / self.rate
            self.in_service.append(head)

    def on_repair(self, now: float) -> None:
        """Resume interrupted service from ``now``."""
        r = max(now, self._now)
        self._now = r
        if self._busy_anchor < r:
            self._busy_anchor = r
        for job in self.in_service:
            job.finish_at = r + job.remaining / self.rate
        self.advance_to(r)
