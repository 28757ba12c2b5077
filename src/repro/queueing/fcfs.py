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
#: the waiting line of a station no job has waited at yet (empty, shared)
_NO_LINE: Deque[Job] = ()  # type: ignore[assignment]


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
        # the waiting line is allocated at the first enqueue: the storage
        # stages, most of a fleet's stations, are never enqueued on
        self.waiting: Deque[Job] = _NO_LINE
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
        # set by CompositeAgent._adopt_children: the composite whose
        # queue_length() counts this station's jobs (its own
        # ``_depth_owner`` continues the chain: Disk, then SAN), and this
        # station's index in the outermost composite's event cache
        self._depth_owner: Agent | None = None
        self._parent_idx = -1
        # cached ``_next_internal()``: None after any change to
        # ``waiting``, ``in_service``, ``_now`` or a job's ``finish_at``
        self._next: float | None = None

    # ------------------------------------------------------------------
    # queue interface
    # ------------------------------------------------------------------
    def enqueue(self, job: Job, now: float) -> None:
        if self._bank is not None:
            self._bank.fcfs_enqueue(self, job, now)
            return
        limit = now + 1e-9
        # settle events that predate the arrival at their own timestamps
        nxt = self._next
        if nxt is None:
            nxt = self._next_internal()
        if nxt <= limit:
            self.advance_to(now)
            nxt = self._next_internal()
        # the queue state changes at ``now``; an arrival from behind the
        # station's clock (within the guard) is admitted at the clock
        if now > self._now:
            self._now = now
        owner = self._depth_owner
        while owner is not None:
            owner._depth += 1
            owner = owner._depth_owner
        waiting = self.waiting
        free = not waiting and len(self.in_service) < self.servers
        if waiting is _NO_LINE:
            waiting = self.waiting = deque()
        waiting.append(job)
        self._next = None
        e = self._now
        if (free and job.not_before <= e <= limit and nxt > e + 1e-12
                and not self._advancing and not self._paused):
            # one-step admission: the event loop's first event would be
            # exactly this admission at ``e``, with no completion due there
            self._accrue_to(e)
            self._admit_at(e)
            fin = job.finish_at
            if fin <= limit:
                # zero or sub-guard demand completes inside this enqueue
                self.advance_to(now)
            else:
                # nothing waits, so the next event is the earliest finish
                self._next = fin if fin < nxt else nxt
        else:
            self.advance_to(now)
        # the arrival changes the next-event time even when no event
        # fired (e.g. a guarded job waiting on a free server)
        sched = self._sched
        if sched is not None:
            sched(self)

    def queue_length(self) -> int:
        if self._bank is not None:
            return self._bank_inflight
        return len(self.waiting) + len(self.in_service)

    def idle(self) -> bool:
        if self._bank is not None:
            return not self._bank_inflight
        return not self.in_service and not self.waiting

    def capacity(self) -> float:
        return float(self.servers)

    _completions = Agent._counted_completions

    # ------------------------------------------------------------------
    # exact-event contract
    # ------------------------------------------------------------------
    def next_event_time(self) -> float:
        if self._bank is not None:
            return _INF  # the bank schedules; stale hooks stay inert
        if self._paused:
            return _INF
        nxt = self._next
        return nxt if nxt is not None else self._next_internal()

    def advance_to(self, t: float) -> None:
        """Process every internal event up to ``t`` at its own timestamp."""
        if self._advancing or self._paused or self._bank is not None:
            return
        limit = t + 1e-9
        e = self._next
        if e is None:
            e = self._next_internal()
        if e > limit:
            # nothing due: no-op advances (monitor syncs) skip the re-key
            return
        self._advancing = True
        try:
            # a completion continuation may fail the station: stop there
            while e <= limit and not self._paused:
                self._process_at(e)
                e = self._next_internal()
        finally:
            self._advancing = False
        sched = self._sched
        if sched is not None:
            sched(self)

    def sync_to(self, t: float) -> None:
        if self._bank is not None:
            if t > self.local_time:
                self.local_time = t
            return
        self.advance_to(t)
        self._accrue_to(t)
        if t > self.local_time:
            self.local_time = t

    # ------------------------------------------------------------------
    # internal event machinery
    # ------------------------------------------------------------------
    def _next_internal(self) -> float:
        """Earliest pending internal event (absolute time), ``inf`` if none.

        Cached in ``_next``; the hot paths read the cache first and call
        this only on a miss."""
        nxt = self._next
        if nxt is None:
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
            self._next = nxt
        return nxt

    def _process_at(self, t: float) -> None:
        self._accrue_to(t)
        ins = self.in_service
        if ins:
            lim = t + 1e-12
            if len(ins) == 1:  # every single-server station
                fa = ins[0].finish_at
                done = ins if fa is not None and fa <= lim else None
            else:
                done = [j for j in ins
                        if j.finish_at is not None and j.finish_at <= lim]
            if done:
                # every due job leaves service before any continuation runs
                if len(done) == len(ins):
                    self.in_service = []
                else:
                    for job in done:
                        ins.remove(job)
                self._next = None
                n = len(done)
                owner = self._depth_owner
                while owner is not None:
                    owner._depth -= n
                    owner = owner._depth_owner
                met = self._metrics
                for job in done:
                    self.completed_count += 1
                    job.finish_at = None
                    if met is not None:
                        start = (job.start_time if job.start_time is not None
                                 else t)
                        enq = (job.enqueue_time
                               if job.enqueue_time is not None else start)
                        met.observe_completion(start - enq, t - start,
                                               t - enq)
                    job.finish(t)
        if self.waiting and not self._paused:
            self._admit_at(t)
        if t > self._now:
            self._now = t
            self._next = None

    def _admit_at(self, t: float) -> None:
        """Start waiting jobs at ``t`` while servers are free and the
        head's timestamp guard allows (arrivals and completions share it)."""
        waiting = self.waiting
        ins = self.in_service
        while waiting and len(ins) < self.servers:
            head = waiting[0]
            if head.not_before > t + 1e-9:
                break  # timestamp guard: head may not start yet
            waiting.popleft()
            if head.start_time is None:
                head.start_time = t
            head.finish_at = t + head.remaining / self.rate
            ins.append(head)
            self._next = None

    def _accrue_to(self, t: float) -> None:
        if t <= self._busy_anchor:
            return
        if self.in_service and not self._paused:
            self.record_busy((t - self._busy_anchor) * len(self.in_service))
        self._busy_anchor = t

    # ------------------------------------------------------------------
    # failure semantics
    # ------------------------------------------------------------------
    def repair(self, now: float) -> None:
        # a running station has no service to resume, and moving its
        # clocks to ``now`` would drop the work served since them
        if self._paused:
            super().repair(now)

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
        self._next = None

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
        self._next = None
        self.advance_to(r)

    def on_crash(self) -> None:
        """Crash semantics: in-service progress is lost; jobs restart."""
        if self._bank is not None:
            self._bank.fcfs_crash(self)
            return
        # a job in service came through the waiting line, so the line
        # exists to take it back
        for job in reversed(self.in_service):
            job.remaining = job.demand
            job.start_time = None
            job.finish_at = None
            self.waiting.appendleft(job)
        self.in_service = []
        self._next = None
