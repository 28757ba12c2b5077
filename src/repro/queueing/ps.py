"""Processor-sharing queue with a connection cap (``M/M/1 - PSk``).

Network links are modeled as PS queues (section 3.4.2, Fig 3-6 right):
up to ``k`` tasks share the service rate equally; tasks beyond ``k`` wait
FCFS for a connection slot.  A constant propagation ``latency`` is added
to every task before it becomes eligible for bandwidth, matching the
thesis's "latency ... added to the processing time of each task".

Exact-event semantics: remaining work is decremented only at share-change
points (admissions and completions), each anchored at its precise
absolute timestamp, so the queue state is independent of how the engine
partitions time and ``mode="event"`` matches ``mode="adaptive"``
bit-for-bit.

Lone-job lookahead: a job alone on the link (nothing in service, nothing
else waiting) changes no other job's share when it is admitted, so
:meth:`PSQueue.next_event_time` reports its *completion*, ``due +
remaining / rate``, and the engine wakes the link once per such
transfer instead of twice.  The admission itself still happens at its
own timestamp ``due`` -- inside the ``advance_to``/``sync_to`` that
reaches it, or inside the next ``enqueue`` or ``fail`` -- so start
times and busy-time pieces are those of an eager admission.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.core.agent import Agent
from repro.core.job import Job

_INF = float("inf")


def _observe(met, job: Job, t: float) -> None:
    """Record a completion at ``t`` on the link's metrics: one body for
    the lone and the general completion, called only with metrics on."""
    start = job.start_time if job.start_time is not None else t
    enq = job.enqueue_time if job.enqueue_time is not None else start
    met.observe_completion(start - enq, t - start, t - enq)


class PSQueue(Agent):
    """Egalitarian processor sharing of ``rate`` among at most ``k`` jobs.

    Parameters
    ----------
    rate:
        Total service rate shared by active jobs (e.g. link bandwidth in
        bits per second).
    k:
        Maximum number of simultaneously served jobs (connection cap).
        ``None`` means unbounded (pure PS).
    latency:
        Constant delay in seconds applied to each job before it starts
        receiving service.
    """

    agent_type = "ps"

    def __init__(
        self,
        name: str,
        rate: float,
        k: int | None = None,
        latency: float = 0.0,
    ) -> None:
        super().__init__(name)
        if rate <= 0:
            raise ValueError(f"service rate must be positive, got {rate}")
        if k is not None and k < 1:
            raise ValueError(f"connection cap must be >= 1, got {k}")
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.rate = float(rate)
        self.k = k
        self.latency = float(latency)
        self.waiting: Deque[Job] = deque()
        self.active: List[Job] = []
        self.completed_count = 0
        self._now = 0.0  # last internal event time (mode-invariant)
        # remaining-work decrements are anchored here and only move at
        # share-change events, never at measurement boundaries
        self._share_anchor = 0.0
        self._busy_anchor = 0.0
        self._advancing = False

    # ------------------------------------------------------------------
    # queue interface
    # ------------------------------------------------------------------
    def enqueue(self, job: Job, now: float) -> None:
        # propagation delay: the job may not start service before this time
        job.not_before = max(job.not_before, now + self.latency)
        busy = bool(self.active or self.waiting)
        if busy:
            self.advance_to(now)
        if now > self._now:
            self._now = now
        self.waiting.append(job)
        # on an idle link nothing else is pending, and the lone job's
        # admission waits for its completion wake unless it is due now
        if busy or max(job.not_before, self._now) <= now + 1e-9:
            self.advance_to(now)
        # the arrival itself changes the next-event time even when no
        # event fired (e.g. a guarded job waiting on a free slot)
        sched = self._sched
        if sched is not None:
            sched(self)

    def queue_length(self) -> int:
        return len(self.waiting) + len(self.active)

    def idle(self) -> bool:
        return not self.active and not self.waiting

    def capacity(self) -> float:
        return 1.0  # utilization is the busy fraction of the shared rate

    _completions = Agent._counted_completions

    # ------------------------------------------------------------------
    # exact-event contract
    # ------------------------------------------------------------------
    def next_event_time(self) -> float:
        if self._paused:
            return _INF
        waiting = self.waiting
        if not self.active and len(waiting) == 1:
            # lone job: report its completion, the float its admission at
            # ``due`` would schedule (share anchor ``due``, share ``rate``)
            job = waiting[0]
            due = job.not_before
            if due < self._now:
                due = self._now
            return due + job.remaining / self.rate
        return self._next_internal()

    def sync_to(self, t: float) -> None:
        self.advance_to(t)
        self._accrue_to(t)
        if t > self.local_time:
            self.local_time = t

    # ------------------------------------------------------------------
    # internal event machinery
    # ------------------------------------------------------------------
    def _next_internal(self) -> float:
        nxt = _INF
        active = self.active
        if len(active) == 1:
            nxt = self._share_anchor + active[0].remaining / self.rate
        elif active:
            share = self.rate / len(active)
            min_r = min(j.remaining for j in active)
            nxt = self._share_anchor + min_r / share
        if self.waiting and (self.k is None or len(active) < self.k):
            due = self.waiting[0].not_before
            if due < self._now:
                due = self._now
            if due < nxt:
                nxt = due
        return nxt

    def advance_to(self, t: float) -> None:
        """Process every internal event up to ``t`` at its own timestamp.

        The uncontended job -- one job on the link, in service or alone
        in the line of an idle link -- is served here in one pass: its
        admission and its completion without ``_process_at``, with the
        floats, order and hooks of the general path (see
        ``docs/engine.md``, "The uncontended job")."""
        if self._advancing or self._paused:
            return
        self._advancing = True
        processed = False
        limit = t + 1e-9
        try:
            # a completion callback may fail the link: stop there
            while not self._paused:
                active = self.active
                waiting = self.waiting
                held = len(active) + len(waiting)
                if held != 1:
                    if not held:
                        break
                    e = self._next_internal()
                    if e > limit:
                        break
                    self._process_at(e)
                    processed = True
                    continue
                if active:
                    job = active[0]
                    fin = self._share_anchor + job.remaining / self.rate
                    if fin > limit:
                        break
                    active.pop()
                else:
                    # admission at ``due``: nothing was in service, so
                    # nothing accrues or settles before it
                    job = waiting[0]
                    due = job.not_before
                    if due < self._now:
                        due = self._now
                    if due > limit:
                        break
                    waiting.popleft()
                    if job.start_time is None:
                        job.start_time = due
                    if due > self._busy_anchor:
                        self._busy_anchor = due
                    if due > self._share_anchor:
                        self._share_anchor = due
                    self._now = due
                    processed = True
                    fin = self._share_anchor + job.remaining / self.rate
                    if fin > limit:
                        active.append(job)
                        break
                # completion at ``fin`` of the one job in service: it is
                # the exact-minimum completer, and finish() zeroes the
                # remaining work the share settlement would decrement
                if fin > self._busy_anchor:
                    self.record_busy(fin - self._busy_anchor)
                    self._busy_anchor = fin
                if fin > self._share_anchor:
                    self._share_anchor = fin
                self.completed_count += 1
                met = self._metrics
                if met is not None:
                    _observe(met, job, fin)
                job.finish(fin)
                if self.waiting and not self._paused:
                    self._admit_at(fin)
                if fin > self._now:
                    self._now = fin
                processed = True
        finally:
            self._advancing = False
        if processed:
            # only a processed event can change the next-event time, so
            # no-op advances (monitor syncs) skip the wake-heap re-key
            sched = self._sched
            if sched is not None:
                sched(self)

    def _process_at(self, t: float) -> None:
        self._accrue_to(t)
        finished: List[Job] = []
        if self.active:
            share = self.rate / len(self.active)
            min_r = min(j.remaining for j in self.active)
            due = self._share_anchor + min_r / share
            if due <= t + 1e-12:
                # pre-identify completers by the exact minimum so the
                # shared decrement's float dust cannot mask them
                completers = {id(j) for j in self.active
                              if j.remaining == min_r}
            else:
                completers = set()
            self._settle_to(t)
            if completers:
                keep: List[Job] = []
                for job in self.active:
                    if id(job) in completers or job.remaining <= 1e-12:
                        finished.append(job)
                    else:
                        keep.append(job)
                self.active = keep
        met = self._metrics
        for job in finished:
            self.completed_count += 1
            if met is not None:
                _observe(met, job, t)
            job.finish(t)
        if not self._paused:
            self._admit_at(t)
        if t > self._share_anchor:
            self._share_anchor = t
        if t > self._now:
            self._now = t

    def _admit_at(self, t: float) -> None:
        limit = self.k if self.k is not None else _INF
        # admit in arrival order; skip-over is not allowed (FCFS slots)
        while self.waiting and len(self.active) < limit:
            head = self.waiting[0]
            if head.not_before > t + 1e-9:
                break
            self.waiting.popleft()
            if head.start_time is None:
                head.start_time = t
            self.active.append(head)

    def _settle_to(self, t: float) -> None:
        """Decrement remaining work to ``t`` (share-change points only)."""
        if self.active and t > self._share_anchor:
            dec = (t - self._share_anchor) * (self.rate / len(self.active))
            for job in self.active:
                job.remaining -= dec
        if t > self._share_anchor:
            self._share_anchor = t

    def _accrue_to(self, t: float) -> None:
        if t <= self._busy_anchor:
            return
        if self.active and not self._paused:
            self.record_busy(t - self._busy_anchor)
        self._busy_anchor = t

    # ------------------------------------------------------------------
    # failure semantics
    # ------------------------------------------------------------------
    def fail(self, crash: bool = True, now: float | None = None) -> None:
        self._admit_lone(now)
        super().fail(crash, now)

    def repair(self, now: float) -> None:
        # a running link has no service to resume, and moving its
        # anchors to ``now`` would drop the work served since them
        if self._paused:
            super().repair(now)

    def _admit_lone(self, t: float | None) -> None:
        """Admit a running link's lone job that fell due by ``t`` (the
        link's clock if None) without an engine wake (see
        next_event_time), as an advance to ``t`` would have, before
        a failure freezes it.  Inside the link's own event loop, the
        loop admits it."""
        if (self._paused or self._advancing or self.active
                or len(self.waiting) != 1):
            return
        due = self._next_internal()
        if due <= (self._now if t is None else t) + 1e-9:
            self._process_at(due)

    def on_pause(self, now: float | None) -> None:
        p = self._now if now is None else max(now, self._now)
        if p < self._busy_anchor:
            p = self._busy_anchor
        if p > self._busy_anchor and self.active:
            # bypass the paused gate: this span was genuinely served
            self.record_busy(p - self._busy_anchor)
        self._busy_anchor = p
        self._settle_to(p)
        if p > self._now:
            self._now = p

    def on_repair(self, now: float) -> None:
        r = max(now, self._now)
        self._now = r
        if self._share_anchor < r:
            self._share_anchor = r
        if self._busy_anchor < r:
            self._busy_anchor = r
        self.advance_to(r)

    def on_crash(self) -> None:
        """Crash semantics: active transfers restart from scratch."""
        for job in reversed(self.active):
            job.remaining = job.demand
            job.start_time = None
            self.waiting.appendleft(job)
        self.active = []
