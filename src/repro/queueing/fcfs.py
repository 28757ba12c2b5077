"""Multi-server first-come-first-served queue (``M/M/c - FCFS``).

The workhorse of the hardware layer: CPUs (one queue per socket, ``q``
cores each), NICs, network switches and disk controllers are all FCFS
queue-servers whose service rate is the device speed in its native unit
(cycles/s, bits/s, bytes/s).

The station schedules in closed form: FCFS never lets a later arrival
delay an earlier job, so a job's start and finish are fixed the moment
it is admitted, from the earliest free server, the start of the job
ahead of it, the station clock and its own ``not_before`` guard
(:func:`fcfs_start`).  What remains event by event is the bookkeeping
the rest of the simulation sees: a start moves the job from the waiting
line into service and a finish completes it, each processed at its own
timestamp, and busy time accrues at those instants as ``(t - anchor) x
jobs in service``.  The station pushes its earliest pending event to
the engine through ``Agent._reschedule``; since every float is anchored
at an exact event time, the state is independent of how the engine
partitions time, which is what makes ``mode="event"`` bit-identical to
``mode="adaptive"``.

The event-by-event loop this replaces lives on as the reference station
in :mod:`repro.verification.fcfs`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.core.agent import Agent
from repro.core.job import Job

_INF = float("inf")

#: Timestamp guard of the exact-event contract: events this close past a
#: boundary are processed with it.
GUARD = 1e-9

#: the line, service set and server clocks of a station no job has
#: reached yet (empty, shared)
_NO_LINE: Deque[Job] = ()  # type: ignore[assignment]


def fcfs_start(t: float, not_before: float, event: bool = True) -> float:
    """Start of a job whose turn at a free server comes at ``t``.

    At an event the station processes -- a completion, or the start of
    the job ahead -- the head of the line starts at ``t`` unless its
    guard ``not_before`` lies more than :data:`GUARD` past it.  A job
    arriving at an idle station (``event=False``) starts at ``t`` or at
    its guard, whichever is later.  A guard that holds the job releases
    it at ``not_before``, or at an earlier completion within
    :data:`GUARD` of it (:meth:`FCFSQueue._schedule`)."""
    return t if not_before <= (t + GUARD if event else t) else not_before


def lindley_start(arrival: float, not_before: float, free: float) -> float:
    """Start of a job arriving at ``arrival`` at a single-server FCFS
    station whose server is free from ``free`` (Lindley's recursion
    with the guard rules of :func:`fcfs_start`).

    The station first processes its events up to ``arrival + GUARD``,
    so a server freeing within that window is idle at the arrival."""
    # fcfs_start written out: this runs once per storage stage span
    if free > arrival + GUARD:
        return free if not_before <= free + GUARD else not_before
    t = arrival if arrival > free else free
    return t if not_before <= t else not_before


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

    #: each server's free time, the finish of the last job it was given;
    #: a list of its own only at a multi-server station that has been
    #: enqueued on (one server is free from the last admitted job's
    #: finish)
    _free: List[float] = _NO_LINE  # type: ignore[assignment]

    def __init__(self, name: str, rate: float, servers: int = 1) -> None:
        super().__init__(name)
        if rate <= 0:
            raise ValueError(f"service rate must be positive, got {rate}")
        if servers < 1:
            raise ValueError(f"server count must be >= 1, got {servers}")
        self.rate = float(rate)
        self.servers = int(servers)
        # the admitted jobs not yet started, in FIFO order, each with its
        # ``start_time`` and ``finish_at`` fixed (unset while the station
        # is down), and the jobs in service.  Both are allocated at the
        # first enqueue: the storage stages, most of a fleet's stations,
        # are never enqueued on
        self.waiting: Deque[Job] = _NO_LINE
        self.in_service: List[Job] = _NO_LINE  # type: ignore[assignment]
        self.completed_count = 0
        # internal event clock: the time of the last processed event
        # (start, completion, arrival, repair).  Only moves at such
        # events, so it is identical across stepping modes.
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

    # ------------------------------------------------------------------
    # queue interface
    # ------------------------------------------------------------------
    def enqueue(self, job: Job, now: float) -> None:
        limit = now + GUARD
        running = not self._advancing and not self._paused
        # settle events that predate the arrival at their own timestamps
        if (running and (self.in_service or self.waiting)
                and self.next_event_time() <= limit):
            self.advance_to(now)
        # the queue state changes at ``now``; an arrival from behind the
        # station's clock (within the guard) is admitted at the clock
        if now > self._now:
            self._now = now
        owner = self._depth_owner
        while owner is not None:
            owner._depth += 1
            owner = owner._depth_owner
        waiting = self.waiting
        if waiting is _NO_LINE:
            waiting = self.waiting = deque()
            self.in_service = []
            if self.servers > 1:
                self._free = [0.0] * self.servers
        if self._paused:
            waiting.append(job)  # scheduled at the repair
        else:
            lone = running and not waiting
            # a job joining while the station processes an event (at the
            # busy anchor's time) takes its turn there at the earliest
            s = self._schedule(job, self._busy_anchor if self._advancing
                               else self._now, lone)
            ins = self.in_service
            if lone and s <= limit:
                # the job starts now, unless a completion is due with it:
                # then the event at ``s`` takes both
                lim = s + 1e-12
                for other in ins:
                    if other.finish_at <= lim:
                        lone = False
                        break
            else:
                lone = False
            if lone:
                if s > self._busy_anchor:
                    if ins:
                        self.record_busy((s - self._busy_anchor) * len(ins))
                    self._busy_anchor = s
                ins.append(job)
                if s > self._now:
                    self._now = s
                if job.finish_at <= limit:
                    # zero or sub-guard demand completes inside this enqueue
                    self.advance_to(now)
            else:
                waiting.append(job)
                self.advance_to(now)
        # the arrival changes the next-event time even when no event
        # fired (e.g. a guarded job waiting on a free server)
        sched = self._sched
        if sched is not None:
            sched(self)

    def queue_length(self) -> int:
        return len(self.waiting) + len(self.in_service)

    def idle(self) -> bool:
        return not self.in_service and not self.waiting

    def capacity(self) -> float:
        return float(self.servers)

    _completions = Agent._counted_completions

    # ------------------------------------------------------------------
    # exact-event contract
    # ------------------------------------------------------------------
    def next_event_time(self) -> float:
        """The earliest pending start or finish, ``inf`` if none."""
        if self._paused:
            return _INF
        nxt = _INF
        for job in self.in_service:
            fa = job.finish_at
            if fa < nxt:
                nxt = fa
        waiting = self.waiting
        if waiting:
            s = waiting[0].start_time
            if s < nxt:
                nxt = s
        return nxt

    def advance_to(self, t: float) -> None:
        """Process every start and finish up to ``t`` at its own
        timestamp: at each, accrue busy time, complete the jobs due and
        start the jobs whose turn has come.  (The event loop is written
        out in one frame: it runs once per event of every station.)"""
        if self._advancing or self._paused:
            return
        limit = t + GUARD
        ins = self.in_service
        waiting = self.waiting
        e = waiting[0].start_time if waiting else _INF
        for job in ins:
            if job.finish_at < e:
                e = job.finish_at
        if e > limit:
            # nothing due: no-op advances (monitor syncs) skip the re-key
            return
        self._advancing = True
        try:
            while e <= limit:
                if ins:
                    anchor = self._busy_anchor
                    if e > anchor:
                        self.record_busy((e - anchor) * len(ins))
                        self._busy_anchor = e
                    lim = e + 1e-12
                    if len(ins) == 1:  # every single-server station
                        done = ins if ins[0].finish_at <= lim else None
                    else:
                        done = [j for j in ins if j.finish_at <= lim]
                    if done:
                        self._complete(done, e)
                        if self._paused:
                            # a continuation failed the station: stop
                            break
                        ins = self.in_service
                        waiting = self.waiting
                elif e > self._busy_anchor:
                    self._busy_anchor = e
                while waiting and waiting[0].start_time <= e:
                    ins.append(waiting.popleft())
                if e > self._now:
                    self._now = e
                e = waiting[0].start_time if waiting else _INF
                for job in ins:
                    if job.finish_at < e:
                        e = job.finish_at
        finally:
            self._advancing = False
        sched = self._sched
        if sched is not None:
            sched(self)

    def sync_to(self, t: float) -> None:
        self.advance_to(t)
        self._accrue_to(t)
        if t > self.local_time:
            self.local_time = t

    # ------------------------------------------------------------------
    # closed-form schedule
    # ------------------------------------------------------------------
    def _schedule(self, job: Job, t: float, lone: bool) -> float:
        """Fix the start and finish of ``job`` behind every job already
        scheduled; returns the start.

        The job's turn comes when the earliest server is free and the
        job ahead has started, and not before ``t``.  ``lone``: the job
        arrives at the head of the line outside the station's own event
        processing, with the station clock at ``t``, so a turn that has
        already come is an arrival at an idle station, not an event
        (:func:`fcfs_start`)."""
        waiting = self.waiting
        free = self._free
        if free:
            ready = min(free)
            i = free.index(ready)
            if waiting:
                ahead = waiting[-1].start_time
                if ahead > ready:
                    ready = ahead
        elif waiting:
            # one server: free when the last job admitted finishes
            ready = waiting[-1].finish_at
        elif self.in_service:
            ready = self.in_service[0].finish_at
        else:
            ready = -_INF
        if ready > t:
            lone = False
        else:
            ready = t
        nb = job.not_before
        s = fcfs_start(ready, nb, not lone)
        if s > ready and len(free) > 1:
            # held by its guard with a server free: another server's
            # completion within the guard of ``nb`` is an event that
            # admits it before the guard's own
            for f in free:
                if ready < f < s and nb <= f + GUARD:
                    s = f
        fin = s + job.remaining / self.rate
        if free:
            free[i] = fin
        job.start_time = s
        job.finish_at = fin
        return s

    def _replan(self, t: float, event: bool) -> None:
        """Fix the schedule of every waiting job afresh from the jobs in
        service at ``t`` (a repair, or a completion event that took a
        job finishing just after ``t`` with it)."""
        free = self._free
        ins = self.in_service
        for i in range(len(free)):
            free[i] = ins[i].finish_at if i < len(ins) else t
        jobs = self.waiting
        waiting = self.waiting = deque()
        for job in jobs:
            self._schedule(job, t, not event and not waiting)
            waiting.append(job)

    # ------------------------------------------------------------------
    # event machinery
    # ------------------------------------------------------------------
    def _complete(self, done: List[Job], t: float) -> None:
        """Complete the jobs in ``done`` (those in service due by ``t``)
        at ``t``: every one leaves service before any continuation
        runs."""
        ins = self.in_service
        if done is ins or len(done) == len(ins):
            self.in_service = []
        else:
            for job in done:
                ins.remove(job)
        n = len(done)
        owner = self._depth_owner
        while owner is not None:
            owner._depth -= n
            owner = owner._depth_owner
        for job in done:
            if job.finish_at > t:
                # a finish just past ``t`` completes with it, so its
                # server is free from ``t``: re-plan the line
                self._replan(t, True)
                break
        met = self._metrics
        for job in done:
            self.completed_count += 1
            job.finish_at = None
            if met is not None:
                self._observe(met, job, t)
            job.finish(t)

    @staticmethod
    def _observe(met, job: Job, t: float) -> None:
        """Record a completion at ``t`` on the station's metrics."""
        start = job.start_time if job.start_time is not None else t
        enq = job.enqueue_time if job.enqueue_time is not None else start
        met.observe_completion(start - enq, t - start, t - enq)

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
        """Freeze service: accrue busy time to the failure instant,
        materialize each in-service job's remaining work and take the
        waiting jobs' schedules back."""
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
        for job in self.waiting:
            job.start_time = None
            job.finish_at = None
        if p > self._now:
            self._now = p

    def on_repair(self, now: float) -> None:
        """Resume interrupted service from ``now`` and schedule the line
        behind it."""
        r = max(now, self._now)
        self._now = r
        if self._busy_anchor < r:
            self._busy_anchor = r
        if self.waiting is _NO_LINE:
            return  # never enqueued on: nothing to resume
        for job in self.in_service:
            job.finish_at = r + job.remaining / self.rate
        self._replan(r, False)
        self.advance_to(r)

    def on_crash(self) -> None:
        """Crash semantics: in-service progress is lost; jobs restart."""
        if not self.in_service:
            return
        # a job in service came through the waiting line, so the line
        # exists to take it back
        for job in reversed(self.in_service):
            job.remaining = job.demand
            job.start_time = None
            job.finish_at = None
            self.waiting.appendleft(job)
        self.in_service = []
