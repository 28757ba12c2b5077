"""Batched queueing substrate — the ``kernel="vector"`` path.

The scalar substrate (`fcfs`/`ps` plus the hardware stations wrapping
them) drives every station as its own exact-event agent: each service
completion is an engine boundary and each boundary re-keys one
wake-heap entry.  On large fleets the profiler shows
``step_select``/``wake`` dominated by exactly this per-agent dispatch.

``BatchedTier`` batches homogeneous stations behind one engine driver:
a bank for FCFS stations (NIC, switch, CPU socket queues) plus a
multiplexer for PS stations (network links).  Each FCFS member keeps a
``free``-slot list; admission is the closed-form recurrence
``start = max(now, not_before, min(free), last_start)`` — equivalent
to the scalar head-of-line admission including the FIFO non-overtaking
guarantee — so a completion costs one shared-heap pop instead of an
engine boundary per station.  PS members keep their full scalar
machinery but report their next event into a bank-level lazy-deletion
heap, so the engine sees one driver per tier instead of one agent per
station.

The storage composites (Disk, RAID, SAN) are not batched here: they
schedule every request's stage chain in closed form under either
kernel (:mod:`repro.hardware.storage`) and register as plain agents.

Scalar stations stay registered *observationally* (telemetry, tracing,
invariants and the metrics mirror read them as before); the bank owns
event scheduling.  All of the bank's state lives on the member
stations: each scheduled job's entry carries the part of its service
span already credited, and busy time reaches the scalar
``record_busy`` counters at completion, at a pause and at measurement
syncs, so windowed utilization, capacity invariants, telemetry and
checkpoint fingerprints see the same accounting as the scalar path.
The bank's heaps are caches derived from that state.  The scalar
kernel remains the differential oracle: each kernel must pass the
oracle sweep and event≡adaptive parity on its own
(``tests/core/test_kernel_parity.py``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, List, Optional, Tuple

from repro.core.agent import Agent
from repro.core.job import Job

_INF = float("inf")


class BatchedTier(Agent):
    """Bank advancing many stations as one engine agent.

    FCFS members are fully absorbed: their ``enqueue``/``queue_length``/
    failure hooks delegate here (see ``FCFSQueue._bank``), admissions are
    scheduled in closed form against a per-station ``free`` list, and
    completions pop from one shared ``(fin, seq, station, job)`` heap
    (lazy deletion: an entry is valid iff ``job.finish_at`` still equals
    its key).  PS members keep the scalar machinery; the bank owns their
    ``_sched``/``_waker`` hooks and keys their next-event times in a
    ``(time, member)`` heap (lazy deletion: an entry is valid iff the
    member's stored next time still equals its key).
    """

    agent_type = "batched-tier"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._heap: List[Tuple[float, int, Any, Job]] = []
        self._seq = itertools.count()
        self._fcfs: List[Any] = []
        self._ps: List[Any] = []
        #: each PS member's next-event time, and the heap keying them
        self._ps_next: List[float] = []
        self._ps_heap: List[Tuple[float, int]] = []
        self._inflight = 0
        self._now = 0.0
        self._advancing = False
        # adaptive mode polls every active agent's next_event_time once
        # per boundary; the min only moves at reschedule/advance points,
        # so it is cached behind a dirty flag
        self._net_cache = _INF
        self._net_dirty = True

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def adopt_fcfs(self, station) -> None:
        """Absorb an FCFS station (NIC/switch/CPU socket) into the bank."""
        station._bank = self
        station._bank_free = [0.0] * station.servers
        station._bank_last_start = 0.0
        # the station's event clock (latest completion or repair): an
        # arrival behind it is admitted at the clock, as in the scalar
        station._bank_clock = 0.0
        station._bank_inflight = 0
        #: the station's scheduled jobs in admission (FIFO) order, each
        #: mapped to the instant up to which its span is credited as busy
        station._bank_live = {}
        station._bank_frozen = []
        station._waker = self._member_wake
        station._sched = self._member_resched
        self._fcfs.append(station)

    def adopt_ps(self, station) -> None:
        """Multiplex a PS station (network link) through the bank."""
        i = len(self._ps)
        station._bank_pidx = i
        station._waker = self._member_wake
        station._sched = self._ps_resched
        self._ps.append(station)
        nxt = station.next_event_time()
        self._ps_next.append(nxt)
        if nxt < _INF:
            heapq.heappush(self._ps_heap, (nxt, i))

    # ------------------------------------------------------------------
    # member hooks
    # ------------------------------------------------------------------
    def _member_wake(self, _station) -> None:
        """Member ``_waker``: submissions to a member wake the bank.

        Wake only — event bookkeeping happens where the event is made:
        FCFS admissions re-key in :meth:`_fcfs_admit` (which knows the
        new finish time), PS internals bubble through
        :meth:`_ps_resched`."""
        if self._waker is not None:
            self._waker(self)

    def _member_resched(self, _station) -> None:
        """FCFS member ``_sched``: fail/repair may move the bank's min."""
        self._reschedule()

    def _ps_resched(self, station) -> None:
        """PS member ``_sched``: re-key the member; re-key the bank only
        when that moves the earliest PS event."""
        nxt = self._ps_next
        i = station._bank_pidx
        new = station.next_event_time()
        if new == nxt[i]:
            return
        cur = self._ps_heap_min()
        nxt[i] = new
        if new < _INF:
            heapq.heappush(self._ps_heap, (new, i))
        if self._ps_heap_min() != cur:
            self._reschedule()

    def _ps_heap_min(self) -> float:
        """Earliest PS member event, dropping stale heap entries."""
        heap = self._ps_heap
        nxt = self._ps_next
        while heap:
            w, i = heap[0]
            if nxt[i] == w:
                return w
            heapq.heappop(heap)
        return _INF

    def _note_min(self, fin: float) -> None:
        """Re-key after a new event at ``fin`` — but only when it can
        move the bank's minimum (the hot-path suppression that the
        composite cache performs per child, done here per admission)."""
        if self._net_dirty:
            if self._sched is not None:
                self._sched(self)
        elif fin < self._net_cache:
            self._net_cache = fin
            if self._sched is not None:
                self._sched(self)

    # ------------------------------------------------------------------
    # FCFS scheduling (delegated from FCFSQueue when banked)
    # ------------------------------------------------------------------
    def fcfs_enqueue(self, station, job: Job, now: float) -> None:
        if now > self._now:
            self._now = now
        station._bank_inflight += 1
        owner = station._depth_owner
        while owner is not None:
            owner._depth += 1
            owner = owner._depth_owner
        self._inflight += 1
        if station._paused:
            station._bank_frozen.append(job)
            return
        limit = now + 1e-9
        if station._bank_live and self._heap_min() <= limit:
            self._settle(station, limit)
        self._fcfs_admit(station, job, now)
        if job.finish_at <= limit:
            # the scalar enqueue completes a job inside the guard before
            # it returns, so guard completions keep arrival order
            self._complete(station, job, job.finish_at)
        if self._waker is not None:
            self._waker(self)

    def _settle(self, station, limit: float) -> None:
        """Complete the station's jobs due inside the guard, in
        ``(fin, seq)`` order, before an arrival is admitted (the scalar
        enqueue settles its own events first)."""
        due = [(job.finish_at, job) for job in station._bank_live
               if job.finish_at <= limit]
        # a stable sort: admission order breaks ties
        due.sort(key=lambda e: e[0])
        for fin, job in due:
            if job.finish_at == fin:
                self._complete(station, job, fin)

    def _fcfs_admit(self, station, job: Job, t: float) -> None:
        """Closed-form admission: equivalent to the scalar head-of-line
        loop, including FIFO non-overtaking past not_before guards."""
        free = station._bank_free
        if len(free) == 1:
            i = 0
            start = free[0]
        else:
            start = min(free)
            i = free.index(start)
        if t > start:
            start = t
        nb = job.not_before
        if nb > start:
            start = nb
        if station._bank_last_start > start:
            start = station._bank_last_start
        if station._bank_clock > start:
            start = station._bank_clock
        fin = start + job.remaining / station.rate
        free[i] = fin
        station._bank_last_start = start
        if job.start_time is None:
            job.start_time = start
        job.finish_at = fin
        station._bank_live[job] = start
        heapq.heappush(self._heap, (fin, next(self._seq), station, job))
        self._note_min(fin)

    def _complete(self, station, job: Job, fin: float) -> None:
        station._bank_inflight -= 1
        owner = station._depth_owner
        while owner is not None:
            owner._depth -= 1
            owner = owner._depth_owner
        self._inflight -= 1
        busy = fin - station._bank_live.pop(job)
        if busy > 0.0:
            station.record_busy(busy)
        station.completed_count += 1
        if fin > station._bank_clock:
            station._bank_clock = fin
        job.finish_at = None
        met = station._metrics
        if met is not None:
            start = job.start_time if job.start_time is not None else fin
            enq = job.enqueue_time if job.enqueue_time is not None else start
            met.observe_completion(start - enq, fin - start, fin - enq)
        job.finish(fin)

    @staticmethod
    def _credit(station, t: float) -> None:
        """Credit the service the station's live jobs performed up to
        ``t`` (a span that has not started yet owes nothing)."""
        live = station._bank_live
        total = 0.0
        for job, acc in live.items():
            fin = job.finish_at
            upto = fin if fin < t else t
            if upto > acc:
                total += upto - acc
                live[job] = upto
        if total > 0.0:
            station.record_busy(total)

    # ------------------------------------------------------------------
    # failure hooks (delegated from FCFSQueue when banked)
    # ------------------------------------------------------------------
    def fcfs_pause(self, station, now: Optional[float]) -> None:
        """Freeze the station: credit elapsed service, convert scheduled
        jobs back to remaining-work form, queue them for replay."""
        p = self._now if now is None else max(now, self._now)
        self._credit(station, p)
        live = station._bank_live
        for job in live:
            # (fin - p) * rate exceeds ``remaining`` exactly when the
            # scheduled start lies at/after the pause (no service yet);
            # otherwise it is the un-served tail of the span
            rem = (job.finish_at - p) * station.rate
            if rem < job.remaining:
                job.remaining = max(rem, 0.0)
            elif job.start_time is not None and job.start_time >= p:
                # a future scheduled start from this round, not a real one
                job.start_time = None
            job.finish_at = None  # invalidates the heap entry
        station._bank_live = {}
        station._bank_frozen = list(live)
        self._reschedule()

    def fcfs_crash(self, station) -> None:
        """Crash semantics: partial progress of frozen jobs is lost."""
        for job in station._bank_frozen:
            job.remaining = job.demand
            job.start_time = None

    def fcfs_repair(self, station, now: float) -> None:
        """Re-admit the frozen FIFO through the admission recurrence."""
        r = max(now, self._now)
        station._bank_free = [r] * len(station._bank_free)
        station._bank_last_start = r
        station._bank_clock = r
        frozen = station._bank_frozen
        station._bank_frozen = []
        for job in frozen:
            self._fcfs_admit(station, job, r)
        if self._waker is not None:
            self._waker(self)

    # ------------------------------------------------------------------
    # exact-event contract
    # ------------------------------------------------------------------
    def _heap_min(self) -> float:
        heap = self._heap
        while heap:
            fin, _seq, _st, job = heap[0]
            if job.finish_at == fin:
                return fin
            heapq.heappop(heap)
        return _INF

    def _reschedule(self) -> None:
        self._net_dirty = True
        if self._sched is not None:
            self._sched(self)

    def next_event_time(self) -> float:
        if not self._net_dirty:
            return self._net_cache
        nxt = self._heap_min()
        ps = self._ps_heap_min()
        if ps < nxt:
            nxt = ps
        self._net_cache = nxt
        self._net_dirty = False
        return nxt

    def advance_to(self, t: float) -> None:
        if self._advancing:
            return
        self._net_dirty = True
        self._advancing = True
        try:
            limit = t + 1e-9
            heap = self._heap
            while True:
                progressed = False
                while heap:
                    fin, _seq, station, job = heap[0]
                    if job.finish_at != fin:
                        heapq.heappop(heap)
                        continue
                    if fin > limit:
                        break
                    heapq.heappop(heap)
                    if fin > self._now:
                        self._now = fin
                    self._complete(station, job, fin)
                    progressed = True
                if self._ps_heap_min() <= limit:
                    self._advance_ps(t, limit)
                    progressed = True
                if not progressed:
                    break
        finally:
            self._advancing = False

    def _advance_ps(self, t: float, limit: float) -> None:
        """Advance the PS members due by ``limit``, in member order."""
        heap = self._ps_heap
        nxt = self._ps_next
        due = set()
        while heap and heap[0][0] <= limit:
            w, i = heapq.heappop(heap)
            if nxt[i] == w:
                due.add(i)
        for i in sorted(due):
            st = self._ps[i]
            st.advance_to(t)
            # the scalar contract puts the next internal event beyond t;
            # re-keying here covers an advance that fired no reschedule
            w = st.next_event_time()
            if w != nxt[i]:
                nxt[i] = w
                if w < _INF:
                    heapq.heappush(heap, (w, i))

    def sync_to(self, t: float) -> None:
        self.advance_to(t)
        for st in self._ps:
            st.sync_to(t)
        for st in self._fcfs:
            if st._bank_live:
                self._credit(st, t)
            if t > st.local_time:
                st.local_time = t
        if t > self.local_time:
            self.local_time = t
        if t > self._now:
            self._now = t

    # ------------------------------------------------------------------
    # Agent plumbing
    # ------------------------------------------------------------------
    def enqueue(self, job: Job, now: float) -> None:  # pragma: no cover
        raise TypeError(
            "BatchedTier is an engine driver; submit to its member stations"
        )

    def queue_length(self) -> int:
        return self._inflight + sum(ps.queue_length() for ps in self._ps)

    def idle(self) -> bool:
        if self._inflight:
            return False
        return all(ps.queue_length() == 0 for ps in self._ps)


# ----------------------------------------------------------------------
# engine wiring
# ----------------------------------------------------------------------
def register_driver(sim, driver: Agent) -> Agent:
    """Wire a vector driver into an engine as an *unlisted* exact agent.

    Drivers own event scheduling but are deliberately kept out of
    ``sim.agents``: telemetry, the invariant checker and the metrics
    mirror iterate the scalar topology agents, which stay authoritative
    for all accounting.
    """
    driver._waker = sim._wake
    if sim.mode == "event":
        driver._sched = sim._dirty.setdefault
    driver.local_time = max(driver.local_time, sim.clock.now)
    if not driver.idle():
        sim._wake(driver)
    driver._reschedule()
    return driver


def observe_agent(sim, agent: Agent, waker=None) -> Agent:
    """Register a scalar station *observationally*.

    The agent appears in ``sim.agents`` (telemetry, invariants, metrics
    mirror, tracing) exactly as under the scalar kernel, but the engine
    never schedules it: its ``_sched`` hook is cleared and its ``_waker``
    redirects submissions to the owning driver.
    """
    sim.agents.append(agent)
    agent._waker = waker
    agent._sched = None
    agent._tracer = sim.trace
    if sim.metrics is not None:
        agent._metrics = sim.metrics.agent(agent.name)
    agent.local_time = max(agent.local_time, sim.clock.now)
    return agent


def vectorize_agents(sim, agents, name: str = "tier") -> List[Agent]:
    """Register topology agents under the vector kernel.

    Classifies each agent and wires it behind a shared :class:`BatchedTier`
    (FCFS and PS stations, CPU socket queues); anything the bank does not
    batch -- the storage composites, which schedule themselves in closed
    form under either kernel, included -- falls back to plain scalar
    registration.  Returns the engine drivers created.
    """
    # imported lazily: repro.queueing must stay importable without the
    # hardware layer (which itself imports repro.queueing)
    from repro.hardware.cpu import CPU
    from repro.queueing.fcfs import FCFSQueue
    from repro.queueing.ps import PSQueue

    bank = BatchedTier(f"{name}.bank")
    drivers: List[Agent] = []
    for agent in agents:
        if isinstance(agent, CPU):
            observe_agent(sim, agent, waker=bank._member_wake)
            for q in agent.socket_queues:
                bank.adopt_fcfs(q)
        elif isinstance(agent, PSQueue):
            observe_agent(sim, agent)
            bank.adopt_ps(agent)
        elif isinstance(agent, FCFSQueue):
            observe_agent(sim, agent)
            bank.adopt_fcfs(agent)
        else:
            sim.add_agent(agent)
    if bank._fcfs or bank._ps:
        register_driver(sim, bank)
        drivers.append(bank)
    return drivers
