"""Struct-of-arrays queueing substrate — the ``kernel="vector"`` path.

The scalar substrate (`fcfs`/`ps` plus the hardware stations wrapping
them) drives every station as its own exact-event agent: each service
completion is an engine boundary and each boundary re-keys one
wake-heap entry.  On large fleets the profiler shows
``step_select``/``wake`` dominated by exactly this per-agent dispatch.

``BatchedTier`` batches homogeneous stations behind one engine driver:
a struct-of-arrays bank for FCFS stations (NIC, switch, CPU socket
queues) plus a multiplexer for PS stations (network links).  Each FCFS
member keeps a ``free``-slot vector; admission is the closed-form
recurrence ``start = max(now, not_before, free.min(), last_start)`` —
equivalent to the scalar head-of-line admission including the FIFO
non-overtaking guarantee — so a completion costs one shared-heap pop
instead of an engine boundary per station.  PS members keep their full
scalar machinery but report their next event into a bank-level numpy
vector with a cached min, so the engine sees one driver per tier
instead of one agent per station.

The storage composites (Disk, RAID, SAN) are not batched here: they
schedule every request's stage chain in closed form under either
kernel (:mod:`repro.hardware.storage`) and register as plain agents.

Scalar stations stay registered *observationally* (telemetry, tracing,
invariants and the metrics mirror read them as before); the bank owns
event scheduling.  Busy time is accrued as (start, fin) service spans
and folded into the scalar ``record_busy`` counters at measurement
boundaries, so windowed utilization, capacity invariants and telemetry
see the same accounting as the scalar path.  The scalar kernel remains
the differential oracle: bit-parity across kernels is not required,
but each kernel must pass the oracle sweep and event≡adaptive parity
on its own (``tests/core/test_kernel_parity.py``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.agent import Agent
from repro.core.job import Job

_INF = float("inf")

#: Open service spans are committed opportunistically past this count so
#: a long monitor-less run cannot buffer every span in memory.  Commits
#: happen at event times (never past the clock), so any threshold is
#: correct; the value only trades memory against commit batching.
SPAN_COMMIT_THRESHOLD = 4096


class _SpanStore:
    """Busy-time spans accrued lazily and committed in numpy batches.

    Every scheduled service contributes one ``(start, fin)`` span tagged
    with a station index.  ``commit(t)`` folds the elapsed portion of
    every span into the owning station's ``record_busy`` (one
    ``np.add.at`` scatter), remembers the committed prefix per span
    (``acc``) and drops fully-elapsed spans.  Committing at any
    ``t <= now`` is exact because schedules only change through
    pause/crash hooks, which commit and re-cut the spans first.
    """

    __slots__ = ("stations", "starts", "fins", "accs", "idx", "_n")

    def __init__(self, stations: List[Agent]) -> None:
        self.stations = stations
        self.starts: List[float] = []
        self.fins: List[float] = []
        self.accs: List[float] = []
        self.idx: List[int] = []
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def add(self, station_idx: int, start: float, fin: float) -> None:
        self.starts.append(start)
        self.fins.append(fin)
        self.accs.append(start)
        self.idx.append(station_idx)
        self._n += 1

    def commit(self, t: float) -> None:
        """Credit service performed up to ``t`` to the stations."""
        if not self.starts:
            return
        starts = np.asarray(self.starts)
        fins = np.asarray(self.fins)
        accs = np.asarray(self.accs)
        idx = np.asarray(self.idx, dtype=np.intp)
        upto = np.minimum(fins, t)
        delta = upto - np.maximum(accs, starts)
        pos = delta > 0.0
        if pos.any():
            totals = np.zeros(len(self.stations))
            np.add.at(totals, idx[pos], delta[pos])
            for i in np.flatnonzero(totals):
                self.stations[i].record_busy(float(totals[i]))
        keep = fins > t + 1e-12
        new_accs = np.maximum(accs, upto)
        if keep.all():
            self.accs = new_accs.tolist()
        else:
            self.starts = starts[keep].tolist()
            self.fins = fins[keep].tolist()
            self.accs = new_accs[keep].tolist()
            self.idx = idx[keep].tolist()
            self._n = len(self.starts)

    def drop_station(self, station_idx: int) -> None:
        """Discard the remaining spans of one station (pause freeze)."""
        keep = [i for i, s in enumerate(self.idx) if s != station_idx]
        self.starts = [self.starts[i] for i in keep]
        self.fins = [self.fins[i] for i in keep]
        self.accs = [self.accs[i] for i in keep]
        self.idx = [self.idx[i] for i in keep]
        self._n = len(self.starts)


class BatchedTier(Agent):
    """Struct-of-arrays bank advancing many stations as one engine agent.

    FCFS members are fully absorbed: their ``enqueue``/``queue_length``/
    failure hooks delegate here (see ``FCFSQueue._bank``), admissions are
    scheduled in closed form against a per-station numpy ``free`` vector,
    and completions pop from one shared ``(fin, seq, station, job)``
    heap (lazy deletion: an entry is valid iff ``job.finish_at`` still
    equals its key).  PS members keep the scalar machinery; the bank owns
    their ``_sched``/``_waker`` hooks and aggregates their next-event
    times into a numpy vector with an incrementally maintained min —
    the composite-agent cache generalized from per-child to per-tier.
    """

    agent_type = "batched-tier"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._stations: List[Agent] = []
        self._spans = _SpanStore(self._stations)
        self._heap: List[Tuple[float, int, Any, Job]] = []
        self._seq = itertools.count()
        self._fcfs: List[Any] = []
        self._ps: List[Any] = []
        self._ps_next = np.empty(0)
        self._ps_min = _INF
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
        station._bank_sidx = len(self._stations)
        # plain floats: admissions are scalar recurrences over a handful
        # of servers, where list min/index beats numpy dispatch
        station._bank_free = [0.0] * station.servers
        station._bank_last_start = 0.0
        # the station's event clock (latest completion or repair): an
        # arrival behind it is admitted at the clock, as in the scalar
        station._bank_clock = 0.0
        station._bank_inflight = 0
        #: the station's scheduled jobs by id, in admission (FIFO) order
        station._bank_live = {}
        station._bank_frozen = []
        station._waker = self._member_wake
        station._sched = self._member_resched
        self._stations.append(station)
        self._fcfs.append(station)

    def adopt_ps(self, station) -> None:
        """Multiplex a PS station (network link) through the bank."""
        station._bank_sidx = len(self._stations)
        station._bank_pidx = len(self._ps)
        station._waker = self._member_wake
        station._sched = self._ps_resched
        self._stations.append(station)
        self._ps.append(station)
        self._ps_next = np.append(self._ps_next, station.next_event_time())
        self._ps_min = float(self._ps_next.min())

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
        """PS member ``_sched``: maintain the aggregated next-event min."""
        arr = self._ps_next
        i = station._bank_pidx
        new = station.next_event_time()
        old = arr[i]
        if new == old:
            return
        arr[i] = new
        cur = self._ps_min
        if new < cur:
            self._ps_min = new
        elif old == cur:
            nxt = float(arr.min()) if arr.size else _INF
            self._ps_min = nxt
            if nxt == cur:  # another member shares the old min
                return
        else:
            return
        self._reschedule()

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
        due = [(job.finish_at, job) for job in station._bank_live.values()
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
        station._bank_live[id(job)] = job
        heapq.heappush(self._heap, (fin, next(self._seq), station, job))
        self._spans.add(station._bank_sidx, start, fin)
        self._note_min(fin)

    def _complete(self, station, job: Job, fin: float) -> None:
        station._bank_inflight -= 1
        owner = station._depth_owner
        while owner is not None:
            owner._depth -= 1
            owner = owner._depth_owner
        self._inflight -= 1
        del station._bank_live[id(job)]
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

    # ------------------------------------------------------------------
    # failure hooks (delegated from FCFSQueue when banked)
    # ------------------------------------------------------------------
    def fcfs_pause(self, station, now: Optional[float]) -> None:
        """Freeze the station: commit elapsed service, convert scheduled
        jobs back to remaining-work form, queue them for replay."""
        p = self._now if now is None else max(now, self._now)
        self._spans.commit(p)
        frozen: List[Job] = []
        for job in station._bank_live.values():
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
            frozen.append(job)
        station._bank_live = {}
        self._spans.drop_station(station._bank_sidx)
        station._bank_frozen = frozen
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
        if self._ps_min < nxt:
            nxt = self._ps_min
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
                if self._ps_min <= limit:
                    arr = self._ps_next
                    for i in np.flatnonzero(arr <= limit):
                        st = self._ps[i]
                        st.advance_to(t)
                        # the scalar contract guarantees the next internal
                        # event now lies beyond t; re-read defensively so
                        # a missed reschedule cannot loop forever
                        arr[i] = st.next_event_time()
                    self._ps_min = float(arr.min()) if arr.size else _INF
                    progressed = True
                if not progressed:
                    break
        finally:
            self._advancing = False
        if len(self._spans) > SPAN_COMMIT_THRESHOLD:
            # commit at the last processed event time: never past the
            # clock, and identical across stepping modes
            self._spans.commit(self._now)

    def sync_to(self, t: float) -> None:
        self.advance_to(t)
        self._spans.commit(t)
        for st in self._ps:
            st.sync_to(t)
        for st in self._fcfs:
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
        if self._inflight or len(self._spans):
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
    if bank._stations:
        register_driver(sim, bank)
        drivers.append(bank)
    return drivers
