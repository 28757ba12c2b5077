"""Struct-of-arrays queueing substrate — the ``kernel="vector"`` path.

The scalar substrate (`fcfs`/`ps`/`forkjoin` plus the hardware stations
wrapping them) drives every station as its own exact-event agent: each
service completion is an engine boundary, each boundary re-keys one
wake-heap entry, and a single SAN round trip costs tens of Python-level
events.  On large fleets the profiler shows ``step_select``/``wake``
dominated by exactly this per-agent dispatch.

This module batches homogeneous stations behind two engine drivers:

``BatchedTier``
    A struct-of-arrays bank for FCFS stations (NIC, switch, CPU socket
    queues) plus a multiplexer for PS stations (network links).  Each
    FCFS member keeps a numpy ``free``-slot vector; admission is the
    closed-form recurrence ``start = max(now, not_before, free.min(),
    last_start)`` — equivalent to the scalar head-of-line admission
    including the FIFO non-overtaking guarantee — so a completion costs
    one shared-heap pop instead of an engine boundary per station.  PS
    members keep their full scalar machinery but report their next event
    into a bank-level numpy vector with a cached min, so the engine sees
    one driver per tier instead of one agent per station.

``VectorArray``
    A one-event fast path for a SAN/RAID composite.  The internal
    stage network (fc switch -> array controller -> fc loop -> striped
    disk controllers -> drives) is feed-forward with single-server FIFO
    stages, so the whole per-request schedule is computable in closed
    form at submit time: one numpy pass over the stripe replaces the
    ~dozens of scalar stage events, and the only engine boundary is the
    sibling join.

Scalar stations stay registered *observationally* (telemetry, tracing,
invariants and the metrics mirror read them as before); the drivers own
event scheduling.  Busy time is accrued as (start, fin) service spans
and folded into the scalar ``record_busy`` counters in one vectorized
pass at measurement boundaries, so windowed utilization, capacity
invariants and telemetry see exactly the same accounting as the scalar
path.  The scalar kernel remains the differential oracle: bit-parity
across kernels is not required, but each kernel must pass the oracle
sweep and event≡adaptive parity on its own (``tests/core/
test_kernel_parity.py``).
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

    __slots__ = ("stations", "starts", "fins", "accs", "idx", "blocks",
                 "_n")

    def __init__(self, stations: List[Agent]) -> None:
        self.stations = stations
        self.starts: List[float] = []
        self.fins: List[float] = []
        self.accs: List[float] = []
        self.idx: List[int] = []
        #: whole-stripe spans parked as ``(idx0, starts, fins)`` array
        #: triples — one append per stripe instead of 2n list ops; the
        #: arrays are owned by the store (callers must not mutate them)
        #: and folded into the flat lists on demand
        self.blocks: List[Tuple[int, Any, Any]] = []
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def add(self, station_idx: int, start: float, fin: float) -> None:
        self.starts.append(start)
        self.fins.append(fin)
        self.accs.append(start)
        self.idx.append(station_idx)
        self._n += 1

    def add_block(self, idx0: int, starts, fins) -> None:
        """Batch-add one span per station for a contiguous index run
        (``idx0 .. idx0+len(starts)``) — the striped-stage fast path."""
        self.blocks.append((idx0, starts, fins))
        self._n += len(starts)

    def add_at(self, idxs, starts, fins) -> None:
        """Batch-add spans at explicit station indices (numpy arrays)."""
        s = starts.tolist()
        self.starts.extend(s)
        self.fins.extend(fins.tolist())
        self.accs.extend(s)
        self.idx.extend(idxs.tolist())
        self._n += len(s)

    def _flatten(self) -> None:
        """Fold parked stripe blocks into the flat span lists."""
        if not self.blocks:
            return
        for idx0, starts, fins in self.blocks:
            s = starts.tolist()
            self.starts.extend(s)
            self.fins.extend(fins.tolist())
            self.accs.extend(s)
            self.idx.extend(range(idx0, idx0 + len(s)))
        self.blocks.clear()

    def commit(self, t: float) -> None:
        """Credit service performed up to ``t`` to the stations."""
        self._flatten()
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
        self._flatten()
        keep = [i for i, s in enumerate(self.idx) if s != station_idx]
        self.starts = [self.starts[i] for i in keep]
        self.fins = [self.fins[i] for i in keep]
        self.accs = [self.accs[i] for i in keep]
        self.idx = [self.idx[i] for i in keep]
        self._n = len(self.starts)

    def clear(self) -> None:
        """Discard every open span (crash: scheduled service is lost)."""
        self.starts = []
        self.fins = []
        self.accs = []
        self.idx = []
        self.blocks = []
        self._n = 0

    def shift(self, p: float, delta: float) -> None:
        """Slide the uncommitted tail of every span by ``delta`` (repair
        after a non-crash pause at ``p``)."""
        self._flatten()
        for i in range(len(self.starts)):
            start = self.starts[i]
            self.starts[i] = start + delta if start >= p else p + delta
            self.fins[i] += delta
            self.accs[i] = max(self.accs[i], p) + delta


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
        station._bank_inflight = 0
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
        self._fcfs_admit(station, job, now)
        if self._waker is not None:
            self._waker(self)

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
        fin = start + job.remaining / station.rate
        free[i] = fin
        station._bank_last_start = start
        if job.start_time is None:
            job.start_time = start
        job.finish_at = fin
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
        station.completed_count += 1
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
    def _station_jobs(self, station) -> List[Tuple[int, Job]]:
        """The station's scheduled jobs in admission (FIFO) order."""
        out = [
            (seq, job)
            for fin, seq, st, job in self._heap
            if st is station and job.finish_at == fin
        ]
        out.sort(key=lambda e: e[0])
        return out

    def fcfs_pause(self, station, now: Optional[float]) -> None:
        """Freeze the station: commit elapsed service, convert scheduled
        jobs back to remaining-work form, queue them for replay."""
        p = self._now if now is None else max(now, self._now)
        self._spans.commit(p)
        frozen: List[Job] = []
        for _seq, job in self._station_jobs(station):
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


class VectorArray(Agent):
    """Closed-form scheduler for one SAN/RAID composite.

    The stage network is feed-forward with single-server FIFO stages, so
    at submit time the full per-request schedule — fc switch, array
    controller, fc loop, striped disk controllers, drives — is computed
    in one numpy pass over the stripe and only the sibling *join* is an
    engine event.  RNG draws happen in the scalar order (array hit at
    submit; per-disk hits in disk order on a miss), so the per-stream
    sequences match the scalar kernel draw for draw.

    Failure semantics mirror the scalar stages: a pause commits elapsed
    service and, at repair, slides every uncommitted schedule by the
    outage; a crash discards progress and replays every pending request
    from scratch (reusing the original cache draws).
    """

    agent_type = "vector-array"

    def __init__(self, owner) -> None:
        super().__init__(f"{owner.name}.varray")
        self.owner = owner
        disks = owner.disks
        self.n = len(disks)
        self._has_loop = hasattr(owner, "fcsw")  # SAN; RAID has no FC loop
        stations: List[Agent] = []
        if self._has_loop:
            stations.append(owner.fcsw)
        self._si_dacc = len(stations)
        stations.append(owner.dacc)
        if self._has_loop:
            stations.append(owner.fcal)
        self._si_dcc = len(stations)
        stations.extend(d.dcc for d in disks)
        self._si_hdd = len(stations)
        stations.extend(d.hdd for d in disks)
        self._spans = _SpanStore(stations)
        self._fcsw_free = 0.0
        self._dacc_free = 0.0
        self._fcal_free = 0.0
        self._dcc_free = np.zeros(self.n)
        self._hdd_free = np.zeros(self.n)
        self._dcc_inv = 1.0 / np.array([d.dcc.rate for d in disks])
        self._hdd_inv = 1.0 / np.array([d.hdd.rate for d in disks])
        # per-disk cache draws stay per-stream (each disk owns a seeded
        # Random), but the bound methods and hit rates are pre-gathered
        # and the per-disk counters accrue lazily, flushed at sync
        # points — the per-request Python loop over the stripe is gone
        self._disk_draw = [d._rng.random for d in disks]
        self._disk_hit_rate = np.array([d.cache_hit_rate for d in disks])
        self._zero_cache = not (self._disk_hit_rate > 0.0).any()
        self._no_hits = np.zeros(self.n, dtype=bool)
        self._pend_disk_hits = np.zeros(self.n, dtype=np.int64)
        self._pend_rounds = 0
        self._pend_fan_completions = 0
        self._heap: List[Tuple[float, int]] = []
        self._seq = itertools.count()
        # seq -> [join, job, array_hit, disk_hits-or-None]
        self._pending: Dict[int, list] = {}
        self._paused_arrivals: List[Tuple[Job, bool]] = []
        self._now = 0.0
        self._pause_at: Optional[float] = None
        self._crashed = False
        self._net_cache = _INF
        self._net_dirty = True

    # ------------------------------------------------------------------
    # submit path (delegated from SAN/RAID.enqueue)
    # ------------------------------------------------------------------
    def request(self, job: Job, now: float) -> None:
        owner = self.owner
        # array cache draw first — same stream order as the scalar path
        hit = owner._rng.random() < owner.array_cache_hit_rate
        if hit:
            owner.cache_hits += 1
        else:
            owner.cache_misses += 1
        if now > self._now:
            self._now = now
        if self._paused:
            # disk draws happen at replay, like the scalar frozen fan-out
            self._paused_arrivals.append((job, hit))
            return
        join, disk_hits = self._schedule_path(job, now, hit, None)
        seq = next(self._seq)
        self._pending[seq] = [join, job, hit, disk_hits]
        heapq.heappush(self._heap, (join, seq))
        if self._waker is not None:
            self._waker(self)
        # re-key only when the new join can move the minimum
        if self._net_dirty:
            if self._sched is not None:
                self._sched(self)
        elif join < self._net_cache:
            self._net_cache = join
            if self._sched is not None:
                self._sched(self)
        if len(self._spans) > SPAN_COMMIT_THRESHOLD:
            self._spans.commit(self._now)

    def _schedule_path(
        self, job: Job, now: float, hit: bool, disk_hits
    ) -> Tuple[float, Any]:
        """Compute the request's full stage schedule; returns the join
        time and the per-disk cache draws (None on an array hit)."""
        owner = self.owner
        d = job.demand
        spans = self._spans
        t0 = now if job.not_before <= now else job.not_before
        if self._has_loop:
            s = t0 if t0 > self._fcsw_free else self._fcsw_free
            fin = s + d / owner.fcsw.rate
            self._fcsw_free = fin
            spans.add(0, s, fin)
            t0 = fin
        s = t0 if t0 > self._dacc_free else self._dacc_free
        dacc_fin = s + d / owner.dacc.rate
        self._dacc_free = dacc_fin
        spans.add(self._si_dacc, s, dacc_fin)
        if hit:
            return dacc_fin, None
        t1 = dacc_fin
        if self._has_loop:
            s = t1 if t1 > self._fcal_free else self._fcal_free
            fcal_fin = s + d / owner.fcal.rate
            self._fcal_free = fcal_fin
            spans.add(self._si_dacc + 1, s, fcal_fin)
            t1 = fcal_fin
        per = d / self.n
        if disk_hits is None:
            # per-disk draws in disk order = the scalar FIFO fan-out order
            if self._zero_cache:
                for r in self._disk_draw:
                    r()
                disk_hits = self._no_hits  # shared, treated immutable
                any_hit = False
            else:
                draws = np.fromiter(
                    (r() for r in self._disk_draw), dtype=float, count=self.n)
                disk_hits = draws < self._disk_hit_rate
                any_hit = bool(disk_hits.any())
                if any_hit:
                    self._pend_disk_hits += disk_hits
            self._pend_rounds += 1
        else:  # crash replay: reuse the stored draws, counters untouched
            any_hit = disk_hits is not self._no_hits and bool(disk_hits.any())
        dcc_start = np.maximum(t1, self._dcc_free)
        dcc_fin = dcc_start + per * self._dcc_inv
        self._dcc_free = dcc_fin
        spans.add_block(self._si_dcc, dcc_start, dcc_fin)
        if not any_hit:
            # every disk misses (the common case when caches are cold or
            # disabled): whole-stripe arrays, no fancy indexing
            hs = np.maximum(dcc_fin, self._hdd_free)
            hf = hs + per * self._hdd_inv
            self._hdd_free = hf
            spans.add_block(self._si_hdd, hs, hf)
            return float(hf.max()), disk_hits
        miss = ~disk_hits
        if miss.any():
            midx = np.flatnonzero(miss)
            hs = np.maximum(dcc_fin[midx], self._hdd_free[midx])
            hf = hs + per * self._hdd_inv[midx]
            # copy before the fancy assignment: the current free vector
            # may be parked in the span store as a block
            nf = self._hdd_free.copy()
            nf[midx] = hf
            self._hdd_free = nf
            spans.add_at(midx + self._si_hdd, hs, hf)
            branch = dcc_fin.copy()
            branch[midx] = hf
            return float(branch.max()), disk_hits
        return float(dcc_fin.max()), disk_hits

    def _complete(self, rec: list, t: float) -> None:
        _join, job, _hit, disk_hits = rec
        self.owner.completed_count += 1
        if disk_hits is not None:
            self._pend_fan_completions += 1
        job.finish(t)

    def _flush_counters(self) -> None:
        """Fold the deferred per-disk counters into the disk agents.

        Runs at sync points (monitor boundaries, pause, end of run) —
        everywhere per-disk telemetry is observable."""
        rounds = self._pend_rounds
        fan = self._pend_fan_completions
        if rounds == 0 and fan == 0:
            return
        hits = self._pend_disk_hits
        for i, dsk in enumerate(self.owner.disks):
            h = int(hits[i])
            dsk.cache_hits += h
            dsk.cache_misses += rounds - h
            dsk.completed_count += fan
        hits[:] = 0
        self._pend_rounds = 0
        self._pend_fan_completions = 0

    # ------------------------------------------------------------------
    # exact-event contract
    # ------------------------------------------------------------------
    def _reschedule(self) -> None:
        self._net_dirty = True
        if self._sched is not None:
            self._sched(self)

    def next_event_time(self) -> float:
        if self._paused:
            return _INF
        if not self._net_dirty:
            return self._net_cache
        nxt = _INF
        heap = self._heap
        pending = self._pending
        while heap:
            join, seq = heap[0]
            rec = pending.get(seq)
            if rec is not None and rec[0] == join:
                nxt = join
                break
            heapq.heappop(heap)
        self._net_cache = nxt
        self._net_dirty = False
        return nxt

    def advance_to(self, t: float) -> None:
        if self._paused:
            return
        self._net_dirty = True
        limit = t + 1e-9
        heap = self._heap
        pending = self._pending
        while heap:
            join, seq = heap[0]
            rec = pending.get(seq)
            if rec is None or rec[0] != join:
                heapq.heappop(heap)
                continue
            if join > limit:
                break
            heapq.heappop(heap)
            del pending[seq]
            if join > self._now:
                self._now = join
            self._complete(rec, join)
        if len(self._spans) > SPAN_COMMIT_THRESHOLD:
            self._spans.commit(self._now)

    def sync_to(self, t: float) -> None:
        self.advance_to(t)
        if not self._paused:
            self._spans.commit(t)
        self._flush_counters()
        if t > self.local_time:
            self.local_time = t
        if not self._paused and t > self._now:
            self._now = t

    # ------------------------------------------------------------------
    # failure semantics (forwarded by the owner composite)
    # ------------------------------------------------------------------
    def on_pause(self, now: Optional[float]) -> None:
        p = self._now if now is None else max(now, self._now)
        self._spans.commit(p)
        self._flush_counters()
        self._pause_at = p

    def on_crash(self) -> None:
        self._crashed = True

    def on_repair(self, now: float) -> None:
        p = self._pause_at if self._pause_at is not None else self._now
        self._pause_at = None
        r = max(now, p)
        if self._crashed:
            self._crashed = False
            self._spans.clear()
            self._fcsw_free = r
            self._dacc_free = r
            self._fcal_free = r
            self._dcc_free[:] = r
            self._hdd_free[:] = r
            for seq in sorted(self._pending):
                rec = self._pending[seq]
                join, disk_hits = self._schedule_path(
                    rec[1], r, rec[2], rec[3]
                )
                rec[0] = join
                rec[3] = disk_hits
        else:
            delta = r - p
            if delta > 0.0:
                self._spans.shift(p, delta)
                self._fcsw_free = self._shift_free(self._fcsw_free, p, delta)
                self._dacc_free = self._shift_free(self._dacc_free, p, delta)
                self._fcal_free = self._shift_free(self._fcal_free, p, delta)
                np.copyto(
                    self._dcc_free,
                    np.where(self._dcc_free > p, self._dcc_free + delta,
                             self._dcc_free),
                )
                np.copyto(
                    self._hdd_free,
                    np.where(self._hdd_free > p, self._hdd_free + delta,
                             self._hdd_free),
                )
                for rec in self._pending.values():
                    if rec[0] > p:
                        rec[0] += delta
        self._heap = [(rec[0], seq) for seq, rec in self._pending.items()]
        heapq.heapify(self._heap)
        arrivals = self._paused_arrivals
        self._paused_arrivals = []
        for job, hit in arrivals:
            join, disk_hits = self._schedule_path(job, r, hit, None)
            seq = next(self._seq)
            self._pending[seq] = [join, job, hit, disk_hits]
            heapq.heappush(self._heap, (join, seq))
        if r > self._now:
            self._now = r

    @staticmethod
    def _shift_free(free: float, p: float, delta: float) -> float:
        return free + delta if free > p else free

    # ------------------------------------------------------------------
    # Agent plumbing
    # ------------------------------------------------------------------
    def enqueue(self, job: Job, now: float) -> None:
        self.request(job, now)

    def queue_length(self) -> int:
        return len(self._pending) + len(self._paused_arrivals)

    def idle(self) -> bool:
        # pending deferred counters keep the driver active so the final
        # sync_to flushes them before idle eviction
        return (
            not self._pending
            and not self._paused_arrivals
            and not len(self._spans)
            and self._pend_rounds == 0
            and self._pend_fan_completions == 0
        )


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
    (FCFS and PS stations, CPU socket queues) or a per-composite
    :class:`VectorArray` (SAN/RAID); anything the vector kernel does not
    batch falls back to plain scalar registration.  Returns the engine
    drivers created.
    """
    # imported lazily: repro.queueing must stay importable without the
    # hardware layer (which itself imports repro.queueing)
    from repro.hardware.cpu import CPU
    from repro.hardware.raid import RAID
    from repro.hardware.san import SAN
    from repro.queueing.fcfs import FCFSQueue
    from repro.queueing.ps import PSQueue

    bank = BatchedTier(f"{name}.bank")
    drivers: List[Agent] = []
    for agent in agents:
        if isinstance(agent, (SAN, RAID)):
            varray = VectorArray(agent)
            agent._varray = varray

            def _array_wake(_a, _v=varray):
                if _v._waker is not None:
                    _v._waker(_v)
                _v._reschedule()

            observe_agent(sim, agent, waker=_array_wake)
            register_driver(sim, varray)
            drivers.append(varray)
        elif isinstance(agent, CPU):
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
