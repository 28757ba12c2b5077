"""Closed-form stage schedules for the storage composites (Figs 3-7, 3-8).

A Disk, RAID or SAN request walks a feed-forward chain of single-server
FCFS stages: the SAN's fiber-channel switch, array controller cache and
arbitrated loop (the RAID has only the controller), then a striped
fan-out across the member disks, each a controller cache ``Qdcc``
followed by the drive ``Qhdd``.  Every stage serves its jobs in request
order, so Lindley's recursion ``start = max(arrival, stage_free)``
fixes a request's whole schedule the moment it is admitted: a later
arrival never delays an earlier job.  The composite therefore computes
every stage span at admission and keeps one engine event per request,
the *join* when its last stripe finishes.

The leaf :class:`~repro.queueing.fcfs.FCFSQueue` stages schedule
nothing.  They stay passive accumulators of busy time and completion
counts, filled from the schedule with the event-by-event stations'
exact semantics:

* a stage finishes at ``start + demand / rate``;
* busy time accrues one piece per service span and station, in time
  order, split where a measurement sync falls inside a span;
* ``queue_length()`` counts the stage jobs held: 1 before the fan-out,
  then the stripes not yet finished;
* joins fire in time order, and joins within the guard of each other
  in station order of their last stripe, as the per-station event pass
  would fire them;
* a pause, crash or repair of the composite or of one member disk
  re-plans only the spans it interrupts and those queued behind them.

While every member disk is alike (same speeds and free times, cold
controller caches, none down), a request's row keeps one lane's spans
for all of them, so planning costs a handful of float operations
whatever the stripe width; the first failure or cache hit gives every
lane its own spans again.

The event-by-event chain these rules reproduce lives on as the
reference path in :mod:`repro.verification.storage`.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Dict, List

from repro.core.agent import Agent
from repro.core.job import Job
from repro.queueing.fcfs import GUARD, FCFSQueue, lindley_start

_INF = float("inf")

#: Requests admitted between folds of the finished spans into the
#: stages' busy counters (a run without monitors would otherwise keep
#: every span until the composite next goes idle).
COMMIT_ROWS = 8


class Stage(FCFSQueue):
    """A storage stage: an FCFS station whose busy time and completion
    count the owning composite folds in lazily.  Reading either settles
    the owner first, so a reader always sees the event-by-event value
    for everything the composite has processed."""

    _owner = None

    @property
    def busy_time(self) -> float:
        if self._owner is not None:
            self._owner._settled()
        return self._busy

    @busy_time.setter
    def busy_time(self, value: float) -> None:
        self._busy = value

    @property
    def completed_count(self) -> int:
        if self._owner is not None:
            self._owner._settled()
        return self._completed

    @completed_count.setter
    def completed_count(self, value: int) -> None:
        self._completed = value


class HitStream:
    """The cache-hit stream (``_rng``) of a disk, array or memory,
    seeded from ``_seed`` on first use: a cache whose hit rate is 0
    never draws, so it never pays for a generator (about 3 kB each).
    Listed after ``Agent`` in the bases, so a built composite keeps
    the instance layout that lets it switch class (``as_reference``)."""

    __slots__ = ()  # the agent's instance dict holds the state
    _seed = None
    _stream = None

    @property
    def _rng(self) -> random.Random:
        if self._stream is None:
            self._stream = random.Random(self._seed)
        return self._stream

    @_rng.setter
    def _rng(self, rng: random.Random) -> None:
        self._stream = rng


class _Request:
    """One admitted request: its stage spans and join bookkeeping.

    ``S`` holds, per station column ``j``, the accrual start ``S[2j]``
    (the span's start, or the last sync that cut it; ``None`` once the
    span owes no busy time) and the finish ``S[2j+1]``; an unplanned span
    (behind a failed stage, or not on the request's path) finishes at
    ``inf``.  A *uniform* row keeps the front columns and one (controller,
    drive) pair standing for every lane.
    """

    __slots__ = ("seq", "job", "arrival", "hit", "lane_hit", "fork",
                 "first", "join", "finals", "S", "uniform")

    def __init__(self, seq: int, job: Job, arrival: float, hit: bool,
                 lane_hit) -> None:
        self.seq = seq
        self.job = job
        self.arrival = arrival
        self.hit = hit
        #: per-lane controller-cache hits (``None``: every lane misses)
        self.lane_hit = lane_hit
        #: fan-out time (``inf`` for array hits and blocked requests)
        self.fork = _INF
        #: earliest and latest stripe finish; ``join`` is ``inf`` while a
        #: failed stage holds part of the schedule
        self.first = _INF
        self.join = _INF
        #: per-lane final finish times (``None``: all equal to ``join``)
        self.finals = None
        self.S = None
        self.uniform = False


class StripedStorage(Agent, HitStream):
    """Engine agent scheduling a storage composite in closed form.

    Subclasses build their stages and call :meth:`_init_schedule` with
    the front stages (in path order), the member disks (the *lanes*)
    and the index of the front stage whose array-cache hit ends a
    request (``None`` without an array cache).
    """

    def _init_schedule(self, front, lanes, hit_stage) -> None:
        self._front = list(front)
        self._lanes = list(lanes)
        self._hit_stage = hit_stage
        F = self._F = len(self._front)
        n = self._n = len(self._lanes)
        cols = list(self._front)
        for lane in self._lanes:
            cols += (lane.dcc, lane.hdd)
        for st in cols:
            st._owner = self
        self._cols = cols
        self._ncols = len(cols)
        self._rates = [st.rate for st in cols]
        # Lindley state: when each stage's last planned job finishes
        self._ffree = [0.0] * F
        self._dfree = [0.0] * n
        self._hfree = [0.0] * n
        self._lane_rate = [lane.cache_hit_rate for lane in self._lanes]
        self._cold = not any(r > 0.0 for r in self._lane_rate)
        self._lane_draw = (None if self._cold else
                           [lane._rng.random for lane in self._lanes])
        # a bare Disk is its own single lane: its counters are its own
        self._members = bool(n) and self._lanes[0] is not self
        # lane draws not yet credited to the lanes' cache counters
        self._pend_rounds = 0
        self._pend_hits = [0] * n
        self._pending: Dict[int, _Request] = {}
        #: requests whose spans still owe busy time, in admission order
        self._rows: List[_Request] = []
        self._commit_at = COMMIT_ROWS
        #: stage completions of lane 0 and stripes finished per lane that
        #: the other lanes have not taken yet (see _spread)
        self._lag = None
        #: (horizon, admissions) when the rows were last folded in
        self._clean = (-_INF, 0)
        #: the composite's busy total, cached between changes
        self._total = None
        self._heap: List[tuple] = []
        self._seq = 0
        self._next = _INF
        # processed horizon: stage events up to it (plus the guard) are
        # what the event-by-event stations would have processed
        self._H = 0.0
        # failure state per column
        self._down = [False] * self._ncols
        self._pause_at = [0.0] * self._ncols
        self._repaired_at = [-_INF] * self._ncols
        #: column -> (request seq, remaining work) of a job frozen
        #: mid-service
        self._frozen: Dict[int, tuple] = {}
        self._paused_cols: List[int] = []
        self._paused_members: List[Agent] = []
        self._check_uniform()

    def _check_uniform(self) -> None:
        """Plan uniform rows while every lane is alike: same speeds, free
        times and counters, cold caches, none down, and no row in flight
        (checked at start-up and whenever the composite drains)."""
        F = self._F
        rates = self._rates
        cols = self._cols
        self._uniform = bool(
            self._n and self._cold and not self._rows
            and not any(self._down)
            and len(set(self._dfree)) == 1 and len(set(self._hfree)) == 1
            and all(len(set(rates[k::2])) == 1
                    and len({(st._busy, st._window_busy)
                             for st in cols[k::2]}) == 1
                    for k in (F, F + 1))
        )
        if self._uniform:
            self._ud = self._dfree[0]
            self._uh = self._hfree[0]

    def _leave_uniform(self) -> None:
        """Give every lane its own state and every row its own spans."""
        if not self._uniform:
            return
        self._spread()
        self._uniform = False
        self._dfree = [self._ud] * self._n
        self._hfree = [self._uh] * self._n
        F2 = 2 * self._F
        for rec in self._rows:
            rec.S = rec.S[:F2] + rec.S[F2:] * self._n
            rec.uniform = False

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _draw_array_hit(self) -> bool:
        """The array-cache draw (SAN/RAID); a bare Disk has none."""
        return False

    def enqueue(self, job: Job, now: float) -> None:
        hit = self._draw_array_hit()
        if now > self._H and not self._paused:
            # (a paused composite processes nothing until its repair)
            self._H = now
        limit = now + GUARD
        self._seq += 1
        rec = _Request(self._seq, job, now, hit, None)
        if not hit:
            rec.lane_hit = self._draw_lanes()
        if self._uniform and rec.lane_hit is None and (
                self._F or job.not_before <= now):
            rec.uniform = True
            rec.S = [None, _INF] * (self._F + 2)
        else:
            self._leave_uniform()
            rec.S = [None, _INF] * self._ncols
        self._walk(rec)
        self._pending[rec.seq] = rec
        self._rows.append(rec)
        join = rec.join
        if join <= limit:
            # the whole chain finishes inside the guard: the stages
            # would complete it before this enqueue returns
            self._finish(rec)
        elif join < self._next:
            heappush(self._heap, (join, rec.seq))
            self._next = join
            self._reschedule()
        elif join != _INF:
            heappush(self._heap, (join, rec.seq))
        if len(self._rows) > self._commit_at:
            self._commit(self._H, cut=False)

    def _draw_lanes(self):
        """Per-lane controller-cache draws, in lane order (the fan-out
        order of the event chain); ``None`` when every lane misses.
        Every round counts toward the lanes' cache counters."""
        self._pend_rounds += 1
        if self._cold:
            # a cold cache cannot hit: no lane draws a number
            return None
        hits = [d() < r for d, r in zip(self._lane_draw, self._lane_rate)]
        if not any(hits):
            return None
        pend = self._pend_hits
        for i, h in enumerate(hits):
            if h:
                pend[i] += 1
        return hits

    def _walk(self, rec: _Request) -> None:
        """(Re)plan every stage of ``rec`` that is unplanned and can be
        planned: its stage is up and the job has reached it.  Requests
        must be walked in admission order (each stage is FIFO)."""
        S = rec.S
        down = self._down
        d = rec.job.demand
        t = rec.arrival
        for j in range(self._F):
            e = S[2 * j + 1]
            if e != _INF:
                t = e
            elif t == _INF or down[j]:
                t = _INF
                S[2 * j] = _INF  # owed: keeps the row until planned
            else:
                t = self._stage(j, rec, t, rec.job.not_before if j == 0
                                else t, d)
            if rec.hit and j == self._hit_stage:
                rec.first = rec.join = t
                return
        rec.fork = t
        per = d / self._n
        F = self._F
        if rec.uniform:
            # every lane alike: the first lane's spans stand for all
            d0 = self._ud
            s1 = t if t > d0 else d0
            f1 = s1 + per / self._rates[F]
            h0 = self._uh
            s2 = f1 if f1 > h0 else h0
            f2 = s2 + per / self._rates[F + 1]
            self._ud = f1
            self._uh = f2
            S[2 * F:] = (s1, f1, s2, f2)
            rec.first = rec.join = f2
            return
        hit = rec.lane_hit
        finals = []
        for i in range(self._n):
            a = t
            for drive in (0, 1):
                if drive and hit is not None and hit[i]:
                    break  # controller-cache hit skips the drive
                j = F + 2 * i + drive
                e = S[2 * j + 1]
                if e != _INF:
                    a = e
                elif a == _INF or down[j]:
                    a = _INF
                    S[2 * j] = _INF
                else:
                    nb = rec.job.not_before if j == 0 else a
                    a = self._stage(j, rec, a, nb, per)
            finals.append(a)
        rec.finals = finals
        rec.first = min(finals)
        rec.join = max(finals)

    def _stage(self, j: int, rec: _Request, arrival: float,
               not_before: float, demand: float) -> float:
        """Plan span ``j`` of ``rec``; returns its finish."""
        F = self._F
        if j < F:
            free = self._ffree[j]
        else:
            i, drive = divmod(j - F, 2)
            free = (self._hfree if drive else self._dfree)[i]
        frozen = self._frozen.get(j)
        if frozen is not None and frozen[0] == rec.seq:
            # resumes after an outage: the remaining work from the repair
            del self._frozen[j]
            s = free
            f = s + frozen[1] / self._rates[j]
        else:
            s = lindley_start(arrival, not_before, free)
            f = s + demand / self._rates[j]
        if j < F:
            self._ffree[j] = f
        else:
            (self._hfree if drive else self._dfree)[i] = f
        rec.S[2 * j] = s
        rec.S[2 * j + 1] = f
        return f

    # ------------------------------------------------------------------
    # busy-time accrual
    # ------------------------------------------------------------------
    def _commit(self, t: float, cut: bool) -> None:
        """Fold the spans finished by ``t`` into the stages' counters;
        with ``cut`` (a measurement sync at ``t``) also the elapsed part
        of the spans in service, as the stations' sync would.

        Each station's counters take one piece per span, in admission
        (= time) order, as a running sum: no piece is pre-summed.  While
        the rows are uniform only the first lane's counters take the lane
        pieces; every other lane (equal before) copies them when next
        read (:meth:`_spread`)."""
        rows = self._rows
        if not rows:
            return
        lim = t + GUARD
        F = self._F
        uniform = self._uniform
        width = F + 2 if uniform else self._ncols
        cols = self._cols
        # per lane of a non-uniform array: stripes finished (at the
        # drive, or at the controller on a controller-cache hit)
        lanes = not uniform and self._members
        lane_done = [0] * self._n if lanes else None
        dn = hn = 0
        left = 0  # spans that still owe busy time
        # column by column: a station's pieces still add in row order,
        # and its running sums stay in locals
        for j in range(width):
            k = j + j
            st = cols[j]
            busy = st._busy
            win = st._window_busy
            count = 0
            o = j - F  # lane o >> 1; drive if odd
            dcc = lanes and o >= 0 and not o & 1
            for rec in rows:
                S = rec.S
                a = S[k]
                if a is None:
                    continue
                e = S[k + 1]
                if e <= lim:
                    p = e - a
                    S[k] = None
                    busy += p
                    win += p
                    count += 1
                    if dcc:
                        hit = rec.lane_hit
                        if hit is not None and hit[o >> 1]:
                            lane_done[o >> 1] += 1
                else:
                    left += 1
                    if cut and a < t:
                        p = t - a
                        S[k] = t
                        busy += p
                        win += p
            st._busy = busy
            st._window_busy = win
            if count:
                st._completed += count
                if o == 0:
                    dn = count
                elif o == 1:
                    hn = count
                if lanes and o >= 0 and o & 1:
                    lane_done[o >> 1] += count
        # a row stays while any of its spans still owes busy time
        keep = ([rec for rec in rows if rec.S[::2].count(None) != width]
                if left else [])
        self._rows = keep
        # rows still in flight wait for the next COMMIT_ROWS admissions
        self._commit_at = len(keep) + COMMIT_ROWS
        self._total = None
        if t >= self._H:
            self._clean = (self._H, self._seq)
        if uniform:
            # a uniform row has no controller-cache hit: the first lane
            # finishes a stripe at its drive
            lag = self._lag or (0, 0, 0)
            self._lag = (lag[0] + dn, lag[1] + hn, lag[2] + hn)
        elif lanes:
            for lane, done in zip(self._lanes, lane_done):
                if done:
                    lane._completed += done

    def _spread(self) -> None:
        """Bring every lane up to the first one after uniform commits:
        the lanes were equal before them and took the same pieces, so
        they copy its busy sums and add its completions."""
        if self._lag is None:
            return
        dn, hn, done = self._lag
        self._lag = None
        lanes = self._lanes
        d0, h0 = lanes[0].dcc, lanes[0].hdd
        db, dw = d0._busy, d0._window_busy
        hb, hw = h0._busy, h0._window_busy
        for lane in lanes[1:]:
            q = lane.dcc
            q._busy = db
            q._window_busy = dw
            q._completed += dn
            q = lane.hdd
            q._busy = hb
            q._window_busy = hw
            q._completed += hn
        if self._members and done:
            for lane in lanes:
                lane._completed += done

    def _busy_sum(self) -> float:
        """Busy seconds of every stage: the front stages' sum plus each
        lane's controller-and-drive sum.  Lanes that have not copied the
        first lane yet (:meth:`_spread`) count with its sum."""
        front = sum(q._busy for q in self._front)
        lanes = self._lanes
        if self._lag is not None:
            d = lanes[0]
            return front + sum([d.dcc._busy + d.hdd._busy] * len(lanes))
        return front + sum(d.dcc._busy + d.hdd._busy for d in lanes)

    def _busy_seconds(self) -> float:
        # the total needs the rows folded in, not the lanes spread
        if self._rows and self._clean != (self._H, self._seq):
            self._commit(self._H, cut=False)
        if self._total is None:
            self._total = self._busy_sum()
        return self._total

    def _flush_draws(self) -> None:
        rounds = self._pend_rounds
        if not rounds:
            return
        hits = self._pend_hits
        for i, lane in enumerate(self._lanes):
            lane._cache_hits += hits[i]
            lane._cache_misses += rounds - hits[i]
            hits[i] = 0
        self._pend_rounds = 0

    def _settled(self) -> None:
        """Bring the stages' counters up to the processed horizon (a
        no-op until the horizon moves or a request arrives)."""
        if self._rows and self._clean != (self._H, self._seq):
            self._commit(self._H, cut=False)
        if self._lag is not None:
            self._spread()

    # ------------------------------------------------------------------
    # exact-event contract
    # ------------------------------------------------------------------
    def next_event_time(self) -> float:
        if self._paused:
            return _INF
        return self._next

    def _earliest(self) -> float:
        heap = self._heap
        pending = self._pending
        while heap:
            join, seq = heap[0]
            rec = pending.get(seq)
            if rec is not None and rec.join == join:
                return join
            heappop(heap)
        return _INF

    def advance_to(self, t: float) -> None:
        if self._paused:
            return
        if t > self._H:
            self._H = t
        lim = t + GUARD
        if self._next > lim:
            return
        heap = self._heap
        pending = self._pending
        due = []
        while heap and heap[0][0] <= lim:
            join, seq = heappop(heap)
            rec = pending.get(seq)
            if rec is not None and rec.join == join:
                due.append(rec)
        if len(due) > 1:
            due = self._pass_order(due)
        for rec in due:
            if pending.get(rec.seq) is rec and rec.join <= lim:
                self._finish(rec)
        self._next = self._earliest()
        if not pending and not self._uniform:
            # drained: fold every span in, and plan uniform rows again if
            # the lanes are alike.  Uniform rows need no drain commit:
            # they fold every COMMIT_ROWS admissions, at syncs and on reads
            self._settled()
            self._check_uniform()

    def _pass_order(self, due: List[_Request]) -> List[_Request]:
        """Firing order of joins due together: by time, except that joins
        within the guard of each other fire as one per-station pass
        completes them, by the station that completes the request's last
        stripe (lower stations first), then time, then admission."""
        due.sort(key=lambda rec: (rec.join, rec.seq))
        out: List[_Request] = []
        start = 0
        for k in range(1, len(due) + 1):
            if k == len(due) or due[k].join > due[start].join + GUARD:
                group = due[start:k]
                if len(group) > 1:
                    group.sort(key=self._join_order)
                out += group
                start = k
        return out

    def _join_order(self, rec: _Request):
        join = rec.join
        if rec.hit:
            return (self._pass_station(rec, self._hit_stage), join, rec.seq)
        F = self._F
        finals = rec.finals
        lanes = ([self._n - 1] if finals is None else
                 [i for i, f in enumerate(finals) if f == join])
        hit = rec.lane_hit
        key = max(self._pass_station(
            rec, F + 2 * i + (0 if hit is not None and hit[i] else 1))
            for i in lanes)
        return (key, join, rec.seq)

    def _pass_station(self, rec: _Request, j: int) -> int:
        """The station whose events complete span ``j`` of ``rec``: a
        span finishing within the guard of its arrival completes inside
        its predecessor's completion, so walk back to the first span
        that took time or waited for its stage's repair."""
        F = self._F
        S = rec.S
        while j:
            pred = j - 1 if j < F or (j - F) % 2 else F - 1
            if pred < 0:
                break
            col, pcol = j, pred
            if rec.uniform:
                # one lane's spans stand for every lane
                if col >= F:
                    col = F + (col - F) % 2
                if pcol >= F:
                    pcol = F + (pcol - F) % 2
            arrival, finish = S[2 * pcol + 1], S[2 * col + 1]
            if finish > arrival + GUARD:
                break
            repaired = self._repaired_at[j]
            if arrival <= repaired + GUARD and finish >= repaired:
                break
            j = pred
        return j

    def _finish(self, rec: _Request) -> None:
        del self._pending[rec.seq]
        self.completed_count += 1
        # the row may wait for its fold: it keeps only its spans
        job, rec.job = rec.job, None
        job.finish(rec.join)

    def sync_to(self, t: float) -> None:
        self.advance_to(t)
        if t > self._H:
            self._H = t
        if self._rows:
            self._commit(t, cut=True)
        if t > self.local_time:
            self.local_time = t

    def queue_length(self) -> int:
        """Stage jobs held: 1 per request before its fan-out, then one
        per stripe not yet finished."""
        if not self._pending:
            return 0
        lim = self._H + GUARD
        n = self._n
        held = 0
        for rec in self._pending.values():
            if rec.fork > lim:
                held += 1
            elif rec.first > lim:
                held += n
            elif rec.join > lim:
                held += sum(1 for f in rec.finals if f > lim)
        return held

    def _lane_depth(self, lane: int) -> int:
        lim = self._H + GUARD
        held = 0
        for rec in self._pending.values():
            if rec.fork <= lim:
                fin = rec.join if rec.finals is None else rec.finals[lane]
                if fin > lim:
                    held += 1
        return held

    def idle(self) -> bool:
        return not self._pending

    # ------------------------------------------------------------------
    # failures: freeze the interrupted stages, re-plan at repair
    # ------------------------------------------------------------------
    def on_pause(self, now: float | None) -> None:
        # failing an already-paused composite stops only what still runs
        members = [m for m in self._lanes if m is not self and not m._paused]
        for member in members:
            member._paused = True
        self._paused_members += members
        cols = [j for j in range(self._ncols) if not self._down[j]]
        self._paused_cols += cols
        self._freeze(cols, now)

    def on_crash(self) -> None:
        # every stage loses the progress of its interrupted job
        self._frozen.clear()

    def on_repair(self, now: float) -> None:
        cols, self._paused_cols = self._paused_cols, []
        # the members this array stopped come back with it, even one
        # repaired and failed again on its own since
        for member in self._paused_members:
            member._paused = False
            if now > member.local_time:
                member.local_time = now
            cols += member._lane_paused
            member._lane_paused = []
        self._paused_members = []
        self._thaw(cols, now)

    def _lane_pause(self, member, now: float | None) -> None:
        j = self._F + 2 * member._lane
        cols = [c for c in (j, j + 1) if not self._down[c]]
        member._lane_paused += cols
        self._freeze(cols, now)
        self._next = self._earliest()
        self._reschedule()

    def _lane_crash(self, member) -> None:
        j = self._F + 2 * member._lane
        self._frozen.pop(j, None)
        self._frozen.pop(j + 1, None)

    def _lane_repair(self, member, now: float) -> None:
        cols, member._lane_paused = member._lane_paused, []
        if member in self._paused_members:
            # repaired before the array it failed with: its lane resumes
            # now, the rest at the array's repair
            j = self._F + 2 * member._lane
            cols = cols + [c for c in (j, j + 1) if c in self._paused_cols]
            self._paused_cols = [c for c in self._paused_cols
                                 if c not in cols]
        self._thaw(cols, now)
        if self._waker is not None and self._pending:
            self._waker(self)
        self._reschedule()

    def _freeze(self, cols: List[int], now: float | None) -> None:
        """Stop ``cols`` at the failure instant: the job in service keeps
        the work served so far, everything queued behind it (and every
        later stage of those requests) becomes unplanned."""
        if not cols:
            return
        self._leave_uniform()
        h = self._H if now is None else max(self._H, now)
        self._H = h
        lim = h + GUARD
        recs = [rec for rec in self._rows if rec.seq in self._pending]
        # each stage's clock: its latest processed arrival, start or
        # finish (a pause freezes at the later of it and ``now``)
        clocks = {}
        for j in cols:
            clock = -_INF
            for rec in recs:
                a = rec.S[2 * j]
                if a is None:
                    continue
                for x in (self._arrival(rec, j), a, rec.S[2 * j + 1]):
                    if clock < x <= lim:
                        clock = x
            clocks[j] = clock
        self._commit(h, cut=False)
        for j in cols:
            st = self._cols[j]
            p = clocks[j] if now is None else max(now, clocks[j])
            self._down[j] = True
            for rec in recs:
                s, e = rec.S[2 * j], rec.S[2 * j + 1]
                if s is None or e == _INF:
                    continue
                if s <= lim and j not in self._frozen:
                    # in service: credit the span up to the pause and
                    # keep the remaining work for the repair
                    if p < s:
                        p = s
                    if p > s:
                        st._busy += p - s
                        st._window_busy += p - s
                        self._total = None
                    rem = (e - p) * self._rates[j]
                    self._frozen[j] = (rec.seq, rem if rem > 0.0 else 0.0)
                self._unplan(rec, j)
            self._pause_at[j] = p if p != -_INF else h

    def _unplan(self, rec: _Request, j: int) -> None:
        """Mark span ``j`` of ``rec`` and every later span of it unplanned."""
        F = self._F
        if j < F:
            later = range(j, self._ncols)
        else:
            later = (j, j + 1) if (j - F) % 2 == 0 else (j,)
        S = rec.S
        for c in later:
            if S[2 * c] is not None:
                S[2 * c] = S[2 * c + 1] = _INF
        rec.join = _INF
        if rec.hit:
            rec.first = _INF
            return
        if j < F:
            rec.fork = rec.first = _INF
            rec.finals = [_INF] * self._n
            return
        finals = ([rec.first] * self._n if rec.finals is None
                  else rec.finals)
        finals[(j - F) // 2] = _INF
        rec.finals = finals
        rec.first = min(finals)

    def _arrival(self, rec: _Request, j: int) -> float:
        """When the job of ``rec`` reaches stage ``j``."""
        F = self._F
        if j == 0:
            return rec.arrival
        if j < F or (j - F) % 2:
            return rec.S[2 * j - 1]
        return rec.fork

    def _thaw(self, cols: List[int], now: float) -> None:
        """Return ``cols`` to service at ``now`` and re-plan every span
        the outage left unplanned, request by request."""
        if not cols:
            return
        if now > self._H:
            self._H = now
        F = self._F
        for j in cols:
            r = now if now > self._pause_at[j] else self._pause_at[j]
            if j < F:
                self._ffree[j] = r
            else:
                i, drive = divmod(j - F, 2)
                (self._hfree if drive else self._dfree)[i] = r
            self._down[j] = False
            self._repaired_at[j] = r
        self._clean = (-_INF, 0)
        heap = self._heap
        for rec in self._pending.values():
            if rec.join == _INF:
                self._walk(rec)
                if rec.join != _INF:
                    heappush(heap, (rec.join, rec.seq))
        self._next = self._earliest()
