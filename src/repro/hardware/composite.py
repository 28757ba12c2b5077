"""Shared exact-event plumbing for composite hardware agents.

A CPU is built from internal FCFS socket queues (and the reference
storage path of :mod:`repro.verification.storage` from its stages).
Under the event kernel the composite satisfies the exact-event contract
by aggregation over its leaf FCFS stations: its next event is the
earliest station event, ``advance_to`` forwards to the stations that
are due, and a station's reschedule reaches the composite in one call,
so the engine re-keys the composite's wake-heap entry whenever any
stage's earliest completion changes.  Both operations touch only the
stations that changed or are due, never every station.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, List

from repro.core.agent import Agent

_INF = float("inf")


class CompositeAgent(Agent):
    """Base for agents composed of internal sub-agents.

    Subclasses implement :meth:`_child_agents` (direct internal agents,
    in deterministic order) and call :meth:`_adopt_children` once the
    children exist.
    """

    # the scheduling state lives in slots, outside the instance dict: with
    # the device attributes of a Disk or SAN it would push the dict past
    # the size CPython keeps compact, costing memory and attribute access
    __slots__ = ("_children", "_depth_owner", "_passing", "_stations",
                 "_child_next", "_depth", "_due", "_agg_next", "_lone")

    def _child_agents(self) -> Iterable[Agent]:
        raise NotImplementedError

    def _adopt_children(self) -> None:
        """Wire the leaf stations' reschedules and job counts to this
        composite."""
        self._children = list(self._child_agents())
        # the composite this one is nested in (see FCFSQueue._depth_owner)
        self._depth_owner = None
        # set while advance_to forwards to the due stations
        self._passing = False
        # events are scheduled over the leaf FCFS stations directly, depth
        # first -- the order in which nested composites would forward --
        # so a station's reschedule reaches the outermost composite in one
        # call.  A nested composite (a SAN's or RAID's disk) hands its
        # stations up and keeps routing, failures and telemetry only.
        stations: List[Agent] = []
        # per-station next-event cache, maintained incrementally: a
        # station's next event changes only alongside a reschedule
        cache: List[float] = []
        # queue_length() is the sum over the leaf stations; each adds its
        # arrivals and completions to ``_depth`` up its chain of enclosing
        # composites as they happen, so reading it makes no call per member
        depth = 0
        for child in self._children:
            if isinstance(child, CompositeAgent):
                # a nested composite has already gathered its own stations
                stations += child._stations
                cache += child._child_next
                depth += child._depth
                child._make_inert()
            else:
                stations.append(child)
                cache.append(child.next_event_time())
                depth += child.queue_length()
            child._depth_owner = self
        self._stations = stations
        self._child_next = cache
        self._depth = depth
        resched = self._child_resched
        for i, station in enumerate(stations):
            station._parent_idx = i
            station._sched = resched
        # ``_due`` is a lazy-deletion heap over the cache -- an entry
        # ``(t, i)`` is live while ``_child_next[i] == t`` -- so neither
        # the aggregate nor advance_to scans every station on each event
        self._due = [(ne, i) for i, ne in enumerate(cache) if ne != _INF]
        heapify(self._due)
        self._agg_next = self._due[0][0] if self._due else _INF
        # one station (a one-socket CPU): its next event is the aggregate,
        # so reschedules and advances skip the cache and the heap
        self._lone = stations[0] if len(stations) == 1 else None
        if self._lone is not None:
            self._lone._sched = self._lone_resched

    def _make_inert(self) -> None:
        """Hand this composite's scheduling to the composite that nests
        it: it reports no events and forwards no advances of its own."""
        self._sched = None
        self._stations = self._child_next = self._due = ()
        self._agg_next = _INF
        self._lone = None

    def queue_length(self) -> int:
        return self._depth

    def idle(self) -> bool:
        return not self._depth

    def _child_resched(self, station: Agent) -> None:
        new = station.next_event_time()
        cache = self._child_next
        i = station._parent_idx
        old = cache[i]
        if new == old:
            return
        cache[i] = new
        if new != _INF:
            heappush(self._due, (new, i))
        if self._passing:
            # advance_to has popped the due entries and settles the
            # aggregate when it ends
            return
        agg = self._agg_next
        if new < agg:
            self._agg_next = new
        elif old == agg:
            nagg = self._earliest()
            if nagg == agg:  # another station shares the old minimum
                return
            self._agg_next = nagg
        else:
            # aggregate unchanged: nothing upstream can have changed,
            # suppress the bubble (this is the hot path at scale)
            return
        self._reschedule()

    def _lone_resched(self, station: Agent) -> None:
        """``_child_resched`` of a one-station composite: the aggregate
        is the station's next event."""
        new = station.next_event_time()
        if new != self._agg_next:
            self._agg_next = new
            sched = self._sched
            if sched is not None:
                sched(self)

    def _earliest(self) -> float:
        """Earliest live entry of ``_due`` (dropping stale ones on top)."""
        due = self._due
        cache = self._child_next
        while due:
            ne, i = due[0]
            if cache[i] == ne:
                return ne
            heappop(due)
        return _INF

    # ------------------------------------------------------------------
    # exact-event contract by aggregation
    # ------------------------------------------------------------------
    def next_event_time(self) -> float:
        if self._paused:
            return _INF
        return self._agg_next

    def advance_to(self, t: float) -> None:
        if self._paused:
            return
        limit = t + 1e-9
        if self._agg_next > limit:
            return
        lone = self._lone
        if lone is not None:
            # the station's reschedules keep the aggregate current
            lone.advance_to(t)
            return
        # forward only to stations with a due event: the cache equals the
        # station's exact next-event time, so a skipped station's advance
        # would have been a no-op
        cache = self._child_next
        due = self._due
        order = []
        while due and due[0][0] <= limit:
            ne, i = heappop(due)
            if cache[i] == ne:
                order.append(i)
        if len(order) > 1:
            order.sort()
        # forward in station order, reading each cached time when the pass
        # gets there.  A station cannot fall due during the pass: an
        # arrival's events inside the guard are processed by its enqueue.
        stations = self._stations
        self._passing = True
        try:
            prev = -1
            for i in order:
                if i == prev:
                    continue  # two live entries for one station
                prev = i
                ne = cache[i]
                if ne <= limit:
                    stations[i].advance_to(t)
                    if cache[i] == ne:  # unchanged: keep its entry
                        heappush(due, (ne, i))
        finally:
            self._passing = False
        nagg = self._earliest()
        if nagg != self._agg_next:
            self._agg_next = nagg
            self._reschedule()

    def sync_to(self, t: float) -> None:
        for child in self._children:
            child.sync_to(t)
        if t > self.local_time:
            self.local_time = t

    # ------------------------------------------------------------------
    # failure semantics: pause/repair forward to children so the eager
    # submit path cannot serve sub-queues of a failed composite
    # ------------------------------------------------------------------
    def on_pause(self, now: float | None) -> None:
        # pause only children that were running: separately-failed members
        # (e.g. a degraded RAID's dead disk) keep their own repair schedule.
        # Failing an already-paused composite adds to the children its
        # first failure stopped.
        running: List[Agent] = [c for c in self._children if not c.paused]
        self._paused_children = getattr(self, "_paused_children", []) + running
        for child in running:
            child.fail(crash=False, now=now)

    def on_repair(self, now: float) -> None:
        children = getattr(self, "_paused_children", None)
        if children is None:
            children = self._children
        for child in children:
            child.repair(now)
        self._paused_children = []
