"""Shared exact-event plumbing for composite hardware agents.

CPU, Disk, RAID and SAN are built from internal sub-agents (socket
queues, cache/drive stages, member disks).  Under the event kernel the
composite satisfies the exact-event contract by aggregation: its next
event is the earliest child event, ``advance_to`` forwards to every
child, and child reschedules bubble up through the ``_sched`` hook so the
engine re-keys the composite's wake-heap entry whenever any stage's
earliest completion changes.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.agent import Agent

_INF = float("inf")


class CompositeAgent(Agent):
    """Base for agents composed of internal sub-agents.

    Subclasses implement :meth:`_child_agents` (direct internal agents,
    in deterministic order) and call :meth:`_adopt_children` once the
    children exist.
    """

    # set by the vector kernel (repro.queueing.soa.vectorize_agents) on
    # SAN/RAID composites: the VectorArray owns event scheduling and the
    # composite's failure hooks forward to it
    _varray = None

    def _child_agents(self) -> Iterable[Agent]:
        raise NotImplementedError

    def _adopt_children(self) -> None:
        """Wire child reschedules to bubble up to the engine."""
        self._children: List[Agent] = list(self._child_agents())
        # per-child next-event cache, maintained incrementally: a child's
        # next event changes only alongside a reschedule bubble, so the
        # aggregate is a C-level min over a float list instead of a
        # re-scan of every stage/disk/socket on each event
        for i, child in enumerate(self._children):
            child._parent_idx = i
            child._sched = self._child_resched
        self._child_next: List[float] = [
            c.next_event_time() for c in self._children
        ]
        self._agg_next: float = (
            min(self._child_next) if self._child_next else _INF
        )

    def _child_resched(self, child: Agent | None = None) -> None:
        if child is None:
            self._reschedule()
            return
        new = child.next_event_time()
        cache = self._child_next
        i = child._parent_idx
        old = cache[i]
        if new == old:
            return
        cache[i] = new
        agg = self._agg_next
        if new < agg:
            self._agg_next = new
        elif old == agg:
            nagg = min(cache)
            if nagg == agg:  # another child shares the old minimum
                return
            self._agg_next = nagg
        else:
            # aggregate unchanged: nothing upstream can have changed,
            # suppress the bubble (this is the hot path at scale)
            return
        self._reschedule()

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
        # forward only to children with a due event: the cache equals the
        # child's exact next-event time, so a skipped child's advance
        # would have been a no-op
        for child, ne in zip(self._children, self._child_next):
            if ne <= limit:
                child.advance_to(t)

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
        # (e.g. a degraded RAID's dead disk) keep their own repair schedule
        running: List[Agent] = [c for c in self._children if not c.paused]
        self._paused_children = running
        for child in running:
            child.fail(crash=False, now=now)
        if self._varray is not None and not self._varray.paused:
            self._varray.fail(crash=False, now=now)

    def on_repair(self, now: float) -> None:
        children = getattr(self, "_paused_children", None)
        if children is None:
            children = self._children
        for child in children:
            child.repair(now)
        self._paused_children = []
        if self._varray is not None and self._varray.paused:
            self._varray.repair(now)
