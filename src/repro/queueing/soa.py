"""Batched queueing substrate — the ``kernel="vector"`` path.

The scalar substrate registers every station (NIC, switch, CPU, link)
as its own exact-event agent: each event a station reports is an entry
in the engine's wake heap, and each boundary re-keys the stations it
advanced.  On large fleets ``step_select``/``wake`` is dominated by
exactly this per-agent dispatch.

``BatchedTier`` puts a tier's stations behind one engine driver.  The
stations schedule themselves with the same code as under the scalar
kernel -- an FCFS station (:class:`~repro.queueing.fcfs.FCFSQueue`, a
CPU's socket queues included) in closed form, a PS link
(:class:`~repro.queueing.ps.PSQueue`) event by event -- and report
their next event to the bank, which keys them in one lazy-deletion
heap.  The engine sees one agent per tier instead of one per station,
and due stations are advanced in membership order.

The storage composites (Disk, RAID, SAN) are not batched here: they
schedule every request's stage chain in closed form under either
kernel (:mod:`repro.hardware.storage`) and register as plain agents.

The stations stay registered *observationally*: telemetry, tracing,
invariants and the metrics mirror read them exactly as under the scalar
kernel, and since they schedule, accrue busy time and fail with the
same code, the two kernels agree bit for bit
(``tests/core/test_kernel_parity.py``).
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.core.agent import Agent
from repro.core.job import Job

_INF = float("inf")


class BatchedTier(Agent):
    """Bank advancing many stations as one engine agent.

    The bank owns each member's ``_sched``/``_waker`` hooks.  A member's
    reschedule only marks it dirty (a bare dict insert); the bank keys
    its dirty members in a ``(time, index, member)`` heap when it is
    woken, read or advanced -- the engine's own scheme, one level down
    -- using the member's ``_wake_at`` as the engine does: an entry is
    valid iff its time still equals the member's ``_wake_at``.  The
    engine learns that the bank's next event may have moved from the
    wake after every submission to a member and every repair, from a
    sync, and from its re-key after each advance; a member's failure,
    which only removes events, leaves the bank's engine entry early at
    worst.
    """

    agent_type = "batched-tier"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._members: List[Agent] = []
        self._index = {}
        self._heap: List[Tuple[float, int, Agent]] = []
        self._dirty = {}
        self._advancing = False

    def adopt(self, station) -> None:
        """Drive ``station`` (an FCFS or PS station) through the bank."""
        self._index[station] = len(self._members)
        self._members.append(station)
        station._waker = self._member_wake
        station._sched = self._dirty.setdefault
        station._wake_at = _INF
        self._dirty[station] = None

    # ------------------------------------------------------------------
    # member hooks
    # ------------------------------------------------------------------
    def _member_wake(self, station) -> None:
        """Member ``_waker``, called after a submission or a repair."""
        self._dirty[station] = None
        self._wake_bank()

    def _wake_bank(self, _cpu=None) -> None:
        """Wake the bank and key its dirty members, and have the engine
        re-key the bank when a member's event now comes before the
        bank's key (``_wake_at``; the engine sets it to ``-inf`` while
        it advances the bank, and re-keys it after).  Also the
        ``_waker`` of a CPU whose socket queues are members."""
        if self._waker is not None:
            self._waker(self)
        self._rekey()
        if self._sched is not None and self._heap and (
                self._heap[0][0] < self._wake_at):
            self._sched(self)

    def _rekey(self) -> None:
        """Key every dirty member at its current next-event time."""
        heap = self._heap
        index = self._index
        for station in self._dirty:
            w = station.next_event_time()
            if w != station._wake_at:
                station._wake_at = w
                if w < _INF:
                    heapq.heappush(heap, (w, index[station], station))
        self._dirty.clear()

    # ------------------------------------------------------------------
    # exact-event contract
    # ------------------------------------------------------------------
    def next_event_time(self) -> float:
        if self._dirty:
            self._rekey()
        heap = self._heap
        while heap:
            w, _i, station = heap[0]
            if station._wake_at == w:
                return w
            heapq.heappop(heap)
        return _INF

    def advance_to(self, t: float) -> None:
        """Advance the members due by ``t``, in membership order, until
        none is due (a member's completion may submit to another)."""
        if self._advancing:
            return
        self._advancing = True
        try:
            limit = t + 1e-9
            heap = self._heap
            dirty = self._dirty
            while True:
                if dirty:
                    self._rekey()
                if not heap or heap[0][0] > limit:
                    break
                due = []
                while heap and heap[0][0] <= limit:
                    w, i, station = heapq.heappop(heap)
                    if station._wake_at == w:
                        # consumed: re-keyed after the advance even at an
                        # unchanged time
                        station._wake_at = -_INF
                        due.append((i, station))
                if len(due) > 1:
                    due.sort()
                for _i, station in due:
                    station.advance_to(t)
                    dirty[station] = None
        finally:
            self._advancing = False

    def sync_to(self, t: float) -> None:
        self.advance_to(t)
        for station in self._members:
            station.sync_to(t)
        if t > self.local_time:
            self.local_time = t
        if self._dirty:
            self._reschedule()

    # ------------------------------------------------------------------
    # Agent plumbing
    # ------------------------------------------------------------------
    def enqueue(self, job: Job, now: float) -> None:  # pragma: no cover
        raise TypeError(
            "BatchedTier is an engine driver; submit to its member stations"
        )

    def queue_length(self) -> int:
        return sum(station.queue_length() for station in self._members)

    def idle(self) -> bool:
        # a pending event proves work; without one, a failed member may
        # still hold jobs until its repair
        if self.next_event_time() < _INF:
            return False
        return all(station.idle() for station in self._members)


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
            observe_agent(sim, agent, waker=bank._wake_bank)
            for q in agent.socket_queues:
                bank.adopt(q)
        elif isinstance(agent, (FCFSQueue, PSQueue)):
            observe_agent(sim, agent)
            bank.adopt(agent)
        else:
            sim.add_agent(agent)
    if bank._members:
        register_driver(sim, bank)
        drivers.append(bank)
    return drivers
