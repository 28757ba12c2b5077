"""Reference storage path: the event-by-event stage chain.

:mod:`repro.hardware.storage` schedules a Disk, RAID or SAN request in
closed form at admission.  This module keeps the chain that schedule
replaces: every stage is its own exact-event
:class:`~repro.queueing.fcfs.FCFSQueue`, a stage's completion submits
the next stage's job, and a :class:`~repro.queueing.forkjoin.ForkJoin`
stripes the request across the member disks and joins on the last
branch.  It is the differential oracle of the closed form (tests and
``repro verify --parity``), not a simulation option.

Switch a built agent, or every storage agent of a topology, before the
session is prepared::

    topology = fleet_topology(8)
    use_reference_storage(topology)
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.agent import Agent
from repro.core.job import Job
from repro.hardware.composite import CompositeAgent
from repro.hardware.disk import Disk
from repro.hardware.raid import RAID
from repro.hardware.san import SAN
from repro.hardware.storage import StripedStorage
from repro.queueing.forkjoin import ForkJoin

_INF = float("inf")


class _Hub(CompositeAgent):
    """Exact-event aggregation over a reference composite's stations."""

    agent_type = "reference-hub"

    def __init__(self, owner: Agent, stations: List[Agent]) -> None:
        super().__init__(f"{owner.name}.hub")
        self._owner_agent = owner
        self._leaves = stations
        self._adopt_children()
        self._sched = self._bubble

    def _child_agents(self):
        return self._leaves

    def _bubble(self, _hub) -> None:
        self._owner_agent._reschedule()

    def enqueue(self, job: Job, now: float) -> None:  # pragma: no cover
        raise TypeError("submit to the reference composite, not its hub")


class _Reference(Agent):
    """Engine plumbing shared by the reference composites: the hub
    schedules the stations, failures stop and restart them.  (An Agent
    subclass adding no state, so a built composite can switch class.)"""

    def _start_chain(self, stations, failure_children) -> None:
        self._hub = _Hub(self, stations)
        self._failure_children = list(failure_children)
        self._paused_children = []

    def next_event_time(self) -> float:
        if self._paused:
            return _INF
        return self._hub.next_event_time()

    def advance_to(self, t: float) -> None:
        if not self._paused:
            self._hub.advance_to(t)

    def sync_to(self, t: float) -> None:
        self._hub.sync_to(t)
        if t > self.local_time:
            self.local_time = t

    def queue_length(self) -> int:
        return self._hub._depth

    def idle(self) -> bool:
        return self.queue_length() == 0

    def _settled(self) -> None:
        """Stations accrue as they go: nothing to fold in."""

    def _busy_seconds(self) -> float:
        return self._busy_sum()

    def on_pause(self, now: float | None) -> None:
        # pause only running children: a separately failed member keeps
        # its own repair schedule.  Failing an already-paused composite
        # adds to the children its first failure stopped.
        running = [c for c in self._failure_children if not c.paused]
        self._paused_children += running
        for child in running:
            child.fail(crash=False, now=now)

    def on_repair(self, now: float) -> None:
        for child in self._paused_children:
            child.repair(now)
        self._paused_children = []

    def on_crash(self) -> None:
        for child in self._failure_children:
            child.on_crash()

    def _complete(self, job: Job, t: float) -> None:
        self.completed_count += 1
        job.finish(t)


class ReferenceDisk(_Reference, Disk):
    """Disk whose controller and drive stages run event by event."""

    def _start_chain(self, stations=None, failure_children=None) -> None:
        super()._start_chain([self.dcc, self.hdd], [self.dcc, self.hdd])

    def queue_length(self) -> int:
        return self.dcc.queue_length() + self.hdd.queue_length()

    def enqueue(self, job: Job, now: float) -> None:
        hit = self._rng.random() < self.cache_hit_rate
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

        def dcc_done(_sub: Job, t: float) -> None:
            if hit:
                self._complete(job, t)
            else:
                self.hdd.submit(
                    Job(job.demand,
                        on_complete=lambda _s, t2: self._complete(job, t2),
                        not_before=t, tag=job.tag),
                    t,
                )

        self.dcc.submit(
            Job(job.demand, on_complete=dcc_done, not_before=job.not_before,
                tag=job.tag),
            now,
        )


class ReferenceRAID(_Reference, RAID):
    """RAID whose controller stage and striped disks run event by event."""

    def _start_chain(self, stations=None, failure_children=None) -> None:
        self.disks = [_reference_member(d) for d in self.disks]
        self._lanes = self.disks
        self.forkjoin = ForkJoin([d.enqueue for d in self.disks],
                                 split="stripe")
        stations = list(self._stages())
        for disk in self.disks:
            stations += (disk.dcc, disk.hdd)
        super()._start_chain(stations, self._stages() + self.disks)

    def _fan_out(self, job: Job, t: float) -> None:
        fanned = Job(job.demand,
                     on_complete=lambda _s, t2: self._complete(job, t2),
                     not_before=t, tag=job.tag)
        self.forkjoin.submit(fanned, t)

    def enqueue(self, job: Job, now: float) -> None:
        hit = self._draw_array_hit()

        def dacc_done(_sub: Job, t: float) -> None:
            if hit:
                self._complete(job, t)
            else:
                self._fan_out(job, t)

        self.dacc.submit(
            Job(job.demand, on_complete=dacc_done, not_before=job.not_before,
                tag=job.tag),
            now,
        )


class ReferenceSAN(ReferenceRAID, SAN):
    """SAN whose switch, controller, loop and disks run event by event."""

    def enqueue(self, job: Job, now: float) -> None:
        hit = self._draw_array_hit()

        def fcal_done(_sub: Job, t: float) -> None:
            self._fan_out(job, t)

        def dacc_done(_sub: Job, t: float) -> None:
            if hit:
                self._complete(job, t)
            else:
                self.fcal.submit(
                    Job(job.demand, on_complete=fcal_done, not_before=t,
                        tag=job.tag),
                    t,
                )

        def fcsw_done(_sub: Job, t: float) -> None:
            self.dacc.submit(
                Job(job.demand, on_complete=dacc_done, not_before=t,
                    tag=job.tag),
                t,
            )

        self.fcsw.submit(
            Job(job.demand, on_complete=fcsw_done, not_before=job.not_before,
                tag=job.tag),
            now,
        )


def _reference_member(member) -> ReferenceDisk:
    """A stand-alone reference disk in place of an array member, drawing
    from the member's cache-hit stream."""
    disk = ReferenceDisk(member.name, member.dcc.rate, member.hdd.rate,
                         member.cache_hit_rate)
    disk._rng = member._rng
    disk._start_chain()
    return disk


def as_reference(agent: Agent) -> Agent:
    """Switch one Disk, RAID or SAN (built, not yet run) to the
    event-by-event reference path, in place; returns it.  An array's
    member disks are replaced by reference disks."""
    if isinstance(agent, _Reference):
        return agent
    if isinstance(agent, SAN):
        agent.__class__ = ReferenceSAN
    elif isinstance(agent, RAID):
        agent.__class__ = ReferenceRAID
    elif isinstance(agent, Disk):
        agent.__class__ = ReferenceDisk
    else:
        raise TypeError(f"{agent!r} is not a storage composite")
    agent._start_chain()
    return agent


def use_reference_storage(agents) -> int:
    """Switch every storage composite among ``agents`` (or of a
    topology) to the reference path; returns how many were switched."""
    if hasattr(agents, "all_agents"):
        agents = agents.all_agents()
    n = 0
    for agent in _storage(agents):
        as_reference(agent)
        n += 1
    return n


def _storage(agents: Iterable[Agent]) -> List[Agent]:
    return [a for a in agents
            if isinstance(a, StripedStorage) and not isinstance(a, _Reference)]
