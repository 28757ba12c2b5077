"""Differential tests of the uncontended-job paths.

A job that meets no other job takes a one-step path through each layer
it crosses: a PS link serves a lone job in one pass of its event loop
(``PSQueue.advance_to``), a one-socket CPU hands its jobs and events
straight to its socket (``CompositeAgent._lone``), and ``idle()`` reads
a station's own lines.  The general path stays for contended stations.

The references below keep the general path for every job:
:class:`GeneralPS` runs each event through ``_next_internal`` and
``_process_at``, :class:`GeneralCPU` schedules its one socket through
the composite's cache and heap and picks it by the shortest-queue rule,
and the FCFS station is the event-by-event reference station
(:class:`~repro.verification.fcfs.ReferenceFCFS`), which the closed-form
:class:`FCFSQueue` must match.  Every random schedule must give
bit-equal starts, finishes, busy-time floats, counters and
``queue_hwm`` on both, and the same engine boundaries and agent wakes.
"""

from __future__ import annotations

import random
from collections import deque
from typing import List

import pytest

from repro.core import Job, Simulator
from repro.core.agent import Agent
from repro.hardware.composite import CompositeAgent
from repro.hardware.cpu import CPU
from repro.queueing import FCFSQueue, PSQueue
from repro.queueing.soa import vectorize_agents
from repro.verification.fcfs import ReferenceFCFS

_INF = float("inf")
MODES = ("event", "adaptive", "fixed")
KERNELS = ("scalar", "vector")


class GeneralPS(PSQueue):
    """A PS link whose every event, lone or not, goes through the
    general loop: ``_next_internal`` with its minimum over the jobs in
    service, then ``_process_at``."""

    def next_event_time(self) -> float:
        if self._paused:
            return _INF
        if not self.active and len(self.waiting) == 1:
            due = self._next_internal()
            return due + self.waiting[0].remaining / self.rate
        return self._next_internal()

    def _next_internal(self) -> float:
        nxt = _INF
        if self.active:
            share = self.rate / len(self.active)
            min_r = min(j.remaining for j in self.active)
            nxt = self._share_anchor + min_r / share
        if self.waiting and (self.k is None or len(self.active) < self.k):
            due = self.waiting[0].not_before
            if due < self._now:
                due = self._now
            if due < nxt:
                nxt = due
        return nxt

    def advance_to(self, t: float) -> None:
        if self._advancing or self._paused:
            return
        self._advancing = True
        processed = False
        try:
            while not self._paused:
                e = self._next_internal()
                if e > t + 1e-9:
                    break
                self._process_at(e)
                processed = True
        finally:
            self._advancing = False
        if processed:
            self._reschedule()

    idle = Agent.idle


class GeneralCPU(CPU):
    """A CPU that schedules even a single socket through the composite's
    per-station cache and ``_due`` heap, and joins the shortest socket
    queue by the ``min`` rule."""

    def _adopt_children(self) -> None:
        super()._adopt_children()
        if self._lone is not None:
            self._lone._sched = self._child_resched
            self._lone = None

    idle = Agent.idle


FAST = {"ps": PSQueue, "cpu": CPU, "fcfs": FCFSQueue}
GENERAL = {"ps": GeneralPS, "cpu": GeneralCPU, "fcfs": ReferenceFCFS}


def _random_case(seed: int) -> dict:
    """One schedule over five stations -- two links, a one-socket and a
    two-socket CPU, an FCFS station -- with lone and overlapping jobs,
    zero and sub-guard demands, timestamp guards, failures, monitor
    syncs and continuations that re-submit to their own station or hop
    to another one."""
    r = random.Random(seed)
    grid = 0.05
    rate = r.choice([1.0, 4.0, 10.0])

    def when() -> float:
        t = r.randrange(int(4.0 / grid)) * grid
        # land some events inside (or just past) the 1e-9 guard
        return max(0.0, t + r.choice([0.0, 0.0, 0.0, 4e-10, -4e-10, 2e-9]))

    def demand() -> float:
        return r.choice([0.0, rate * grid, rate * 2 * grid, 1e-10,
                         r.uniform(0.0, rate * 0.6), r.uniform(0.0, rate)])

    def guard() -> float:
        return r.choice([0.0, 0.0, 0.0, 4e-10, grid, r.uniform(0.0, 0.3)])

    # mostly spaced arrivals (lone jobs), some bursts (second arrivals)
    arrivals = []
    for _ in range(r.randint(4, 18)):
        t = when()
        arrivals.append((t, r.randrange(5), demand(), guard()))
        if r.random() < 0.25:
            arrivals.append((t + r.choice([0.0, 1e-10, grid / 3]),
                             r.randrange(5), demand(), guard()))
    failures = []
    for _ in range(r.randint(0, 3)):
        t = when()
        failures.append((t, r.randrange(5), r.random() < 0.5,
                         t + r.choice([0.0, grid, r.uniform(0.0, 1.0)])))
    return {
        "rate": rate,
        "latency": r.choice([0.0, 0.0, 0.05, 1e-10]),
        "k": r.choice([None, 1, 2]),
        "servers": r.choice([1, 2]),
        "cores": r.choice([1, 2]),
        "horizon": 6.0,
        "arrivals": arrivals,
        "failures": failures,
        "monitor": r.choice([None, 0.07, 0.25, 1.0]),
        "resubmit": r.random() < 0.6,
        "hop": r.random() < 0.4,
        "followups": [(r.randrange(5), demand(), guard())
                      for _ in range(10)],
    }


def _stations(case: dict, kinds: dict) -> List[Agent]:
    rate = case["rate"]
    return [
        kinds["ps"]("l0", rate=rate, k=case["k"], latency=case["latency"]),
        kinds["ps"]("l1", rate=rate, k=case["k"], latency=case["latency"]),
        kinds["cpu"]("c1", frequency_hz=rate, sockets=1,
                     cores=case["cores"]),
        kinds["cpu"]("c2", frequency_hz=rate, sockets=2,
                     cores=case["cores"]),
        kinds["fcfs"]("q", rate=rate, servers=case["servers"]),
    ]


def _run(case: dict, kinds: dict, mode: str, kernel: str) -> dict:
    sim = Simulator(dt=0.01, mode=mode, profile=True)
    stations = _stations(case, kinds)
    if kernel == "vector":
        vectorize_agents(sim, stations, name="mix")
    else:
        sim.add_agents(stations)
    log = []
    followups = deque(case["followups"])

    def submit(i: int, d: float, nb: float, now: float) -> None:
        def done(job: Job, t: float) -> None:
            log.append((i, job.tag, job.start_time.hex(), t.hex()))
            if not followups:
                return
            if case["resubmit"] and job.tag % 3 == 0:
                # a continuation re-submitting to the station it left
                _, d2, nb2 = followups.popleft()
                submit(i, d2, nb2, t)
            elif case["hop"] and job.tag % 3 == 1:
                j, d2, nb2 = followups.popleft()
                submit(j, d2, nb2, t)

        stations[i].submit(Job(d, on_complete=done, not_before=now + nb,
                               tag=len(log) * 100 + i), now)

    for t, i, d, nb in case["arrivals"]:
        sim.schedule(t, lambda now, i=i, d=d, nb=nb: submit(i, d, nb, now))
    for t, i, crash, back in case["failures"]:
        def fail(now, i=i, crash=crash, back=back):
            station = stations[i]
            station.fail(crash=crash, now=now)
            sim.schedule(max(back, now), station.repair)
        sim.schedule(t, fail)
    samples = []
    if case["monitor"] is not None:
        sim.add_monitor(case["monitor"], lambda due: samples.append(
            tuple(s._busy_seconds().hex() for s in stations)))
    sim.run(case["horizon"])
    for station in stations:
        if station.paused:
            station.repair(case["horizon"])
    sim.run(case["horizon"] + 30.0)
    return {
        "log": log,
        "samples": samples,
        "stations": [(s._busy_seconds().hex(), s._completions(),
                      s.queue_hwm, s.arrivals, s.queue_length(), s.idle(),
                      s.local_time.hex())
                     for s in stations],
        "engine": (sim.profiler.ticks, sim.profiler.agent_ticks),
    }


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("mode", MODES)
def test_one_step_paths_match_the_general_path(mode, kernel):
    for seed in range(150):
        case = _random_case(seed)
        general = _run(case, GENERAL, mode, kernel)
        fast = _run(case, FAST, mode, kernel)
        assert general["log"], f"seed {seed} completed nothing"
        assert fast == general, f"seed {seed}"


def test_lone_transfer_is_served_in_one_pass(monkeypatch):
    """Spaced transfers on an idle link, with latency and without: no
    event of theirs goes through ``_process_at``.  Two overlapping
    transfers share the link and take the general path."""
    calls = []
    process_at = PSQueue._process_at

    def counted(self, t):
        calls.append(t)
        process_at(self, t)

    monkeypatch.setattr(PSQueue, "_process_at", counted)
    for latency in (0.0, 0.05):
        sim = Simulator(mode="event")
        link = PSQueue("l", rate=10.0, latency=latency)
        sim.add_agent(link)
        done = []
        for i in range(5):
            sim.schedule(float(i), lambda now: link.submit(
                Job(1.0, on_complete=lambda j, t: done.append(t)), now))
        sim.run(10.0)
        assert done == [i + latency + 0.1 for i in range(5)]
        assert calls == []
    sim = Simulator(mode="event")
    link = PSQueue("l", rate=10.0)
    sim.add_agent(link)
    for t in (0.0, 0.05):
        sim.schedule(t, lambda now: link.submit(Job(1.0), now))
    sim.run(1.0)
    assert link.completed_count == 2 and calls


def test_one_socket_cpu_bypasses_the_composite_heap(monkeypatch):
    """A one-socket CPU never reaches ``_child_resched`` or
    ``_earliest``; a two-socket CPU does."""
    reached = []
    for name in ("_child_resched", "_earliest"):
        method = getattr(CompositeAgent, name)

        def counted(self, *args, _method=method, _name=name):
            reached.append((self.name, _name))
            return _method(self, *args)

        monkeypatch.setattr(CompositeAgent, name, counted)
    for sockets in (1, 2):
        sim = Simulator(mode="event")
        cpu = CPU(f"cpu{sockets}", frequency_hz=10.0, sockets=sockets)
        sim.add_agent(cpu)
        done = []
        for t in (0.0, 0.05, 1.0, 2.0):
            sim.schedule(t, lambda now, cpu=cpu: cpu.submit(
                Job(1.0, on_complete=lambda j, t: done.append(t)), now))
        sim.run(5.0)
        assert len(done) == 4
    assert reached and {name for name, _ in reached} == {"cpu2"}


def test_wake_orders_the_active_set_and_brings_the_clock_current():
    """A station woken by a submission takes the engine's clock and
    joins the active set behind the stations already in it, so stations
    due together advance in activation order, not wake-heap order."""
    sim = Simulator(mode="event")
    a = FCFSQueue("a", rate=1.0)
    b = FCFSQueue("b", rate=1.0)
    sim.add_agents([a, b])
    done, clocks = [], []

    def submit(station, demand):
        def at(now):
            station.submit(Job(demand, on_complete=lambda j, t: done.append(
                (station.name, t))), now)
            clocks.append(station.local_time == now)
        return at

    sim.schedule(1.0, submit(a, 1.5))  # a wakes first
    sim.schedule(1.2, submit(a, 0.5))  # waits, finishes at 3
    sim.schedule(1.5, submit(b, 1.5))  # b wakes, finishes at 3
    sim.run(5.0)
    # a's wake-heap entry for 3 was pushed at 2.5, after b's
    assert done == [("a", 2.5), ("a", 3.0), ("b", 3.0)]
    # a busy station is not woken: its clock moves at syncs only
    assert clocks == [True, False, True]
    assert done == [("a", 2.5), ("a", 3.0), ("b", 3.0)]


def test_storage_stages_never_allocate_a_waiting_line():
    """The closed-form storage schedule never enqueues on its stages, so
    they keep the shared empty line, service set and server clocks and
    allocate nothing per server; a station a job passed through holds
    its own.  An FCFS station keeps at most 29 instance attributes (a
    NIC or a stage): one more and CPython stops sharing the keys of the
    stations' instance dicts, which costs a 256-region fleet ~4 MB."""
    from repro.hardware.raid import RAID

    sim = Simulator(mode="event")
    raid = RAID("r", n_disks=4, array_controller_bps=4e8,
                controller_bps=2e8, drive_bps=1e8)
    nic = FCFSQueue("nic", rate=1e9)
    socket = FCFSQueue("socket", rate=1e9, servers=4)
    sim.add_agents([raid, nic, socket])
    for k in range(20):
        sim.schedule(0.01 * k, lambda now: raid.submit(Job(4096.0), now))
    sim.schedule(0.0, lambda now: nic.submit(Job(1e3), now))
    sim.schedule(0.0, lambda now: socket.submit(Job(1e3), now))
    sim.run(5.0)
    assert raid.completed_count == 20
    for stage in raid._cols:
        assert stage.waiting == stage.in_service == stage._free == ()
    assert type(nic.waiting) is deque and not nic.waiting
    # one server is free from the last job's finish: no per-server list
    assert nic.in_service == [] and nic._free == ()
    assert len(socket._free) == 4
    assert max(len(vars(a)) for a in [nic, socket, *raid._cols]) <= 29


@pytest.mark.parametrize("workload, pins", [
    ("drill", (6299, 5773, 262)),
    ("ch5", (13044, 13018, 83)),
])
def test_event_structure_is_pinned(workload, pins):
    """Engine boundaries and agent wakes of a short drill cell and a
    short chapter 5 slice (seed 42), counted before the one-step paths
    existed: a path that adds, drops or moves an event fails here."""
    if workload == "drill":
        from repro.studies.degraded import DegradedStudy

        out = DegradedStudy(horizon=120.0, seed=42).run_cell(
            60.0, resilient=True, profile=True)
        done = out.operations
    else:
        from repro.validation.experiments import EXPERIMENTS, run_experiment

        out = run_experiment(EXPERIMENTS[0], until=120.0, seed=42,
                             profile=True)
        done = len(out.records)
    assert (out.profile.ticks, out.profile.agent_ticks, done) == pins
