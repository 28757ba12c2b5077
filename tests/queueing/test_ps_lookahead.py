"""Differential test of the PS link's lone-job lookahead.

``PSQueue.next_event_time`` reports a lone job's completion instead of
its admission, and an idle link admits an arrival without advancing.
:class:`EagerPS` keeps the eager contract -- the raw next internal event
and the two-advance ``enqueue`` -- and every random schedule below must
give bit-equal completions, start times, busy time and counters on both,
in every stepping mode and under both queueing kernels.
"""

from __future__ import annotations

import random
import sys
from collections import deque

import pytest

from repro.core import Job, Simulator
from repro.core.agent import Agent
from repro.queueing import PSQueue
from repro.queueing.soa import vectorize_agents

_INF = float("inf")
MODES = ("event", "adaptive", "fixed")
KERNELS = ("scalar", "vector")


class EagerPS(PSQueue):
    """A PS queue whose engine wakes it at every admission."""

    def next_event_time(self) -> float:
        if self._paused:
            return _INF
        return self._next_internal()

    def enqueue(self, job: Job, now: float) -> None:
        job.not_before = max(job.not_before, now + self.latency)
        self.advance_to(now)
        if now > self._now:
            self._now = now
        self.waiting.append(job)
        self.advance_to(now)
        self._reschedule()

    # nothing is left pending for a failure to catch up on
    fail = Agent.fail


def _random_case(seed: int) -> dict:
    """One schedule over two links: arrivals, failures, monitor syncs,
    run-segment boundaries with ``fail(now=None)``, and continuations
    that re-submit to or fail the link they just left."""
    r = random.Random(seed)
    rate = r.choice([1.0, 4.0, 10.0])
    latency = r.choice([0.0, 0.0, 0.05, 0.2, 1e-10])
    k = r.choice([None, 1, 2])
    horizon = 6.0
    grid = 0.05

    def when() -> float:
        t = r.randrange(int(4.0 / grid)) * grid
        # land some events inside (or just past) the 1e-9 guard
        return max(0.0, t + r.choice([0.0, 0.0, 0.0, 4e-10, -4e-10, 2e-9]))

    def demand() -> float:
        return r.choice([0.0, rate * grid, rate * 2 * grid,
                         r.uniform(0.0, rate * 0.6), 1e-10])

    arrivals = [(when(), r.randrange(2), demand())
                for _ in range(r.randint(4, 16))]
    failures = []
    for _ in range(r.randint(0, 3)):
        t = when()
        failures.append((t, r.randrange(2), r.random() < 0.5,
                         t + r.choice([0.0, grid, r.uniform(0.0, 1.0)])))
    segments = sorted({round(r.uniform(0.5, horizon - 0.5), 3)
                       for _ in range(r.randint(0, 2))})
    return {
        "rate": rate, "latency": latency, "k": k, "horizon": horizon,
        "arrivals": arrivals, "failures": failures,
        "segments": [(t, r.randrange(2), r.random() < 0.5, r.random() < 0.5)
                     for t in segments],
        "monitor": r.choice([None, 0.07, 0.25, 1.0]),
        "resubmit": r.random() < 0.5,
        "self_fail": r.choice([None, None, 0.0, 0.3]),
        "resubmit_demands": [demand() for _ in range(8)],
    }


def _run(case: dict, cls, mode: str, kernel: str) -> dict:
    sim = Simulator(dt=0.01, mode=mode)
    links = [cls(f"l{i}", rate=case["rate"], k=case["k"],
                 latency=case["latency"]) for i in range(2)]
    if kernel == "vector":
        vectorize_agents(sim, links, name="links")
    else:
        sim.add_agents(links)
    log = []
    again = deque(case["resubmit_demands"])

    def submit(i: int, d: float, now: float) -> None:
        def done(job: Job, t: float) -> None:
            log.append((i, job.tag, job.start_time.hex(), t.hex()))
            if case["resubmit"] and again and job.tag % 3 == 0:
                # continuation re-submitting to the link it just left
                submit(i, again.popleft(), t)
            link = links[i]
            if case["self_fail"] and job.tag % 5 == 1 and not link.paused:
                # continuation failing the link inside its own event loop
                link.fail(crash=False, now=t)
                sim.schedule(t + case["self_fail"], link.repair)

        links[i].submit(Job(d, on_complete=done, tag=len(log) * 100 + i),
                        now)

    for t, i, d in case["arrivals"]:
        sim.schedule(t, lambda now, i=i, d=d: submit(i, d, now))
    for t, i, crash, back in case["failures"]:
        def fail(now, i=i, crash=crash, back=back):
            # a link that is already down may be failed again
            link = links[i]
            link.fail(crash=crash, now=now)
            sim.schedule(max(back, now), lambda t2: link.repair(t2))
        sim.schedule(t, fail)
    samples = []
    if case["monitor"] is not None:
        # a monitor firing at a boundary before its deadline was merged
        # into an event inside the deadline's guard
        sim.add_monitor(case["monitor"], lambda due: samples.append(
            (sim.now < due,) + tuple(link.busy_time.hex() for link in links)))
    for t, i, crash, repair in case["segments"]:
        sim.run(t)
        link = links[i]
        if not link.paused:
            # between runs the engine has synced the link: ``now=None``
            # freezes it at its last processed event
            link.fail(crash=crash, now=None)
            if repair:
                link.repair(t)
    sim.run(case["horizon"])
    for link in links:
        if link.paused:
            link.repair(case["horizon"])
    sim.run(case["horizon"] + 20.0)
    return {
        "log": log,
        "samples": samples,
        "links": [(link.busy_time.hex(), link.completed_count,
                   link.queue_hwm, link.arrivals, link.queue_length())
                  for link in links],
    }


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("mode", MODES)
def test_lone_job_lookahead_matches_eager_admission(mode, kernel):
    for seed in range(200):
        case = _random_case(seed)
        eager = _run(case, EagerPS, mode, kernel)
        lookahead = _run(case, PSQueue, mode, kernel)
        assert eager["log"], f"seed {seed} completed nothing"
        if lookahead["samples"] != eager["samples"]:
            # The engine merges boundaries within the 1e-9 guard: the
            # eager admission's boundary pulled a monitor deadline just
            # after it forward, so that monitor synced the links at the
            # admission instant.  With the lookahead it fires at its own
            # deadline, and its busy-time sample differs by float dust.
            merged = [sum(s[0] for s in run["samples"])
                      for run in (eager, lookahead)]
            assert merged[0] > merged[1], f"seed {seed}"
            del lookahead["samples"], eager["samples"]
        assert lookahead == eager, f"seed {seed}"


def test_lone_transfers_wake_the_engine_once():
    """Spaced transfers on an idle link: one boundary each, at the
    completion; the admission after the latency is no boundary."""
    sim = Simulator(mode="event", metrics="on")
    link = PSQueue("l", rate=10.0, latency=0.05)
    sim.add_agent(link)
    done = []
    for i in range(5):
        sim.schedule(float(i), lambda now: link.submit(
            Job(1.0, on_complete=lambda j, t: done.append(t)), now))
    sim.run(10.0)
    assert done == [i + 0.05 + 0.1 for i in range(5)]
    sim.metrics.collect()
    boundaries = sim.metrics.counter("engine_boundaries_total").value
    # 5 arrivals + 5 completions + the drain at the horizon
    assert boundaries == 11


def test_drill_link_wakes_once_per_lone_transfer(monkeypatch):
    """The degraded-mode drill cell (MTBF 60 s, resilience on): nearly
    every transfer finds its link idle, so the engine wakes the links
    about once per transfer (it woke them 4,196 times when every
    admission was a boundary).  Timeouts of messages that settle in time
    make no boundaries: the cascade runner's deadline heap keeps one
    calendar entry armed at a time."""
    from repro.core.engine import Simulator as Engine
    from repro.studies.degraded import DegradedStudy

    links = []
    wakes = {"link": 0, "boundaries": 0}
    add_agent = Engine.add_agent

    def add(self, agent):
        if agent.agent_type == "link":
            links.append(agent)
            # the engine wakes an agent through ``advance_to``; a link's
            # own enqueue, measurement syncs and repair call it too, so
            # count only the calls made from the engine
            advance = agent.advance_to

            def woken(t):
                if sys._getframe(1).f_globals["__name__"] == Engine.__module__:
                    wakes["link"] += 1
                advance(t)

            agent.advance_to = woken
        return add_agent(self, agent)

    monkeypatch.setattr(Engine, "add_agent", add)
    out = DegradedStudy(horizon=120.0, seed=42).run_cell(
        60.0, resilient=True, profile=True)
    wakes["boundaries"] = out.profile.ticks
    transfers = sum(link.completed_count for link in links)
    assert (out.operations, out.server_failures, transfers) == (262, 5, 2098)
    # one wake per transfer, plus three admissions that found a second
    # transfer already on the link
    assert wakes == {"link": 2101, "boundaries": 6299}


def test_lone_job_wake_is_the_float_its_admission_schedules():
    """The reported wake equals, bit for bit, the completion the admitted
    job is then scheduled for, also when the link's clock is ahead of
    the arrival (the job is admitted at the clock, not its arrival)."""
    r = random.Random(1)
    for _ in range(500):
        link = PSQueue("l", rate=r.choice([3.0, 10.0, 7e8]),
                       latency=r.choice([0.0, 0.013, 0.25]))
        clock = r.uniform(0.0, 5.0)
        if r.random() < 0.5:
            # a repair moves the link's clock past the coming arrival
            link.fail(crash=False, now=clock)
            link.repair(clock)
        done = []
        link.submit(Job(r.uniform(0.0, 50.0),
                        on_complete=lambda j, t: done.append(t)),
                    clock - r.uniform(0.0, 0.3))
        wake = link.next_event_time()
        link.advance_to(link.waiting[0].not_before if link.waiting else 0.0)
        assert link.next_event_time() == wake
        link.advance_to(wake)
        assert done == [wake]
