"""Closed-form FCFS station against the event-by-event reference.

:class:`~repro.queueing.fcfs.FCFSQueue` fixes each job's start and
finish at admission; :class:`~repro.verification.fcfs.ReferenceFCFS`
drains its waiting line one event at a time.  Random schedules over
stations of 1, 2 and 4 servers -- timestamp guards, zero and sub-guard
demands, finishes a few ulps apart, continuations that re-submit to
their own station or hop to another, monitor syncs in mid-span, pauses,
crashes and repairs -- must give both the same starts, finishes, every
busy-time float the monitors sample, counters, ``queue_hwm``, local
clocks and engine boundaries and wakes, in every stepping mode and
under both queueing kernels.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.core import Job, Simulator
from repro.queueing import FCFSQueue
from repro.queueing.soa import vectorize_agents
from repro.verification.fcfs import ReferenceFCFS

MODES = ("event", "adaptive", "fixed")
KERNELS = ("scalar", "vector")
SERVERS = (1, 2, 4, 2, 1)


def _random_case(seed: int) -> dict:
    r = random.Random(seed)
    grid = r.choice([0.05, 0.1, 0.25])
    rate = r.choice([1.0, 3.0, 10.0])

    def when() -> float:
        t = r.randrange(int(3.0 / grid)) * grid
        # land some events inside (or just past) the 1e-9 guard
        return max(0.0, t + r.choice([0.0, 0.0, 0.0, 4e-10, -4e-10, 2e-9,
                                      3e-13]))

    def demand() -> float:
        # grid multiples make finishes on different servers meet within
        # a few ulps of each other
        return r.choice([0.0, 1e-10, rate * grid, rate * 2 * grid,
                         rate * 3 * grid, rate * grid * (1 + 1e-13),
                         r.uniform(0.0, rate * 0.6)])

    def guard() -> float:
        return r.choice([0.0, 0.0, 0.0, 4e-10, 1.5e-9, grid,
                         r.uniform(0.0, 0.4)])

    arrivals = []
    for _ in range(r.randint(6, 30)):
        t = when()
        arrivals.append((t, r.randrange(len(SERVERS)), demand(), guard()))
        if r.random() < 0.3:
            arrivals.append((t + r.choice([0.0, 1e-10, grid / 3]),
                             r.randrange(len(SERVERS)), demand(), guard()))
    failures = []
    for _ in range(r.randint(0, 3)):
        t = when()
        failures.append((t, r.randrange(len(SERVERS)), r.random() < 0.5,
                         t + r.choice([0.0, grid, r.uniform(0.0, 1.0)])))
    return {
        "rate": rate,
        "horizon": 5.0,
        "arrivals": arrivals,
        "failures": failures,
        "monitor": r.choice([None, 0.07, grid, 0.3]),
        "resubmit": r.random() < 0.6,
        "hop": r.random() < 0.5,
        "followups": [(r.randrange(len(SERVERS)), demand(), guard())
                      for _ in range(15)],
    }


def _run(case: dict, kind, mode: str, kernel: str) -> dict:
    sim = Simulator(dt=0.01, mode=mode, profile=True)
    stations = [kind(f"q{i}", rate=case["rate"], servers=c)
                for i, c in enumerate(SERVERS)]
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
            tuple(s.busy_time.hex() for s in stations)))
    sim.run(case["horizon"])
    for station in stations:
        if station.paused:
            station.repair(case["horizon"])
    sim.run(case["horizon"] + 30.0)
    return {
        "log": log,
        "samples": samples,
        "stations": [(s.busy_time.hex(), s.completed_count, s.queue_hwm,
                      s.arrivals, s.queue_length(), s.idle(),
                      s.local_time.hex())
                     for s in stations],
        "engine": (sim.profiler.ticks, sim.profiler.agent_ticks),
    }


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("mode", MODES)
def test_closed_form_matches_the_reference_station(mode, kernel):
    for seed in range(120):
        case = _random_case(seed)
        reference = _run(case, ReferenceFCFS, mode, kernel)
        closed = _run(case, FCFSQueue, mode, kernel)
        assert reference["log"], f"seed {seed} completed nothing"
        assert closed == reference, f"seed {seed}"
