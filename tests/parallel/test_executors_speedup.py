"""Tests for the parallel tick executors and the calibrated speedup models."""

import pytest

from repro.core import Simulator, Job
from repro.hardware import CPU, RAID, Disk
from repro.parallel import (
    HDispatchExecutor,
    ScatterGatherExecutor,
    measure_dispatch_overhead,
    measure_gil_scaling,
)
from repro.parallel.speedup import (
    TABLE_4_1,
    TABLE_4_2,
    THREAD_COUNTS,
    default_hdispatch_model,
    default_scatter_gather_model,
)
from repro.queueing import FCFSQueue


def make_queues(n=8, rate=10.0, demand=5.0):
    queues = [FCFSQueue(f"q{i}", rate=rate) for i in range(n)]
    completions = []
    for q in queues:
        q.submit(Job(demand, on_complete=lambda j, t: completions.append(t)), 0.0)
    return queues, completions


def sequential_reference(n=8, rate=10.0, demand=5.0):
    sim = Simulator(dt=0.01, mode="fixed")
    queues, completions = make_queues(n, rate, demand)
    sim.add_agents(queues)
    sim.run(2.0)
    return sorted(completions)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_scatter_gather_matches_sequential(threads):
    expected = sequential_reference()
    queues, completions = make_queues()
    ex = ScatterGatherExecutor(queues, threads=threads)
    try:
        ex.run(2.0, 0.01)
    finally:
        ex.close()
    assert sorted(completions) == pytest.approx(expected, abs=0.02)


@pytest.mark.parametrize("threads,set_size", [(1, 64), (2, 4), (4, 2)])
def test_hdispatch_matches_sequential(threads, set_size):
    expected = sequential_reference()
    queues, completions = make_queues()
    ex = HDispatchExecutor(queues, threads=threads, agent_set_size=set_size)
    try:
        ex.run(2.0, 0.01)
    finally:
        ex.close()
    assert sorted(completions) == pytest.approx(expected, abs=0.02)


REPAIR_TICK = 100  # the failed RAID member returns at t = 1.0


def make_composites():
    """A CPU, a Disk and a RAID whose member disk 1 is down from t=0."""
    cpu = CPU("cpu", frequency_hz=1e9, sockets=2, cores=2)
    disk = Disk("disk", controller_bps=2e8, drive_bps=5e7, seed=3)
    raid = RAID("raid", n_disks=3, array_controller_bps=4e8,
                controller_bps=2e8, drive_bps=5e7, seed=5)
    raid.disks[1].fail(crash=False, now=0.0)
    completions = []
    for agent, demand, n in ((cpu, 3e8, 4), (disk, 2e7, 2), (raid, 3e7, 2)):
        for _ in range(n):
            agent.submit(Job(demand, on_complete=lambda j, t, a=agent.name:
                             completions.append((a, t))), 0.0)
    return [cpu, disk, raid], completions


def composite_reference():
    sim = Simulator(dt=0.01, mode="fixed")
    agents, completions = make_composites()
    sim.add_agents(agents)
    raid = agents[2]
    sim.schedule(REPAIR_TICK * 0.01,
                 lambda now: raid.disks[1].repair(now))
    sim.run(2.0)
    return by_agent(completions)


def by_agent(completions):
    out = {}
    for name, t in sorted(completions):
        out.setdefault(name, []).append(t)
    return out


@pytest.mark.parametrize("make_executor", [
    lambda agents: ScatterGatherExecutor(agents, threads=2),
    lambda agents: HDispatchExecutor(agents, threads=2, agent_set_size=2),
], ids=["scatter_gather", "hdispatch"])
def test_executors_match_sequential_on_composites(make_executor):
    """Composites under the tick executors: a failed RAID member holds
    its stripe (degraded array) until its repair, as in the engine."""
    expected = composite_reference()
    agents, completions = make_composites()
    raid = agents[2]
    ex = make_executor(agents)
    try:
        for k in range(200):
            t = k * 0.01
            if k == REPAIR_TICK:
                # the stripe is still held: the healthy members are done
                assert not [a for a, _ in completions if a == "raid"]
                assert raid.disks[1].queue_length() == 2
                assert raid.disks[0].idle() and raid.disks[2].idle()
                raid.disks[1].repair(t)
            ex.tick(t, 0.01)
    finally:
        ex.close()
    got = by_agent(completions)
    assert got.keys() == expected.keys() == {"cpu", "disk", "raid"}
    for name, times in expected.items():
        assert got[name] == pytest.approx(times, abs=0.02), name
    assert len(expected["raid"]) == 2 and expected["raid"][0] > 1.0


def test_hdispatch_agent_sets_cover_all_agents():
    queues, _ = make_queues(n=10)
    ex = HDispatchExecutor(queues, threads=1, agent_set_size=3)
    try:
        sets = ex._agent_sets()
        assert sum(len(s) for s in sets) == 10
        assert len(sets) == 4
    finally:
        ex.close()


def test_hdispatch_deferred_interactions_run_after_tick():
    queues, _ = make_queues(n=2)
    ex = HDispatchExecutor(queues, threads=1)
    ran = []
    try:
        ex.defer_interaction(lambda: ran.append(True))
        ex.tick(0.0, 0.01)
    finally:
        ex.close()
    assert ran == [True]


def test_executor_validation():
    with pytest.raises(ValueError):
        ScatterGatherExecutor([])
    q = FCFSQueue("q", rate=1.0)
    with pytest.raises(ValueError):
        HDispatchExecutor([q], threads=0)
    with pytest.raises(ValueError):
        HDispatchExecutor([q], agent_set_size=0)


# ----------------------------------------------------------------------
# calibrated speedup models (Tables 4.1 / 4.2)
# ----------------------------------------------------------------------
def test_scatter_gather_model_is_flat():
    """Table 4.1's claim: adding threads buys (nearly) nothing."""
    model = default_scatter_gather_model()
    for n, _, paper_speedup in TABLE_4_1:
        assert model.speedup(n) == pytest.approx(paper_speedup, abs=0.12)


def test_hdispatch_model_matches_table_4_2():
    model = default_hdispatch_model()
    for n, paper_minutes, paper_speedup in TABLE_4_2:
        assert model.speedup(n) == pytest.approx(paper_speedup, rel=0.11)
        assert model.time_minutes(n) == pytest.approx(paper_minutes, rel=0.11)


def test_hdispatch_efficiency_degrades():
    """~80 % at 4 threads sliding to ~50 % at 16 (section 4.3.5)."""
    model = default_hdispatch_model()
    assert model.efficiency(4) == pytest.approx(0.80, abs=0.08)
    assert model.efficiency(16) == pytest.approx(0.50, abs=0.08)
    effs = [model.efficiency(n) for n in THREAD_COUNTS]
    assert effs == sorted(effs, reverse=True)


def test_hdispatch_beats_scatter_gather_everywhere_above_one_thread():
    sg, hd = default_scatter_gather_model(), default_hdispatch_model()
    for n in THREAD_COUNTS[1:]:
        assert hd.speedup(n) > sg.speedup(n)


def test_measured_overhead_is_positive():
    m = measure_dispatch_overhead(n_items=2000)
    assert m["threaded_us"] > 0.0
    assert m["overhead_us"] >= 0.0


def test_gil_prevents_threaded_speedup():
    """The structural reason for substitution 2 (DESIGN.md): pure-Python
    work does not scale with threads under the GIL."""
    scaling = measure_gil_scaling(threads=2, work_items=200000)
    assert scaling < 1.5


def test_model_validation():
    model = default_hdispatch_model()
    with pytest.raises(ValueError):
        model.speedup(0)
    with pytest.raises(ValueError):
        default_scatter_gather_model().time_minutes(0)
