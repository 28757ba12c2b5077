"""Unit tests for the multi-server FCFS queue."""

import pytest

from repro.core import Simulator, Job
from repro.queueing import FCFSQueue


def run_queue(q, jobs, horizon=100.0, dt=0.01):
    sim = Simulator(dt=dt)
    sim.add_agent(q)
    done = []
    for demand, t in jobs:
        sim.schedule(t, lambda now, d=demand: q.submit(
            Job(d, on_complete=lambda j, t2: done.append((j, t2))), now))
    sim.run(horizon)
    return done


def test_single_job_service_time():
    q = FCFSQueue("q", rate=10.0)
    done = run_queue(q, [(5.0, 0.0)])
    assert done[0][1] == pytest.approx(0.5, abs=0.02)


def test_fifo_order_single_server():
    q = FCFSQueue("q", rate=1.0)
    done = run_queue(q, [(3.0, 0.0), (1.0, 0.1), (1.0, 0.2)])
    finish_times = [t for _, t in done]
    assert finish_times == sorted(finish_times)
    # 3 + 1 + 1 seconds of serialized work
    assert finish_times[-1] == pytest.approx(5.0, abs=0.05)


def test_two_servers_run_in_parallel():
    q = FCFSQueue("q", rate=1.0, servers=2)
    done = run_queue(q, [(2.0, 0.0), (2.0, 0.0)])
    assert all(t == pytest.approx(2.0, abs=0.05) for _, t in done)


def test_third_job_waits_for_free_server():
    q = FCFSQueue("q", rate=1.0, servers=2)
    done = run_queue(q, [(2.0, 0.0), (2.0, 0.0), (1.0, 0.0)])
    assert done[-1][1] == pytest.approx(3.0, abs=0.05)


def test_head_of_line_guard_blocks_queue():
    """FCFS does not allow skip-over: a guarded head blocks later jobs."""
    q = FCFSQueue("q", rate=10.0)
    sim = Simulator(dt=0.01)
    sim.add_agent(q)
    done = []
    q.submit(Job(1.0, on_complete=lambda j, t: done.append(("guarded", t)),
                 not_before=1.0), 0.0)
    q.submit(Job(1.0, on_complete=lambda j, t: done.append(("ready", t))), 0.0)
    sim.run(2.0)
    assert [d[0] for d in done] == ["guarded", "ready"]
    assert done[0][1] == pytest.approx(1.1, abs=0.03)


def test_work_within_one_big_tick_cascades():
    """Multiple completions inside a single large adaptive step."""
    q = FCFSQueue("q", rate=10.0)
    sim = Simulator(dt=5.0, mode="fixed")
    sim.add_agent(q)
    done = []
    for _ in range(3):
        q.submit(Job(10.0, on_complete=lambda j, t: done.append(t)), 0.0)
    sim.run(5.0)
    assert len(done) == 3
    assert done == pytest.approx([1.0, 2.0, 3.0], abs=0.01)


def test_zero_demand_completes_immediately():
    q = FCFSQueue("q", rate=1.0)
    done = run_queue(q, [(0.0, 0.0)], horizon=1.0)
    assert len(done) == 1
    assert done[0][1] <= 0.05


def test_completed_count_increments():
    q = FCFSQueue("q", rate=10.0)
    run_queue(q, [(1.0, 0.0), (1.0, 0.0)], horizon=5.0)
    assert q.completed_count == 2


def test_invalid_parameters():
    with pytest.raises(ValueError):
        FCFSQueue("q", rate=0.0)
    with pytest.raises(ValueError):
        FCFSQueue("q", rate=1.0, servers=0)


def test_next_event_time():
    q = FCFSQueue("q", rate=10.0)
    assert q.next_event_time() == float("inf")
    q.submit(Job(5.0), 0.0)
    assert q.next_event_time() == pytest.approx(0.5)
    q.fail(crash=False, now=0.1)
    assert q.next_event_time() == float("inf")
