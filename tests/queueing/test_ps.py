"""Unit tests for the processor-sharing (PSk) queue."""

import pytest

from repro.core import Simulator, Job
from repro.queueing import PSQueue


def run_ps(q, jobs, horizon=100.0, dt=0.01):
    sim = Simulator(dt=dt)
    sim.add_agent(q)
    done = []
    for demand, t in jobs:
        sim.schedule(t, lambda now, d=demand: q.submit(
            Job(d, on_complete=lambda j, t2: done.append(t2)), now))
    sim.run(horizon)
    return done


def test_single_job_full_rate():
    q = PSQueue("l", rate=10.0)
    done = run_ps(q, [(5.0, 0.0)])
    assert done[0] == pytest.approx(0.5, abs=0.02)


def test_two_jobs_share_rate_equally():
    q = PSQueue("l", rate=10.0)
    done = run_ps(q, [(5.0, 0.0), (5.0, 0.0)])
    # each sees rate 5 -> both complete at ~1.0
    assert all(t == pytest.approx(1.0, abs=0.05) for t in done)


def test_connection_cap_queues_excess():
    q = PSQueue("l", rate=10.0, k=1)
    done = run_ps(q, [(5.0, 0.0), (5.0, 0.0)])
    assert done[0] == pytest.approx(0.5, abs=0.03)
    assert done[1] == pytest.approx(1.0, abs=0.05)


def test_latency_delays_service_start():
    q = PSQueue("l", rate=10.0, latency=0.2)
    done = run_ps(q, [(5.0, 0.0)])
    assert done[0] == pytest.approx(0.7, abs=0.03)


def test_departure_accelerates_remaining_job():
    q = PSQueue("l", rate=10.0)
    # short job departs at ~0.2 (shared), long job then gets the full rate
    done = run_ps(q, [(1.0, 0.0), (9.0, 0.0)])
    assert done[0] == pytest.approx(0.2, abs=0.03)
    # long job: 0.2s at rate 5 (1 unit) then 8 units at rate 10 -> 1.0
    assert done[1] == pytest.approx(1.0, abs=0.05)


def test_work_conservation():
    q = PSQueue("l", rate=10.0)
    sim = Simulator(dt=0.01)
    sim.add_agent(q)
    for _ in range(4):
        q.submit(Job(5.0), 0.0)
    sim.run(10.0)
    # 20 units at rate 10 -> exactly 2 busy seconds
    assert q.busy_time == pytest.approx(2.0, abs=0.05)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        PSQueue("l", rate=0.0)
    with pytest.raises(ValueError):
        PSQueue("l", rate=1.0, k=0)
    with pytest.raises(ValueError):
        PSQueue("l", rate=1.0, latency=-0.1)


def test_ps_respects_not_before_guard():
    q = PSQueue("l", rate=10.0)
    sim = Simulator(dt=0.01)
    sim.add_agent(q)
    done = []
    q.submit(Job(1.0, on_complete=lambda j, t: done.append(t), not_before=0.5), 0.0)
    sim.run(2.0)
    assert done[0] >= 0.6 - 0.03


def test_repairing_a_running_link_keeps_its_schedule():
    """repair() of a link that never failed leaves its work as it is."""
    sim = Simulator()
    q = sim.add_agent(PSQueue("l", rate=1.0))
    done = []
    q.submit(Job(1.0, on_complete=lambda j, t: done.append(t)), 0.0)
    sim.schedule(0.5, q.repair)
    sim.run(5.0)
    assert done == [1.0]
    assert q.busy_time == 1.0


@pytest.mark.parametrize("crash", [False, True])
def test_link_failed_by_its_own_completion_stops_admitting(crash):
    """A continuation that fails the link it just left stops the link's
    event loop: the next job starts at the repair, not at the failure."""
    sim = Simulator()
    q = sim.add_agent(PSQueue("l", rate=1.0, k=1))

    def fail_link(job, t):
        q.fail(crash=crash, now=t)
        sim.schedule(6.0, q.repair)

    ended = []
    q.submit(Job(1.0, on_complete=fail_link), 0.0)
    second = Job(1.0, on_complete=lambda j, t: ended.append(t))
    q.submit(second, 0.0)
    sim.run(10.0)
    assert second.start_time == 6.0
    assert ended == [7.0]
    assert q.busy_time == 2.0
