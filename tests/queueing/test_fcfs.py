"""Unit tests for the multi-server FCFS queue."""

import pytest

from repro.core import Simulator, Job
from repro.queueing import FCFSQueue
from repro.queueing.soa import vectorize_agents


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


# ----------------------------------------------------------------------
# admission edge cases: an arrival at a free server is admitted in one
# step; each case below must give the times and order of the general
# event loop exactly (``==``, hand-computed)
# ----------------------------------------------------------------------
def _recorder(done, name):
    return lambda j, t: done.append((name, t))


def test_future_not_before_waits_for_its_time():
    q = FCFSQueue("q", rate=4.0)
    sim = Simulator()
    sim.add_agent(q)
    done = []
    job = Job(2.0, on_complete=_recorder(done, "a"), not_before=1.0)
    q.submit(job, 0.0)
    assert list(q.waiting) == [job] and q.in_service == []
    assert q.next_event_time() == 1.0
    sim.run(2.0)
    assert job.start_time == 1.0
    assert done == [("a", 1.5)]  # 1.0 + 2.0 / 4.0


def test_zero_and_sub_guard_demand_complete_inside_enqueue():
    q = FCFSQueue("q", rate=1.0)
    sim = Simulator()
    sim.add_agent(q)
    done = []
    sub = Job(5e-10, on_complete=_recorder(done, "sub"))
    zero = Job(0.0, on_complete=_recorder(done, "zero"))
    seen = []

    def arrive(now):
        q.submit(sub, now)
        seen.append(list(done))
        q.submit(zero, now)
        seen.append(list(done))

    sim.schedule(2.0, arrive)
    sim.run(3.0)
    fin = 2.0 + 5e-10
    # the sub-guard job finishes at its own time inside its submit; the
    # zero-demand job then starts at the station clock (ahead of ``now``)
    assert seen == [[("sub", fin)], [("sub", fin), ("zero", fin)]]
    assert sub.start_time == 2.0 and zero.start_time == fin


def test_sub_guard_pair_keeps_scalar_completion_order():
    """The sub-guard lockstep counterexample, as the scalar kernel runs it:
    both jobs complete at 1.18e-38 in arrival order."""
    q = FCFSQueue("q", rate=1.0, servers=2)
    sim = Simulator()
    sim.add_agent(q)
    done = []
    d0 = 1.1754943508222875e-38
    sim.schedule(0.0, lambda now: q.submit(
        Job(d0, on_complete=_recorder(done, 0)), now))
    sim.schedule(1.0464104858614766e-223, lambda now: q.submit(
        Job(0.0, on_complete=_recorder(done, 1)), now))
    sim.run(1.0)
    assert done == [(0, d0), (1, d0)]


def test_arrival_behind_the_station_clock_starts_at_the_clock():
    q = FCFSQueue("q", rate=1.0)
    sim = Simulator()
    sim.add_agent(q)
    done = []
    first_fin = 1.0 + 4e-10
    q.submit(Job(first_fin, on_complete=_recorder(done, "a")), 0.0)
    late = Job(2.0, on_complete=_recorder(done, "b"))
    # the boundary at 1.0 first advances the station through its
    # completion at 1.0 + 4e-10 (inside the guard), then fires this
    sim.schedule(1.0, lambda now: q.submit(late, now))
    sim.run(4.0)
    assert late.start_time == first_fin
    assert done == [("a", first_fin), ("b", first_fin + 2.0)]


def test_reentrant_enqueue_from_a_completion_continuation():
    q = FCFSQueue("q", rate=2.0)
    sim = Simulator()
    sim.add_agent(q)
    done = []
    b = Job(3.0, on_complete=_recorder(done, "b"))
    c = Job(1.0, on_complete=_recorder(done, "c"))

    def a_done(job, t):
        done.append(("a", t))
        q.submit(b, t)
        q.submit(c, t)
        # inside the station's own event loop: both wait until it
        # admits the head after this continuation returns
        assert list(q.waiting) == [b, c] and q.in_service == []

    q.submit(Job(1.0, on_complete=a_done), 0.0)
    sim.run(5.0)
    assert done == [("a", 0.5), ("b", 2.0), ("c", 2.5)]
    assert (b.start_time, c.start_time) == (0.5, 2.0)


@pytest.mark.parametrize("crash", [True, False])
def test_directly_admitted_job_fails_and_restarts_like_the_general_path(crash):
    """One job is admitted on arrival at an idle station, its twin by the
    event loop (a not_before guard releasing it at the same instant);
    both are failed and repaired together, take one more arrival while
    failed, and must match exactly."""
    direct = FCFSQueue("direct", rate=2.0)
    looped = FCFSQueue("looped", rate=2.0)
    sim = Simulator()
    sim.add_agent(direct)
    sim.add_agent(looped)
    done = []
    j1 = Job(4.0, on_complete=_recorder(done, "direct"))
    j2 = Job(4.0, on_complete=_recorder(done, "looped"), not_before=1.0)
    looped.submit(j2, 0.0)
    sim.schedule(1.0, lambda now: direct.submit(j1, now))
    for q in (direct, looped):
        sim.schedule(2.0, lambda t, q=q: q.fail(crash=crash, now=t))
        sim.schedule(3.0, lambda t, q=q: q.submit(
            Job(2.0, on_complete=_recorder(done, q.name + "+")), t))
        sim.schedule(5.0, lambda t, q=q: q.repair(t))
    sim.run(10.0)
    if crash:
        # progress lost: the full demand restarts at the repair
        start, fin, busy = 5.0, 7.0, 4.0
    else:
        # 2.0 units of work left at the pause resume at the repair
        start, fin, busy = 1.0, 6.0, 3.0
    # the arrival during the failure is served next: 2.0 / 2.0 seconds
    assert sorted(done) == [("direct", fin), ("direct+", fin + 1.0),
                            ("looped", fin), ("looped+", fin + 1.0)]
    assert j1.start_time == j2.start_time == start
    assert direct.busy_time == looped.busy_time == busy


def _station(kernel):
    """A rate-1 single-server station on the given queueing kernel."""
    sim = Simulator()
    q = FCFSQueue("q", rate=1.0)
    if kernel == "vector":
        vectorize_agents(sim, [q], name="t")
    else:
        sim.add_agent(q)
    return sim, q


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_repair_of_a_running_station_is_a_no_op(kernel):
    """A repair finds nothing to resume on a station that never failed:
    the job in service keeps its completion, the one queued behind it
    still waits for it, and no busy time is dropped."""
    sim, q = _station(kernel)
    done = []
    sim.schedule(0.0, lambda now: q.submit(
        Job(1.0, on_complete=_recorder(done, "a")), now))
    sim.schedule(0.5, lambda now: q.repair(now))
    sim.schedule(0.6, lambda now: q.submit(
        Job(1.0, on_complete=_recorder(done, "b")), now))
    sim.run(3.0)
    assert done == [("a", 1.0), ("b", 2.0)]
    assert q.busy_time == 2.0


def test_station_failed_by_a_continuation_admits_nothing():
    """A job's continuation fails its station at the completion instant:
    the event loop stops there, and the job queued behind it neither
    starts nor completes while the station is down."""
    q = FCFSQueue("q", rate=1.0)
    done = []

    def first(_job, t):
        done.append(("a", t))
        q.fail(crash=False, now=t)

    second = Job(1.0, on_complete=_recorder(done, "b"))
    q.submit(Job(1.0, on_complete=first), 0.0)
    q.submit(second, 0.0)
    q.advance_to(2.5)
    assert done == [("a", 1.0)]
    assert (q.queue_length(), second.start_time) == (1, None)
    q.repair(3.0)
    q.advance_to(5.0)
    assert done == [("a", 1.0), ("b", 4.0)]
    assert second.start_time == 3.0


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_continuation_failure_defers_the_next_start_to_the_repair(kernel):
    """The same failure with the engine driving the station, under both
    queueing kernels."""
    sim, q = _station(kernel)
    done = []

    def first(_job, t):
        done.append(("a", t))
        q.fail(crash=False, now=t)

    second = Job(1.0, on_complete=_recorder(done, "b"))

    def arrive(now):
        q.submit(Job(1.0, on_complete=first), now)
        q.submit(second, now)

    sim.schedule(0.0, arrive)
    sim.schedule(3.0, lambda now: q.repair(now))
    sim.run(2.5)
    assert done == [("a", 1.0)]
    assert (q.queue_length(), second.start_time) == (1, None)
    sim.run(5.0)
    assert done == [("a", 1.0), ("b", 4.0)]
    assert second.start_time == 3.0
    assert q.busy_time == 2.0
