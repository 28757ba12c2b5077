"""Property-based tests for the queueing substrate (hypothesis)."""

import math

from hypothesis import given, settings, strategies as st

from repro.core import Simulator, Job
from repro.queueing import FCFSQueue, ForkJoin, PSQueue

demands = st.lists(
    st.floats(min_value=0.01, max_value=20.0, allow_nan=False),
    min_size=1, max_size=8,
)


@given(demands=demands, servers=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_fcfs_conserves_work(demands, servers):
    """Total busy server-seconds equals total demand / rate."""
    rate = 10.0
    q = FCFSQueue("q", rate=rate, servers=servers)
    sim = Simulator(dt=0.01)
    sim.add_agent(q)
    for d in demands:
        q.submit(Job(d), 0.0)
    sim.run(sum(demands) / rate + 10.0)
    assert q.completed_count == len(demands)
    assert math.isclose(q.busy_time, sum(demands) / rate, rel_tol=0.02)


@given(demands=demands)
@settings(max_examples=40, deadline=None)
def test_fcfs_single_server_preserves_arrival_order(demands):
    q = FCFSQueue("q", rate=5.0)
    sim = Simulator(dt=0.01)
    sim.add_agent(q)
    finished = []
    for i, d in enumerate(demands):
        q.submit(Job(d, on_complete=lambda j, t, k=i: finished.append(k)), 0.0)
    sim.run(sum(demands) / 5.0 + 10.0)
    assert finished == sorted(finished)


@given(demands=demands)
@settings(max_examples=40, deadline=None)
def test_ps_conserves_work(demands):
    rate = 10.0
    q = PSQueue("l", rate=rate)
    sim = Simulator(dt=0.01)
    sim.add_agent(q)
    for d in demands:
        q.submit(Job(d), 0.0)
    sim.run(sum(demands) / rate + 10.0)
    assert math.isclose(q.busy_time, sum(demands) / rate, rel_tol=0.02)


@given(demand=st.floats(min_value=0.5, max_value=50.0),
       n=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_forkjoin_stripe_time_is_per_branch_share(demand, n):
    """Identical idle branches: completion at (demand/n)/rate exactly."""
    rate = 10.0
    sim = Simulator(dt=0.001)
    queues = [sim.add_agent(FCFSQueue(f"b{i}", rate=rate)) for i in range(n)]
    fj = ForkJoin([q.submit for q in queues])
    done = []
    fj.submit(Job(demand, on_complete=lambda j, t: done.append(t)), 0.0)
    sim.run(demand / rate + 5.0)
    assert len(done) == 1
    assert math.isclose(done[0], demand / n / rate, rel_tol=0.02, abs_tol=0.01)


@given(demands=demands, k=st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_psk_never_serves_more_than_k(demands, k):
    q = PSQueue("l", rate=5.0, k=k)
    sim = Simulator(dt=0.01)
    sim.add_agent(q)
    max_active = {"v": 0}
    calls = {"n": 0}

    # every admission from the waiting line goes through the instance's
    # ``_admit_at`` (after a completion, in the general loop and in the
    # lone-job pass), and every event runs inside ``advance_to`` (from
    # enqueue, sync_to and the engine); sample the service set after both
    orig_admit = q._admit_at
    orig_adv = q.advance_to

    def sample():
        calls["n"] += 1
        max_active["v"] = max(max_active["v"], len(q.active))

    def spy_admit(t):
        orig_admit(t)
        sample()

    def spy_adv(t):
        orig_adv(t)
        sample()

    q._admit_at = spy_admit
    q.advance_to = spy_adv
    for d in demands:
        q.submit(Job(d), 0.0)
    sim.run(sum(demands) / 5.0 + 10.0)
    assert calls["n"] > 0
    assert max_active["v"] <= k


@given(demands=demands)
@settings(max_examples=30, deadline=None)
def test_queue_length_returns_to_zero(demands):
    q = FCFSQueue("q", rate=10.0, servers=2)
    sim = Simulator(dt=0.01)
    sim.add_agent(q)
    for d in demands:
        q.submit(Job(d), 0.0)
    sim.run(sum(demands) / 10.0 + 10.0)
    assert q.queue_length() == 0
    assert q.idle()
