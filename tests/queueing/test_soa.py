"""Direct unit tests for the batched substrate (one engine agent per tier)."""

import pytest

from repro.core import Job, Simulator
from repro.queueing import FCFSQueue
from repro.queueing.soa import BatchedTier, vectorize_agents


def _banked(*names):
    sim = Simulator(dt=0.01)
    queues = [FCFSQueue(n, rate=1.0) for n in names]
    vectorize_agents(sim, queues, name="t")
    return sim, queues


def _submit(sim, q, t, demand, not_before=0.0):
    sim.schedule(t, lambda now: q.submit(
        Job(demand, not_before=not_before), now))


# ----------------------------------------------------------------------
# busy-time crediting
# ----------------------------------------------------------------------
def test_mid_span_sync_credits_elapsed_service_once():
    sim, (q0, q1, q2) = _banked("q0", "q1", "q2")
    _submit(sim, q0, 0.0, 2.0)
    _submit(sim, q1, 1.0, 2.0)
    _submit(sim, q2, 1.0, 0.5, not_before=1.5)
    sim.run(1.5)  # the run's end syncs the bank mid-span
    # elapsed portions: [0,1.5] of q0's span, [1,1.5] of q1's, none of q2's
    assert (q0.busy_time, q1.busy_time, q2.busy_time) == (1.5, 0.5, 0.0)
    sim.run(10.0)  # the remainders are credited at completion, once
    assert (q0.busy_time, q1.busy_time, q2.busy_time) == (2.0, 2.0, 0.5)
    assert [q.completed_count for q in (q0, q1, q2)] == [1, 1, 1]


def test_pausing_one_banked_station_keeps_the_others_busy_time():
    sim, (q0, q1) = _banked("q0", "q1")
    _submit(sim, q0, 0.0, 2.0)
    _submit(sim, q1, 0.0, 3.0)
    sim.schedule(1.0, lambda now: q0.fail(crash=False, now=now))
    sim.run(10.0)
    assert q0.busy_time == 1.0  # served up to the pause, then frozen
    assert q1.busy_time == 3.0
    assert (q0.completed_count, q1.completed_count) == (0, 1)
    sim.schedule(12.0, lambda now: q0.repair(now))
    sim.run(20.0)
    assert q0.busy_time == 2.0  # the frozen tail, served after repair
    assert q0.completed_count == 1


# ----------------------------------------------------------------------
# batched tier
# ----------------------------------------------------------------------
def test_batched_tier_rejects_direct_submit():
    tier = BatchedTier("t")
    with pytest.raises(TypeError):
        tier.enqueue(Job(1.0), 0.0)


def test_batched_admission_matches_scalar_multiserver():
    """A banked station serves exactly as the scalar one, incl. not_before."""
    jobs = [(0.0, 3.0, 0.0), (0.0, 1.0, 0.0), (0.5, 2.0, 2.0),
            (0.6, 0.5, 0.0)]  # (submit, demand, not_before)
    outcomes = {}
    for kernel in ("scalar", "vector"):
        sim = Simulator(dt=0.01)
        q = FCFSQueue("q", rate=1.0, servers=2)
        if kernel == "vector":
            vectorize_agents(sim, [q], name="t")
        else:
            sim.add_agent(q)
        done = []
        for i, (t, d, nb) in enumerate(jobs):
            sim.schedule(t, lambda now, i=i, d=d, nb=nb: q.submit(
                Job(d, on_complete=lambda _j, tc, i=i: done.append((i, tc)),
                    not_before=nb), now))
        sim.run(20.0)
        outcomes[kernel] = (done, q.busy_time, q.completed_count)
    assert outcomes["scalar"] == outcomes["vector"]


def test_vector_kernel_run_imports_no_numpy():
    """The batched substrate is plain Python: a vector-kernel run in a
    fresh interpreter leaves numpy unimported."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys\n"
        "from repro.api import EngineOptions, simulate\n"
        "r = simulate('consolidation', until=10.0,\n"
        "             engine=EngineOptions(kernel='vector'))\n"
        "assert 'repro.queueing.soa' in sys.modules\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
