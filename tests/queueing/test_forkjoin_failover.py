"""Fork-join sibling-join bookkeeping under pause/repair forwarding.

A striped request joins on its last branch; when one branch pauses
(or crashes) mid-service and is later repaired, the join must still
fire exactly once, at the repaired branch's completion, with identical
outcomes under the scalar and the batched (``kernel="vector"``)
kernels — the same stations fail and repair under both, the bank
only re-keys them.
"""

import pytest

from repro.core import Job, Simulator
from repro.queueing import FCFSQueue, ForkJoin

KERNELS = ("scalar", "vector")


def _build(n, kernel, rate=1.0):
    sim = Simulator(dt=0.01)
    queues = [FCFSQueue(f"b{i}", rate=rate) for i in range(n)]
    if kernel == "vector":
        from repro.queueing.soa import vectorize_agents

        vectorize_agents(sim, queues, name="fj")
    else:
        for q in queues:
            sim.add_agent(q)
    return sim, queues, ForkJoin([q.submit for q in queues])


def _run(n, kernel, crash, fail_at=0.5, repair_at=1.5):
    sim, queues, fj = _build(n, kernel)
    done = []
    fj.submit(Job(float(n), on_complete=lambda _j, t: done.append(t)), 0.0)
    victim = queues[0]
    sim.schedule(fail_at, lambda now: victim.fail(crash=crash, now=now))
    sim.schedule(repair_at, lambda now: victim.repair(now))
    sim.run(repair_at + float(n) + 5.0)
    return done, queues


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("n", [2, 4])
def test_pause_repair_joins_once_at_repaired_branch(kernel, n):
    """Non-crash pause: 0.5 s served survives, join at repair + tail."""
    done, queues = _run(n, kernel, crash=False)
    assert len(done) == 1, "sibling join fired more than once (or never)"
    # per-branch demand 1.0 at rate 1.0; victim pauses at 0.5 with 0.5
    # remaining, resumes at 1.5 -> joins at 2.0
    assert done[0] == pytest.approx(2.0, abs=1e-9)
    for q in queues:
        assert q.queue_length() == 0
        assert q.completed_count == 1


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("n", [2, 4])
def test_crash_repair_restarts_branch_service(kernel, n):
    """Crash: in-service progress is lost, the branch re-serves fully."""
    done, queues = _run(n, kernel, crash=True)
    assert len(done) == 1
    # the victim restarts its full 1.0 s service at repair (1.5)
    assert done[0] == pytest.approx(2.5, abs=1e-9)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("crash", [False, True])
def test_failover_scalar_vector_agreement(n, crash):
    """Both kernels agree exactly on join times, busy time and
    completions."""
    outcomes = {}
    for kernel in KERNELS:
        done, queues = _run(n, kernel, crash=crash)
        outcomes[kernel] = (
            done,
            [q.completed_count for q in queues],
            [q.busy_time for q in queues],
        )
    assert outcomes["scalar"] == outcomes["vector"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_queued_sibling_replays_after_repair(kernel):
    """Two overlapping striped requests: the paused branch holds an
    in-service and a queued sub-job; FIFO order survives the outage."""
    sim, queues, fj = _build(2, kernel)
    joins = []
    fj.submit(Job(2.0, on_complete=lambda _j, t: joins.append(("a", t))), 0.0)
    fj.submit(Job(2.0, on_complete=lambda _j, t: joins.append(("b", t))), 0.0)
    victim = queues[0]
    sim.schedule(0.5, lambda now: victim.fail(crash=False, now=now))
    sim.schedule(1.5, lambda now: victim.repair(now))
    sim.run(10.0)
    assert [tag for tag, _ in joins] == ["a", "b"]
    # a: victim tail 0.5 after repair -> 2.0; b: serves 1.0 after a -> 3.0
    assert joins[0][1] == pytest.approx(2.0, abs=1e-9)
    assert joins[1][1] == pytest.approx(3.0, abs=1e-9)
