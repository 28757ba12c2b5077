"""Direct unit tests for the struct-of-arrays batched substrate."""

import math

import pytest

from repro.core import Job, Simulator
from repro.queueing import FCFSQueue
from repro.queueing.soa import BatchedTier, _SpanStore, vectorize_agents


class _FakeStation:
    def __init__(self):
        self.busy = 0.0

    def record_busy(self, x):
        self.busy += x


# ----------------------------------------------------------------------
# span store
# ----------------------------------------------------------------------
def test_span_store_partial_commit_credits_elapsed_service():
    stations = [_FakeStation() for _ in range(3)]
    store = _SpanStore(stations)
    store.add(0, 0.0, 2.0)
    store.add(1, 1.0, 3.0)
    store.add(2, 1.5, 2.0)
    assert len(store) == 3
    store.commit(1.5)
    # elapsed portions: [0,1.5] of span0, [1,1.5] of span1, none of span2
    assert stations[0].busy == pytest.approx(1.5)
    assert stations[1].busy == pytest.approx(0.5)
    assert stations[2].busy == pytest.approx(0.0)
    store.commit(3.0)  # the remainder, no double counting
    assert stations[0].busy == pytest.approx(2.0)
    assert stations[1].busy == pytest.approx(2.0)
    assert stations[2].busy == pytest.approx(0.5)
    assert len(store) == 0


def test_span_store_drop_station_discards_only_that_station():
    stations = [_FakeStation(), _FakeStation()]
    store = _SpanStore(stations)
    store.add(0, 0.0, 2.0)
    store.add(1, 0.0, 3.0)
    store.drop_station(0)
    store.commit(10.0)
    assert stations[0].busy == pytest.approx(0.0)
    assert stations[1].busy == pytest.approx(3.0)


# ----------------------------------------------------------------------
# batched tier
# ----------------------------------------------------------------------
def test_batched_tier_rejects_direct_submit():
    tier = BatchedTier("t")
    with pytest.raises(TypeError):
        tier.enqueue(Job(1.0), 0.0)


def test_batched_admission_matches_scalar_multiserver():
    """Closed-form admission == scalar head-of-line, incl. not_before."""
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
    assert outcomes["scalar"][0] == outcomes["vector"][0]
    assert math.isclose(outcomes["scalar"][1], outcomes["vector"][1],
                        rel_tol=1e-12)
    assert outcomes["scalar"][2] == outcomes["vector"][2]
