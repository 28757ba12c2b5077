"""Scalar vs batched kernels driven in lockstep (hypothesis).

Random arrival/service sequences drive one scalar and one banked copy
of the same FCFS/PS station; the batched closed-form admission must
reproduce the scalar outcome observable-for-observable: identical
completion ordering and busy time within 1e-9.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.queueing.fcfs import FCFSQueue
from repro.verification.properties import (
    drive_station,
    kernel_lockstep,
    station_factories,
    workload_bursts,
)

bursts = workload_bursts(max_jobs=25, horizon=30.0, max_demand=3.0)


def _fcfs2():
    return FCFSQueue("prop.fcfs", rate=1.0, servers=2)


#: A sub-guard demand followed by a zero demand inside the same guard:
#: the scalar enqueue completes each job before it returns, so they
#: finish in arrival order, and the bank must keep that order.
GUARD_ORDER = [(0.0, 1.1754943508222875e-38), (1.0464104858614766e-223, 0.0)]


def _assert_lockstep(scalar, vector):
    (sc, sbusy), (vc, vbusy) = scalar, vector
    assert [i for i, _ in sc] == [i for i, _ in vc], (
        "completion ordering diverged between kernels"
    )
    for (_, ts), (_, tv) in zip(sc, vc):
        assert math.isclose(ts, tv, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(sbusy, vbusy, rel_tol=1e-9, abs_tol=1e-9)


@given(factory=station_factories(), seq=bursts)
@example(factory=_fcfs2, seq=GUARD_ORDER)
@settings(max_examples=60, deadline=None)
def test_station_lockstep_event_mode(factory, seq):
    _assert_lockstep(*kernel_lockstep(factory, seq, mode="event"))


@given(factory=station_factories(), seq=bursts)
@example(factory=_fcfs2, seq=GUARD_ORDER)
@settings(max_examples=25, deadline=None)
def test_station_lockstep_adaptive_mode(factory, seq):
    _assert_lockstep(*kernel_lockstep(factory, seq, mode="adaptive"))


@given(seq=bursts, servers=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_fcfs_bank_conserves_work(seq, servers):
    """Banked FCFS work conservation: busy == total demand / rate."""
    factory = lambda: FCFSQueue("prop.fcfs", rate=2.0, servers=servers)
    comps, busy = drive_station(factory, seq, kernel="vector")
    assert len(comps) == len(seq)
    assert math.isclose(busy, sum(d for _, d in seq) / 2.0,
                        rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("mode", ["event", "adaptive"])
def test_lockstep_known_sequence(mode):
    """A fixed regression sequence stays comparable without hypothesis."""
    seq = [(0.0, 1.0), (0.1, 0.0), (0.1, 2.5), (4.0, 0.3), (4.0, 0.3)]
    factory = lambda: FCFSQueue("prop.fcfs", rate=1.0, servers=2)
    _assert_lockstep(*kernel_lockstep(factory, seq, mode=mode))
