"""Scalar vs batched kernels driven in lockstep (hypothesis).

Random arrival/service sequences drive one scalar and one banked copy
of the same FCFS/PS station.  Both kernels run the same station code,
so each must reproduce the reference observable-for-observable and bit
for bit: the same completions in the same order at the same times, and
the same busy time.  An FCFS station's reference is the event-by-event
station of :mod:`repro.verification.fcfs` on the scalar kernel; a PS
link is its own reference.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.queueing.fcfs import FCFSQueue
from repro.verification.fcfs import ReferenceFCFS
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


def _reference(factory):
    """The reference station's factory for ``factory``'s station."""
    station = factory()
    if isinstance(station, FCFSQueue):
        return lambda: ReferenceFCFS(station.name, station.rate,
                                     station.servers)
    return factory


def _assert_lockstep(factory, seq, mode):
    reference = drive_station(_reference(factory), seq, mode=mode)
    scalar, vector = kernel_lockstep(factory, seq, mode=mode)
    assert scalar == reference, "scalar kernel diverged from the reference"
    assert vector == reference, "vector kernel diverged from the reference"


@given(factory=station_factories(), seq=bursts)
@example(factory=_fcfs2, seq=GUARD_ORDER)
@settings(max_examples=60, deadline=None)
def test_station_lockstep_event_mode(factory, seq):
    _assert_lockstep(factory, seq, "event")


@given(factory=station_factories(), seq=bursts)
@example(factory=_fcfs2, seq=GUARD_ORDER)
@settings(max_examples=25, deadline=None)
def test_station_lockstep_adaptive_mode(factory, seq):
    _assert_lockstep(factory, seq, "adaptive")


@given(seq=bursts, servers=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_fcfs_bank_conserves_work(seq, servers):
    """Banked FCFS stations serve every job and accrue exactly the busy
    time of the reference station, whose work conservation (busy ==
    total demand / rate) ``tests/queueing/test_properties.py`` checks."""
    factory = lambda: FCFSQueue("prop.fcfs", rate=2.0, servers=servers)
    comps, busy = drive_station(factory, seq, kernel="vector")
    assert len(comps) == len(seq)
    assert (comps, busy) == drive_station(_reference(factory), seq)


@pytest.mark.parametrize("mode", ["event", "adaptive"])
def test_lockstep_known_sequence(mode):
    """A fixed regression sequence stays comparable without hypothesis."""
    seq = [(0.0, 1.0), (0.1, 0.0), (0.1, 2.5), (4.0, 0.3), (4.0, 0.3)]
    factory = lambda: FCFSQueue("prop.fcfs", rate=1.0, servers=2)
    _assert_lockstep(factory, seq, mode)
