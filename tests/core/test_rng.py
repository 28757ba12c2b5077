"""Tests for the named-substream RNG registry and seed determinism."""

import random

import pytest

from repro.api import Collect, ObservabilityOptions, Scenario, simulate
from repro.core.rng import RandomStreams
from repro.software.application import Application
from repro.software.message import CLIENT, MessageSpec
from repro.software.operation import Operation
from repro.software.resources import R
from repro.software.workload import OperationMix, WorkloadCurve
from repro.topology.network import GlobalTopology

from tests.conftest import small_dc_spec


# ----------------------------------------------------------------------
# stream derivation
# ----------------------------------------------------------------------
def test_legacy_runner_derivation_preserved():
    """stream("runner") must reproduce the historical Random(seed+7)."""
    st = RandomStreams(42)
    legacy = random.Random(42 + 7)
    assert [st.stream("runner").random() for _ in range(5)] == \
           [legacy.random() for _ in range(5)]


def test_legacy_workload_derivation_preserved():
    st = RandomStreams(42)
    legacy = random.Random(42 + 100 + 3)
    assert [st.stream("workload.3").random() for _ in range(5)] == \
           [legacy.random() for _ in range(5)]


def test_streams_are_memoized():
    st = RandomStreams(1)
    assert st.stream("failures") is st.stream("failures")


def test_streams_are_independent_of_creation_order():
    a = RandomStreams(9)
    b = RandomStreams(9)
    a.stream("failures")
    a.stream("resilience.jitter")
    b.stream("resilience.jitter")
    b.stream("failures")
    assert a.stream("failures").random() == b.stream("failures").random()
    assert (a.stream("resilience.jitter").random()
            == b.stream("resilience.jitter").random())


def test_different_names_give_different_streams():
    st = RandomStreams(9)
    xs = [st.stream("failures").random() for _ in range(3)]
    ys = [st.stream("jitter").random() for _ in range(3)]
    assert xs != ys


def test_different_seeds_give_different_streams():
    assert (RandomStreams(1).stream("failures").random()
            != RandomStreams(2).stream("failures").random())


def test_names_records_creation_order():
    st = RandomStreams(1)
    st.stream("b")
    st.stream("a")
    assert st.names() == ["b", "a"]


# ----------------------------------------------------------------------
# run-level determinism
# ----------------------------------------------------------------------
def tiny_scenario() -> Scenario:
    topo = GlobalTopology(seed=3)
    topo.add_datacenter(small_dc_spec("DNA"))
    op = Operation("OP", [
        MessageSpec(CLIENT, "app", r=R.of(cycles=1e9, net_kb=16)),
        MessageSpec("app", CLIENT, r=R.of(net_kb=32)),
    ])
    app = Application(
        name="tiny",
        operations={"OP": op},
        mix=OperationMix({"OP": 1.0}),
        workloads={"DNA": WorkloadCurve([60.0] * 24)},
        ops_per_client_hour=30.0,
    )
    return Scenario(name="tiny", topology=topo, applications=[app], seed=5)


def run_series(seed=None):
    result = simulate(tiny_scenario(), until=60.0, seed=seed,
                      observability=ObservabilityOptions(
                          collect=Collect(sample_interval=5.0)))
    series = result.series("cpu.DNA.app")
    records = [(r.operation, r.start, r.end) for r in result.records]
    return series, records


def test_same_seed_identical_collector_series():
    s1, r1 = run_series()
    s2, r2 = run_series()
    assert s1 == s2  # bit-exact, not approx
    assert r1 == r2


def test_seed_override_changes_and_reproduces():
    s_def, _ = run_series()
    s9a, r9a = run_series(seed=9)
    s9b, r9b = run_series(seed=9)
    assert (s9a, r9a) == (s9b, r9b)
    assert s9a != s_def


def test_injector_draws_from_failures_substream():
    """Two sessions of one seed inject identical failure schedules."""
    from repro.reliability.failures import FailurePolicy

    def failure_times():
        scn = tiny_scenario()
        session = scn.prepare(dt=0.05)
        inj = session.inject_failures(FailurePolicy(
            server_mtbf_s=20.0, server_mttr_s=10.0,
            disk_mtbf_s=None, link_mtbf_s=None,
        ), until=100.0)
        inj.start()
        session.sim.run(100.0)
        return [(e.time, e.component, e.event) for e in inj.events]

    first = failure_times()
    assert first, "expected some injected failures"
    assert failure_times() == first


def test_injector_rng_kwarg_is_superseded_by_session_stream():
    scn = tiny_scenario()
    session = scn.prepare(dt=0.05)
    inj = session.inject_failures(rng=random.Random(123), seed=99)
    assert inj.rng is session.streams.stream("failures")
