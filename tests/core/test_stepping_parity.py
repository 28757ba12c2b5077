"""Property tests: the three stepping modes agree on simulation results.

The event kernel is correct only if it discovers exactly the boundaries
the adaptive poll discovers: ``mode="adaptive"`` and ``mode="event"``
must agree *bit-for-bit* — operation records, collector series,
per-agent telemetry counters and checkpoint fingerprints.  The fixed
grid (``mode="fixed"``) quantizes calendar events to the tick, so it is
compared within a tolerance of one tick's worth of drift.

Scenarios are randomized small topologies/workloads plus two reference
slices: a chapter-5 validation experiment and the degraded-mode
resilience drill.
"""

from __future__ import annotations

import random

import pytest

from repro.api import (
    Collect,
    EngineOptions,
    ObservabilityOptions,
    Scenario,
    simulate,
)
from repro.core.checkpoint import state_fingerprint
from repro.software.application import Application
from repro.software.message import CLIENT, MessageSpec
from repro.software.operation import Operation
from repro.software.resources import R
from repro.software.workload import OperationMix, WorkloadCurve
from repro.topology.network import GlobalTopology
from repro.topology.specs import LinkSpec

from tests.conftest import small_dc_spec

SAMPLE_S = 5.0
HORIZON_S = 60.0


def random_scenario(seed: int) -> Scenario:
    """A small random topology + workload, rebuilt identically per mode."""
    rng = random.Random(seed * 7919)
    topo = GlobalTopology(seed=seed)
    topo.add_datacenter(small_dc_spec("DNA"))
    two_dc = rng.random() < 0.5
    if two_dc:
        topo.add_datacenter(small_dc_spec("DEU"))
        topo.connect("DNA", "DEU", LinkSpec(0.155, 50.0))
    ops, mix = {}, {}
    for i in range(rng.randint(1, 3)):
        name = f"OP{i}"
        ops[name] = Operation(name, [
            MessageSpec(CLIENT, "app", r=R.of(
                cycles=rng.uniform(2e8, 2e9), net_kb=rng.uniform(4, 64))),
            MessageSpec("app", "db", r=R.of(
                cycles=rng.uniform(1e8, 8e8), net_kb=rng.uniform(2, 32),
                disk_kb=rng.uniform(0, 64))),
            MessageSpec("db", "app", r=R.of(net_kb=rng.uniform(2, 32))),
            MessageSpec("app", CLIENT, r=R.of(net_kb=rng.uniform(8, 64))),
        ])
        mix[name] = rng.uniform(0.2, 1.0)
    curve = WorkloadCurve([rng.uniform(20.0, 150.0) for _ in range(24)])
    workloads = {"DNA": curve}
    if two_dc:
        workloads["DEU"] = WorkloadCurve(
            [rng.uniform(10.0, 80.0) for _ in range(24)])
    app = Application(
        name="rand", operations=ops, mix=OperationMix(mix),
        workloads=workloads, ops_per_client_hour=rng.uniform(20.0, 60.0),
    )
    return Scenario(name=f"parity-{seed}", topology=topo,
                    applications=[app], seed=seed)


def run_mode(seed: int, mode: str, dt: float = 0.01):
    return simulate(random_scenario(seed), until=HORIZON_S,
                    engine=EngineOptions(dt=dt, mode=mode),
                    observability=ObservabilityOptions(collect=Collect(
                        sample_interval=SAMPLE_S, tier_cpu=True)))


def exact_key(result):
    """Everything that must match bit-for-bit between adaptive and event."""
    series = {
        name: result.collector.series(name)
        for name in sorted(result.collector._probes)
    }
    return (
        [(r.operation, r.start, r.end, r.failed) for r in result.records],
        series,
        result.telemetry(),
    )


# ----------------------------------------------------------------------
# randomized topologies: adaptive == event, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_event_matches_adaptive_bitwise(seed):
    adaptive = run_mode(seed, "adaptive")
    event = run_mode(seed, "event")
    assert exact_key(adaptive) == exact_key(event)
    fp_a = state_fingerprint(adaptive.session)
    fp_e = state_fingerprint(event.session)
    assert fp_a["hash"] == fp_e["hash"]


@pytest.mark.parametrize("seed", [1, 3])
def test_fixed_converges_to_event(seed):
    """The fixed grid converges to the exact kernels at small dt.

    Calendar events quantize to the tick in fixed mode, so absolute
    launch times drift by roughly one tick per chained arrival; the
    comparison therefore checks durations and aggregate series, not
    absolute timestamps.
    """
    fixed = run_mode(seed, "fixed", dt=0.005)
    event = run_mode(seed, "event", dt=0.005)
    assert abs(len(fixed.records) - len(event.records)) <= 1
    n = min(len(fixed.records), len(event.records))
    rts_f = sorted(r.end - r.start for r in fixed.records)[:n]
    rts_e = sorted(r.end - r.start for r in event.records)[:n]
    for rf, re_ in zip(rts_f, rts_e):
        assert rf == pytest.approx(re_, abs=0.25)
    for name in sorted(event.collector._probes):
        sf = fixed.collector.series(name)
        se = event.collector.series(name)
        assert len(sf) == len(se)
        # sample instants are identical (the grid contains the cadence)
        for (tf, _), (te, _) in zip(sf, se):
            assert tf == pytest.approx(te, abs=1e-9)
        mean_dev = sum(abs(vf - ve) for (_, vf), (_, ve) in zip(sf, se)) / max(
            len(se), 1)
        assert mean_dev < 0.1


# ----------------------------------------------------------------------
# reference slices
# ----------------------------------------------------------------------
def test_validation_slice_parity():
    """Chapter-5 validation experiment: adaptive == event, bit for bit."""
    from repro.validation.experiments import EXPERIMENTS, run_experiment

    kw = dict(until=120.0, launch_until=100.0, steady_window=(60.0, 100.0))
    a = run_experiment(EXPERIMENTS[0], mode="adaptive", **kw)
    e = run_experiment(EXPERIMENTS[0], mode="event", **kw)
    assert a.clients == e.clients
    for tier in ("app", "db", "fs", "idx"):
        assert a.cpu[tier] == e.cpu[tier]


def test_resilience_drill_parity():
    """Degraded-mode drill (failures + repairs): adaptive == event."""
    from repro.studies.degraded import DegradedStudy

    study = DegradedStudy(horizon=120.0, drain_s=30.0)
    a = study.run_cell(60.0, resilient=True, mode="adaptive")
    e = study.run_cell(60.0, resilient=True, mode="event")
    assert a == e
