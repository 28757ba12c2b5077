"""Execution-backend parity on sampled scenario windows.

The event kernel's contract (PR 3) is bit-identical boundary discovery
versus the adaptive poll.  This module samples short end-to-end windows
of a scenario in both modes and diffs everything observable — operation
records, per-agent telemetry and (when a collector is attached) the
sampled series — turning the contract into a standing verification
check that ``python -m repro verify --parity`` can gate on.

:func:`check_sharded` extends the same discipline to the sharded
multiprocess backend (PR 6): one consolidation-fleet window with
cross-shard ``RemotePort`` traffic runs single-process and with
``parallel=ParallelOptions(...)``, and every merged output must be
*exactly* equal: records, sampled series, metric fingerprints and
per-agent telemetry, time-integrated floats (``busy_time``) included.
A windowed run drains its agents only once, at the horizon, so its
busy-time sums add in the same order as a single uninterrupted run's.
A second case runs the plain fleet, which registers no remote handler:
it must match just as exactly and run as one barrier-free window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api import (
    Collect,
    EngineOptions,
    ObservabilityOptions,
    ParallelOptions,
    Scenario,
    simulate,
)
from repro.software.application import Application
from repro.software.message import CLIENT, MessageSpec
from repro.software.operation import Operation
from repro.software.resources import R
from repro.software.workload import OperationMix, WorkloadCurve
from repro.topology.network import GlobalTopology
from repro.topology.specs import (
    DataCenterSpec,
    LinkSpec,
    SANSpec,
    TierSpec,
)


@dataclass
class ParityResult:
    """Outcome of one sampled window."""

    scenario: str
    until: float
    records: int
    identical: bool
    mismatches: List[str] = field(default_factory=list)

    def to_row(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "until": self.until,
            "records": self.records,
            "identical": self.identical,
            "mismatches": self.mismatches,
        }


def _parity_scenario(seed: int) -> Scenario:
    """A compact two-tier scenario exercising CPU, NIC, SAN and links."""
    dc = DataCenterSpec(
        name="DNA",
        tiers=(
            TierSpec("app", n_servers=2, cores_per_server=2,
                     memory_gb=8.0, sockets=1),
            TierSpec("db", n_servers=1, cores_per_server=4,
                     memory_gb=16.0, sockets=1, uses_san=True),
        ),
        sans=(SANSpec(1, 4, 15000),),
        switch_gbps=10.0,
        tier_link=LinkSpec(10.0, 0.2),
    )
    topo = GlobalTopology(seed=seed)
    topo.add_datacenter(dc)
    op = Operation("RT", [
        MessageSpec(CLIENT, "app", r=R.of(cycles=8e8, net_kb=24.0)),
        MessageSpec("app", "db", r=R.of(cycles=4e8, net_kb=8.0,
                                        disk_kb=32.0)),
        MessageSpec("db", "app", r=R.of(net_kb=8.0)),
        MessageSpec("app", CLIENT, r=R.of(net_kb=24.0)),
    ])
    app = Application(
        name="parity", operations={"RT": op}, mix=OperationMix({"RT": 1.0}),
        workloads={"DNA": WorkloadCurve([60.0] * 24)},
        ops_per_client_hour=40.0,
    )
    return Scenario(name=f"verify-parity-{seed}", topology=topo,
                    applications=[app], seed=seed)


def check_window(
    scenario_factory: Optional[Any] = None,
    *,
    until: float = 60.0,
    seed: int = 11,
    sample_interval: float = 5.0,
    kernel: str = "scalar",
) -> ParityResult:
    """Run one window in both modes and diff every observable output.

    ``scenario_factory`` is a zero-argument callable returning a *fresh*
    :class:`Scenario`: topologies hold stateful agents, so each mode
    must run against its own build (reusing one would leak the first
    run's state into the second and report a false mismatch).

    ``kernel`` selects the queueing substrate for *both* modes: the
    event≡adaptive contract must hold per kernel, so ``verify --parity
    --kernel vector`` replays the same windows on the batched substrate.
    """
    if scenario_factory is None:
        scenario_factory = lambda: _parity_scenario(seed)  # noqa: E731
    outputs = {}
    name = ""
    for mode in ("event", "adaptive"):
        scenario = scenario_factory()
        name = scenario.name
        result = simulate(
            scenario, until=until,
            engine=EngineOptions(kernel=kernel, mode=mode),
            observability=ObservabilityOptions(
                collect=Collect(sample_interval=sample_interval)),
        )
        series = {
            name: result.collector.series(name)
            for name in sorted(result.collector._probes)
        }
        outputs[mode] = (
            [(r.operation, r.start, r.end, r.failed)
             for r in result.records],
            series,
            result.telemetry(),
        )
    ev, ad = outputs["event"], outputs["adaptive"]
    mismatches: List[str] = []
    for label, a, b in (("records", ev[0], ad[0]),
                        ("series", ev[1], ad[1]),
                        ("telemetry", ev[2], ad[2])):
        if a != b:
            mismatches.append(label)
    return ParityResult(
        scenario=name,
        until=until,
        records=len(ev[0]),
        identical=not mismatches,
        mismatches=mismatches,
    )


def check_windows(
    *, seeds: tuple = (11, 23), until: float = 60.0,
    kernel: str = "scalar",
) -> List[ParityResult]:
    """The default sampled-window sweep for ``verify --parity``."""
    return [check_window(seed=s, until=until, kernel=kernel)
            for s in seeds]


# --------------------------------------------------------------------------
# Sharded-backend parity (PR 6)
# --------------------------------------------------------------------------

def _sharded_fleet_setup(session) -> None:
    """Fleet background load plus deterministic cross-DC remote traffic.

    On top of :func:`repro.studies.fleet.fleet_setup`, the master
    periodically pushes replication-control legs to every region through
    ``session.remote`` at exactly the WAN propagation latency — the
    smallest latency the sharded backend's window admits — so the
    envelope relay path is exercised, not just the shard-local fast
    path.  Payloads are drawn at setup time from one fixed stream on
    every shard (the draws happen before the ownership guard), so the
    traffic is identical however the topology is cut.
    """
    from repro.studies.consolidation import MASTER
    from repro.studies.fleet import REGION_LATENCY_S, fleet_setup

    fleet_setup(session)
    topo = session.scenario.topology
    regions = sorted(n for n in topo.datacenters if n != MASTER)
    for name in regions:
        if not session.owns(name):
            continue
        dc = topo.datacenters[name]
        server = next(iter(dc.tiers.values())).servers[0]

        def handler(payload, now, server=server):
            server.process_leg(
                now,
                cycles=payload["cycles"],
                net_bits=payload["net_bits"],
                mem_bytes=32e6,
                disk_bytes=payload["disk_bytes"],
                on_complete=lambda t: None,
            )

        session.remote.on_message(name, handler)

    r = random.Random(777)
    sends = []
    for k, name in enumerate(regions):
        for j in range(4):
            t = 0.5 + 1.7 * j + 0.13 * k
            sends.append((t, name, {
                "cycles": r.uniform(0.5, 1.5) * 1e8,
                "net_bits": r.uniform(1.0, 3.0) * 1e9,
                "disk_bytes": r.uniform(5.0, 20.0) * 1e6,
            }))
    if session.owns(MASTER):
        for t, name, payload in sends:
            session.sim.schedule(
                t,
                lambda now, n=name, p=payload: session.remote.send(
                    MASTER, n, p, latency_s=REGION_LATENCY_S),
            )

    # traced control cascades (trace parity): a master-side fs->fs
    # replication-control leg whose completion pushes a payload to one
    # region through session.remote *from inside the cascade context* —
    # so with tracing armed the remote handler's work records spans
    # under the originating cascade id on the region's shard, and a
    # sharded run must reassemble the exact span set a single-process
    # run records.  Draws again precede the ownership guard.
    from repro.software.resources import R

    r_ctl = random.Random(911)
    ctl = []
    for k, name in enumerate(regions):
        ctl.append((1.1 + 2.3 * k, name, {
            "cycles": r_ctl.uniform(0.5, 1.0) * 1e8,
            "net_bits": r_ctl.uniform(1.0, 2.0) * 1e9,
            "disk_bytes": r_ctl.uniform(4.0, 8.0) * 1e6,
        }))
    if session.owns(MASTER):
        runner = session.runner
        fs = topo.datacenters[MASTER].tiers["fs"].servers
        src = runner.resolved(fs[0], MASTER, "fs")
        dst = runner.resolved(fs[1 % len(fs)], MASTER, "fs")
        for t, name, payload in ctl:
            def fire(now, n=name, p=payload):
                runner.deliver(
                    src, dst,
                    R.of(cycles=2e8, net_kb=64.0),
                    R.of(net_kb=16.0),
                    now,
                    on_complete=lambda done, n=n, p=p: session.remote.send(
                        MASTER, n, p, latency_s=REGION_LATENCY_S, now=done),
                    tag="ctl",
                )
            session.sim.schedule(t, fire)


def sharded_fleet_scenario(n_regions: int = 4, seed: int = 42) -> Scenario:
    """The consolidation fleet with remote traffic, ready to shard."""
    from repro.software.placement import SingleMasterPlacement
    from repro.studies.consolidation import MASTER
    from repro.studies.fleet import fleet_topology

    return Scenario(
        name="consolidation-fleet-remote",
        topology=fleet_topology(n_regions, seed=seed),
        placement=SingleMasterPlacement(MASTER, local_fs=True),
        seed=seed,
        setup=_sharded_fleet_setup,
    )


def check_sharded(
    *,
    n_regions: int = 4,
    until: float = 10.0,
    workers: int = 2,
    cut: str = "region",
    seed: int = 42,
    sample_interval: float = 2.0,
    kernel: str = "scalar",
    remote: bool = True,
) -> ParityResult:
    """Diff the sharded backend against a single-process run.

    Records, sampled series, metric fingerprint lines and per-agent
    telemetry (busy-time floats included) must be exactly equal: each
    shard's windowed run is bit-exact against an uninterrupted one
    (:meth:`~repro.core.engine.Simulator.run_windowed`).

    With ``remote`` (the default) the fleet carries cross-shard
    ``session.remote`` traffic, and the check also requires that
    envelopes actually flowed, so a cut that silently localized the
    traffic cannot pass vacuously.  Both runs are armed with full
    tracing and profiling: the merged sharded trace must reproduce the
    single-process span and cascade sets byte-identically after
    :func:`~repro.observability.trace.canonical_spans` renumbering
    (cross-shard cascades keep one id and their parent/child links), at
    least one cross-shard trace flow must have been recorded, and the
    sharded result must carry a merged profile.

    Without ``remote`` the plain fleet registers no remote handler, so
    no shard can receive: the sharded run must then be one window at
    the horizon, with no barrier.
    """
    from repro.observability.trace import canonical_spans
    from repro.studies.fleet import fleet_scenario

    build = sharded_fleet_scenario if remote else fleet_scenario
    outputs = {}
    reports = {}
    traces = {}
    for label in ("single", "sharded"):
        scenario = build(n_regions, seed=seed)
        result = simulate(
            scenario, until=until, engine=EngineOptions(kernel=kernel),
            observability=ObservabilityOptions(
                collect=Collect(sample_interval=sample_interval),
                metrics="on", trace="full", profile=True),
            parallel=(ParallelOptions(workers=workers, cut=cut)
                      if label == "sharded" else None),
        )
        series = {
            name: result.collector.series(name)
            for name in sorted(result.collector._probes)
        }
        fingerprint = (sorted(result.metrics.fingerprint_lines())
                       if result.metrics is not None else None)
        outputs[label] = (
            sorted((r.operation, r.start, r.end, r.failed)
                   for r in result.records),
            series,
            fingerprint,
            result.telemetry(),
            canonical_spans(result.spans()),
            sorted((c.cascade_id, c.operation, c.application, c.client_dc,
                    c.start, c.end, c.failed) for c in result.cascades()),
        )
        reports[label] = result.parallel
        traces[label] = result
    single, sharded = outputs["single"], outputs["sharded"]
    mismatches: List[str] = []
    for name, a, b in (("records", single[0], sharded[0]),
                       ("series", single[1], sharded[1]),
                       ("metrics", single[2], sharded[2]),
                       ("telemetry", single[3], sharded[3]),
                       ("spans", single[4], sharded[4]),
                       ("cascades", single[5], sharded[5])):
        if a != b:
            mismatches.append(name)
    if remote and not single[4]:
        mismatches.append("no-spans-recorded")
    report = reports["sharded"]
    if report is None or report.workers != workers:
        mismatches.append("backend-not-sharded")
    elif not remote:
        # the plain fleet's legs run below the cascade layer, so its
        # records are empty and the telemetry carries the comparison
        if not any(t.arrivals for t in single[3].values()):
            mismatches.append("no-agent-arrivals")
        if report.windows_run != 1:
            mismatches.append("barrier-windows-without-receivers")
    elif workers > 1:
        if report.envelopes == 0:
            mismatches.append("no-cross-shard-envelopes")
        if not getattr(traces["sharded"].trace, "flows", None):
            mismatches.append("no-cross-shard-trace-flows")
        if traces["sharded"].profile is None or not getattr(
                traces["sharded"].profile, "per_shard", None):
            mismatches.append("no-merged-profile")
    return ParityResult(
        scenario=(f"{scenario.name}[w={workers},cut={cut}"
                  + (f",kernel={kernel}" if kernel != "scalar" else "")
                  + "]"),
        until=until,
        records=len(single[0]),
        identical=not mismatches,
        mismatches=mismatches,
    )


# --------------------------------------------------------------------------
# Closed-form storage against the event-by-event reference path
# --------------------------------------------------------------------------

def check_storage(
    *,
    n_regions: int = 4,
    until: float = 10.0,
    seed: int = 42,
    kernel: str = "scalar",
) -> ParityResult:
    """Diff the closed-form storage schedules against the reference path.

    The consolidation fleet runs twice on ``kernel``: with the Disk,
    RAID and SAN schedules of :mod:`repro.hardware.storage`, and with
    every storage composite switched to the event-by-event chain of
    :mod:`repro.verification.storage`.  Records and every storage
    agent's telemetry (busy time to the bit, ``queue_hwm``) must match.
    """
    from repro.hardware.storage import StripedStorage
    from repro.studies.fleet import fleet_scenario
    from repro.verification.storage import use_reference_storage

    outputs = []
    for reference in (False, True):
        scenario = fleet_scenario(n_regions, seed=seed)
        if reference:
            use_reference_storage(scenario.topology)
        result = simulate(scenario, until=until,
                          engine=EngineOptions(kernel=kernel))
        storage = {a.name for a in scenario.topology.all_agents()
                   if isinstance(a, StripedStorage)}
        outputs.append((
            [(r.operation, r.start, r.end, r.failed)
             for r in result.records],
            {name: tel for name, tel in result.telemetry().items()
             if name in storage},
        ))
    (recs, tel), (ref_recs, ref_tel) = outputs
    mismatches = sorted(name for name in ref_tel
                        if tel.get(name) != ref_tel[name])
    if recs != ref_recs:
        mismatches.insert(0, "records")
    return ParityResult(
        scenario=f"storage-fleet-{n_regions}",
        until=until,
        records=len(recs),
        identical=not mismatches,
        mismatches=mismatches,
    )
