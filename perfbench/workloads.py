"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload is one library study run from this process:

* ``fleet-vector`` -- the chapter 6 consolidation fleet at 256 regions on
  the struct-of-arrays queueing kernel, single process, observability off;
* ``fleet-sharded`` -- the same fleet on the scalar kernel, sharded over
  two worker processes;
* ``ch5-observed`` -- the chapter 5 Experiment-1 validation slice with
  metrics and full cascade tracing on, ending once its Chrome trace and
  metrics snapshot are written;
* ``drill`` -- the degraded-mode cell (server MTBF 60 s, resilience
  policies on) writing a checkpoint every 30 simulated seconds.

:func:`execute` runs one of them once and returns an :class:`Outcome`.
The caller's :class:`Clock` is marked where set-up (scenario build and
``prepare``) ends and the run begins, so set-up and run time are
measured separately.  A reference run (``reference=True``) is the scalar,
single-process, unobserved, checkpoint-free run of the same seed; every
measured run must reproduce its :func:`digest`.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.api import (
    EngineOptions,
    ObservabilityOptions,
    ParallelOptions,
    Scenario,
    simulate,
)
from repro.parallel import sharded
from repro.reliability.failures import FailurePolicy
from repro.software.client import Client
from repro.software.placement import SingleMasterPlacement
from repro.studies.consolidation import MASTER
from repro.studies.degraded import DegradedStudy
from repro.studies.fleet import fleet_topology
from repro.validation.experiments import EXPERIMENTS, TIERS, run_experiment

WORKLOADS = ("fleet-vector", "fleet-sharded", "ch5-observed", "drill")

#: Simulated horizon of each workload (seconds).  The drill runs a
#: further ``DegradedStudy.drain_s`` past it so in-flight cascades finish.
HORIZONS: Dict[str, float] = {
    "fleet-vector": 60.0,
    "fleet-sharded": 15.0,
    "ch5-observed": 600.0,
    "drill": 1200.0,
}

FLEET_REGIONS = 256
SHARD_WORKERS = 2
DRILL_MTBF_S = 60.0
CHECKPOINT_EVERY_S = 30.0

#: Thesis Table 5.2 (Herrero-Lopez, "Large-Scale Simulator for Global
#: Data Infrastructure Optimization", MIT 2011): measured steady-state
#: tier CPU means, mu_phys, of Experiment-1, in percent.
TABLE_5_2_MU_PHYS_PCT: Dict[str, float] = {
    "app": 55.84, "db": 39.04, "fs": 40.60, "idx": 19.04}

#: The chapter 5 slice must stay this close (mean absolute percentage
#: points) to Table 5.2; the thesis's own simulator was 2.5 pp off.
CPU_ERR_LIMIT_PP = 5.0


class SetupDone(Exception):
    """Raised by :meth:`Clock.mark` to stop a set-up-only repetition."""


def host_cpu_s() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Clock:
    """Host wall and CPU time at the start, set-up/run boundary and end."""

    def __init__(self, setup_only: bool = False) -> None:
        self.setup_only = setup_only
        self.wall = [time.perf_counter()]
        self.cpu = [host_cpu_s()]

    def mark(self) -> None:
        self.wall.append(time.perf_counter())
        self.cpu.append(host_cpu_s())
        if self.setup_only:
            raise SetupDone

    def stop(self) -> None:
        self.wall.append(time.perf_counter())
        self.cpu.append(host_cpu_s())

    @property
    def setup_s(self) -> float:
        return self.wall[1] - self.wall[0]

    @property
    def run_s(self) -> float:
        return self.wall[2] - self.wall[1]

    @property
    def run_cpu_s(self) -> float:
        return self.cpu[2] - self.cpu[1]


class Spans:
    """Host seconds and call counts around calls into program layers."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - t0)
            self.calls[name] = self.calls.get(name, 0) + 1


@dataclass
class Outcome:
    """What one run produced, as the benchmark reads it afterwards."""

    records: List[Any]
    telemetry: Dict[str, Any]
    profile: Any = None  # EngineProfiler when run with profile=True
    parallel: Any = None  # ParallelReport of a sharded run
    resilience: Dict[str, int] = field(default_factory=dict)
    server_failures: int = 0
    spans_recorded: int = 0
    cpu_err_pp: float = 0.0


def digest(outcome: Outcome) -> str:
    """SHA-256 over the discrete simulated state of one run.

    Covers every agent's discrete counters and every operation record
    (times by ``float.hex``), each in a canonical order.  Busy-time
    floats and ``queue_hwm`` stay out: the sharded backend adds busy
    time in another order, and the two kernels count the queue
    high-water mark differently.
    """
    h = hashlib.sha256()
    for name in sorted(outcome.telemetry):
        t = outcome.telemetry[name]
        h.update(f"{name}|{t.arrivals}|{t.completions}|{t.drops}|"
                 f"{t.retries}|{t.timeouts}|{t.shed}\n".encode())
    rows = sorted(
        (r.start.hex(), r.end.hex(), r.operation, r.application,
         r.client_dc, r.failed, r.retries, r.abandoned)
        for r in outcome.records)
    for row in rows:
        h.update(repr(row).encode())
    return h.hexdigest()


@contextlib.contextmanager
def patched(owner: Any, attr: str,
            make: Callable[[Any], Any]) -> Iterator[None]:
    """Replace ``owner.attr`` with ``make(original)`` for the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _after_prepare(callback: Callable[[Any], None]):
    """Call ``callback(session)`` whenever ``Scenario.prepare`` returns."""
    def make(prepare):
        def wrapper(self, **kwargs):
            session = prepare(self, **kwargs)
            callback(session)
            return session
        return wrapper
    return patched(Scenario, "prepare", make)


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
class SeededFleetDemand:
    """The fleet's replication chains, with demands drawn from the seed.

    Same legs as ``repro.studies.fleet.fleet_setup`` -- a long NIC pull,
    a light CPU touch and a small SAN write, then a short think gap --
    but each server's stream is seeded from the benchmark seed and the
    server's global index, so the seed reaches the generated inputs
    while any data-center cut of the fleet still draws the same demands.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def __call__(self, session) -> None:
        sim = session.sim
        servers = []
        for dc_name, dc in session.scenario.topology.datacenters.items():
            for tier in dc.tiers.values():
                servers.extend((dc_name, s) for s in tier.servers)

        def chain(server, r: random.Random) -> None:
            def leg(now: float) -> None:
                server.process_leg(
                    now,
                    cycles=0.02 * server.cpu.frequency_hz,
                    net_bits=r.uniform(20.0, 60.0) * 1e9,
                    mem_bytes=64e6,
                    disk_bytes=r.uniform(10.0, 50.0) * 1e6,
                    on_complete=lambda t: sim.schedule(
                        t + r.uniform(0.1, 0.4), leg),
                )

            sim.schedule(r.uniform(0.0, 2.0), leg)

        for i, (dc_name, server) in enumerate(servers):
            if session.owns(dc_name):
                chain(server, random.Random(self.seed * 1_000_003 + i))


def _pinned(worker: Callable[..., None]) -> Callable[..., None]:
    """Run shard ``idx`` on the ``idx``-th CPU this process may use.

    Freshly forked workers otherwise start on their parent's CPU, and the
    guest scheduler at times leaves both shards on one vCPU for a whole
    run while the other idles, which serializes the run.  Pinning makes
    the benchmark time the sharded backend, not that placement.
    """
    def run(idx: int, *args: Any, **kwargs: Any) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[idx % len(cpus)]})
        worker(idx, *args, **kwargs)
    return run


def run_fleet(seed: int, clock: Clock, spans: Spans, *, kernel: str,
              workers: int, horizon: float, regions: int = FLEET_REGIONS,
              profile: bool = False) -> Outcome:
    """The consolidation fleet on one kernel, in one or more processes."""
    with spans.span("topology.build_s"):
        topology = fleet_topology(regions, seed=seed)
    scenario = Scenario(
        name="consolidation-fleet",
        topology=topology,
        placement=SingleMasterPlacement(MASTER, local_fs=True),
        seed=seed,
        setup=SeededFleetDemand(seed),
    )
    if workers > 1:
        # shards prepare inside their own processes, so set-up ends here
        clock.mark()
        with patched(sharded, "_shard_worker", _pinned):
            result = simulate(
                scenario, until=horizon,
                engine=EngineOptions(kernel=kernel),
                observability=ObservabilityOptions(profile=profile),
                parallel=ParallelOptions(workers=workers))
    else:
        session = scenario.prepare(kernel=kernel, profile=profile)
        clock.mark()
        result = session.run(horizon)
    clock.stop()
    return Outcome(records=result.records, telemetry=result.telemetry(),
                   profile=result.profile, parallel=result.parallel)


# ----------------------------------------------------------------------
# chapter 5 validation slice
# ----------------------------------------------------------------------
def run_ch5(seed: int, clock: Clock, spans: Spans, *, horizon: float,
            out_dir: Path, observed: bool = True,
            profile: bool = False) -> Outcome:
    """Experiment-1 of chapter 5, observed and exported unless ``observed``
    is false.

    ``run_experiment`` builds, prepares and runs its session in one call,
    so set-up is taken to end when its ``Scenario.prepare`` returns.
    """
    sessions: List[Any] = []

    def prepared(session) -> None:
        sessions.append(session)
        clock.mark()

    with _after_prepare(prepared):
        result = run_experiment(
            EXPERIMENTS[0], until=horizon, seed=seed,
            trace="full" if observed else None,
            metrics="on" if observed else None,
            profile=profile)
    session = sessions[0]
    final = session.result(horizon)
    if observed:
        with spans.span("observability.export_s"):
            final.write_chrome_trace(out_dir / "ch5-trace.json")
            final.write_metrics_snapshot(out_dir / "ch5-metrics.json")
    clock.stop()
    err = sum(abs(100.0 * result.steady_cpu_stats(tier).mean
                  - TABLE_5_2_MU_PHYS_PCT[tier]) for tier in TIERS) / len(TIERS)
    return Outcome(
        records=result.records,
        telemetry=final.telemetry(),
        profile=result.profile,
        spans_recorded=(len(final.trace) + final.trace.evicted_spans
                        if final.trace is not None else 0),
        cpu_err_pp=err,
    )


# ----------------------------------------------------------------------
# degraded-mode drill
# ----------------------------------------------------------------------
def run_drill(seed: int, clock: Clock, spans: Spans, *, horizon: float,
              out_dir: Path, checkpoints: bool = True,
              profile: bool = False) -> Outcome:
    """``DegradedStudy.run_cell(60, resilient=True)`` plus checkpoints.

    ``run_cell`` builds and runs its session in one call, so the cell is
    assembled here from the study's own topology, operation and policy
    in order to arm the checkpoint monitor on the prepared session.
    """
    study = DegradedStudy(horizon=horizon, seed=seed)
    with spans.span("topology.build_s"):
        topology = study._topology()
    operation = study._operation()
    arrivals_rng = random.Random(seed + 11)
    injectors: List[Any] = []

    def setup(session) -> None:
        sim, runner = session.sim, session.runner
        client = Client("client", "DNA", seed=1)
        sim.add_holon(client)

        def arrive(now: float) -> None:
            runner.launch(operation, client, now, application="degraded")
            nxt = now + arrivals_rng.expovariate(study.rate)
            if nxt < study.horizon:
                sim.schedule(nxt, arrive)

        sim.schedule(0.0, arrive)
        injector = session.inject_failures(FailurePolicy(
            server_mtbf_s=DRILL_MTBF_S,
            server_mttr_s=study.mttr_s,
            disk_mtbf_s=None,
            link_mtbf_s=None,
        ), until=study.horizon)
        injector.start()
        injectors.append(injector)

    scenario = Scenario(
        name="degraded",
        topology=topology,
        placement=SingleMasterPlacement("DNA"),
        seed=seed,
        setup=setup,
        resilience=study.policy,
    )
    session = scenario.prepare(dt=0.01, mode="event", profile=profile)
    if checkpoints:
        session.arm_checkpoints(CHECKPOINT_EVERY_S,
                                out_dir / "drill-checkpoint.json")
    clock.mark()
    result = session.run(horizon + study.drain_s, workloads=False)
    clock.stop()
    return Outcome(
        records=result.records,
        telemetry=result.telemetry(),
        profile=result.profile,
        resilience=result.resilience_stats(),
        server_failures=injectors[0].failures_by_kind().get("server", 0),
    )


def execute(workload: str, seed: int, clock: Clock, spans: Spans, *,
            out_dir: Path, reference: bool = False, profile: bool = False,
            horizon: Optional[float] = None,
            regions: int = FLEET_REGIONS) -> Outcome:
    """Run ``workload`` once (or its reference run) and return its outcome.

    ``horizon`` and ``regions`` default to the benchmark's sizes; the
    layer-placement tests shrink them.
    """
    if workload not in HORIZONS:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(choose one of {', '.join(WORKLOADS)})")
    until = HORIZONS[workload] if horizon is None else horizon
    if workload in ("fleet-vector", "fleet-sharded"):
        if reference:
            kernel, workers = "scalar", 1
        elif workload == "fleet-vector":
            kernel, workers = "vector", 1
        else:
            kernel, workers = "scalar", SHARD_WORKERS
        return run_fleet(seed, clock, spans, kernel=kernel, workers=workers,
                         horizon=until, regions=regions, profile=profile)
    if workload == "ch5-observed":
        return run_ch5(seed, clock, spans, horizon=until, out_dir=out_dir,
                       observed=not reference, profile=profile)
    return run_drill(seed, clock, spans, horizon=until, out_dir=out_dir,
                     checkpoints=not reference, profile=profile)
