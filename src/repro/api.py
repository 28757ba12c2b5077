"""The unified simulation facade: ``simulate(scenario, ...)``.

Every entry point — the validation experiments, the chapter 6/7 case
studies, the attack evaluation and all examples — used to hand-wire
``Simulator`` + ``CascadeRunner`` + ``Collector`` differently.  This
module folds that wiring into three pieces:

:class:`Scenario`
    What to simulate: a topology, applications, a placement policy and
    seeds.  Build one directly, from a case-study spec
    (:meth:`Scenario.from_spec`) or from a JSON document
    (:meth:`Scenario.from_json` / round-tripped by
    :meth:`Scenario.to_json` via :mod:`repro.io`).

:func:`simulate`
    One call: ``simulate(scenario, until=600,
    observability=ObservabilityOptions(trace="full"))`` runs the DES and
    returns a :class:`SimulationResult`;
    ``engine=EngineOptions(mode="fluid")`` solves the same scenario
    analytically.  Settings come in typed groups
    (:class:`EngineOptions`, :class:`ObservabilityOptions`,
    :class:`CheckpointOptions`, :class:`ParallelOptions`).

:class:`SimulationSession`
    The prepared-but-not-yet-run state (:meth:`Scenario.prepare`), for
    callers that need custom wiring (failure drills, what-if branching,
    incremental horizons) while keeping the standard registration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.engine import Simulator
from repro.core.errors import CheckpointError, ConfigurationError
from repro.core.rng import RandomStreams
from repro.metrics.collector import Collector
from repro.observability.events import EventLog
from repro.observability.metrics import MetricsRegistry, make_registry
from repro.software.application import Application
from repro.software.cascade import CascadeRunner, OperationRecord
from repro.software.placement import Placement, SingleMasterPlacement
from repro.software.workload import HOUR, OpenLoopWorkload, WorkloadCurve
from repro.topology.network import GlobalTopology

#: Engine modes accepted by :func:`simulate`; "fluid" bypasses the DES.
MODES = ("event", "adaptive", "fixed", "fluid")


@dataclass
class Collect:
    """Measurement configuration for :func:`simulate`.

    ``sample_interval`` is the canonical name for the collector cadence
    (seconds of simulated time between samples).  With ``tier_cpu``
    every data-center tier gets a ``cpu.<dc>.<tier>`` utilization probe
    automatically.
    """

    sample_interval: float = 6.0
    samples_per_snapshot: int = 1
    tier_cpu: bool = True


# ----------------------------------------------------------------------
# option groups (the canonical way to configure simulate())
# ----------------------------------------------------------------------
@dataclass
class ObservabilityOptions:
    """Everything :func:`simulate` can observe, grouped.

    ``simulate(sc, until=600, observability=ObservabilityOptions(
    collect=Collect(10.0), metrics="on"))``.  Every field observes
    without perturbing: results are bit-identical with any of them on.

    ``trace``
        Trace mode: ``None``/``"null"``, ``"full"``, ``"sampling:p"`` or
        a :class:`~repro.observability.trace.TraceRecorder`.
    ``profile``
        Time the engine's phases
        (:class:`~repro.observability.profiler.EngineProfiler`).
    ``collect``
        A :class:`Collect` config; ``None`` means no collector.
    ``metrics``
        Metrics mode: ``None``/``"null"`` (off, zero hot-path cost),
        ``"on"``/``"full"``, or a prebuilt
        :class:`~repro.observability.metrics.MetricsRegistry`.  ``None``
        falls back to the scenario's ``metrics`` field.  When on, the
        result exposes ``metrics_snapshot()`` / ``write_openmetrics()``
        / ``write_metrics_jsonl()`` and the structured event log.
    ``slo``
        SLO rules evaluated in-sim on a monitor cadence: a list of rule
        dicts / :class:`~repro.observability.slo.SLORule` objects or the
        JSON block form ``{"interval": s, "rules": [...]}``.  ``None``
        falls back to the scenario's ``slo`` field; a non-empty block
        auto-enables metrics.  Violations emit ``alert`` events and the
        verdict is ``result.slo_report()``.
    ``invariants``
        Runtime invariant checking: ``None``/``"null"`` (off, zero
        hot-path cost), ``"strict"`` (raise
        :class:`~repro.core.errors.InvariantViolation` on the first
        failed conservation law), ``"warn"`` (collect violations, emit
        ``invariant_violation`` events, finish the run), ``"full"``
        (strict plus Little's-law reconciliation and fingerprint
        stability), or a prebuilt
        :class:`~repro.verification.invariants.InvariantChecker`.
        Checks run at every monitor boundary; the verdict is
        ``result.invariant_report()``.
    """

    trace: Any = None
    profile: bool = False
    collect: Optional[Collect] = None
    metrics: Any = None
    slo: Any = None
    invariants: Any = None


@dataclass
class CheckpointOptions:
    """Crash-safety configuration for :func:`simulate`, grouped.

    ``every``
        Write a crash-recovery checkpoint every this many simulated
        seconds (requires ``path``).
    ``path``
        Where the periodic checkpoint is (atomically) overwritten.
    ``resume_from``
        Path of a checkpoint written by an earlier, interrupted run of
        the *same* scenario: the run is rebuilt, deterministically
        replayed to the checkpoint time, fingerprint-verified (raising
        :class:`~repro.core.errors.CheckpointError` on drift) and then
        continued to ``until``.  The replay takes the checkpoint's
        ``mode`` and ``dt``; an explicit ``engine=`` that disagrees
        with them raises ``CheckpointError``.
    """

    every: Optional[float] = None
    path: Optional[Union[str, Path]] = None
    resume_from: Optional[Union[str, Path]] = None


@dataclass
class ParallelOptions:
    """Sharded multi-process execution configuration.

    ``workers`` shards (one OS process each) advance in conservative
    windows bounded by the smallest cross-shard WAN latency (the
    lookahead); ``cut`` selects the partitioning axis of
    :func:`repro.parallel.partition.partition_topology`; ``window``
    optionally narrows the synchronization window below the lookahead
    (it can never exceed it).  ``workers <= 1`` falls back to the
    single-process engine.  The lookahead counts only data centers
    that can receive: when no shard registers a
    ``session.remote.on_message`` handler, nothing can cross the cut,
    and the run is one window at the horizon with no barrier (each
    worker still steps ``window``-sized local windows, where it sends
    its heartbeats).

    The supervisor knobs configure the live run supervisor
    (:mod:`repro.parallel.supervisor`): workers heartbeat every
    ``heartbeat_every`` wall seconds (0 disables the sideband); a shard
    whose sim-time watermark stops advancing for ``stall_timeout`` wall
    seconds is flagged with a ``worker_stalled`` event
    (``on_stall="event"``) or aborts the run with
    :class:`~repro.core.errors.WorkerStalled` (``on_stall="abort"``);
    ``status_path`` names a JSON status file rewritten atomically during
    the run — point ``python -m repro top <path>`` at it for a live
    per-shard progress view.
    """

    workers: int = 2
    cut: str = "region"
    window: Optional[float] = None
    heartbeat_every: float = 0.5
    stall_timeout: Optional[float] = 300.0
    on_stall: str = "event"
    status_path: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("parallel workers must be >= 1")
        if self.cut not in ("region", "holon"):
            raise ConfigurationError(
                f"unknown parallel cut {self.cut!r} "
                "(choose 'region' or 'holon')")
        if self.window is not None and self.window <= 0:
            raise ConfigurationError("parallel window must be positive")
        if self.heartbeat_every < 0:
            raise ConfigurationError(
                "parallel heartbeat_every must be >= 0 (0 disables)")
        if self.stall_timeout is not None and self.stall_timeout <= 0:
            raise ConfigurationError(
                "parallel stall_timeout must be positive (or None)")
        if self.on_stall not in ("event", "abort"):
            raise ConfigurationError(
                f"unknown parallel on_stall {self.on_stall!r} "
                "(choose 'event' or 'abort')")

    @classmethod
    def coerce(cls, value: Any) -> "ParallelOptions":
        """Accept an options object, a worker count or a JSON block."""
        if isinstance(value, cls):
            return value
        if isinstance(value, bool):
            raise ConfigurationError(
                "parallel= takes ParallelOptions, a worker count or a "
                "mapping, not a bool")
        if isinstance(value, int):
            return cls(workers=value)
        if isinstance(value, Mapping):
            known = {"workers", "cut", "window", "heartbeat_every",
                     "stall_timeout", "on_stall", "status_path"}
            unknown = set(value) - known
            if unknown:
                raise ConfigurationError(
                    f"unknown parallel option(s) {sorted(unknown)} "
                    f"(expected {sorted(known)})")
            return cls(
                workers=int(value.get("workers", 2)),
                cut=str(value.get("cut", "region")),
                window=(None if value.get("window") is None
                        else float(value["window"])),
                heartbeat_every=float(value.get("heartbeat_every", 0.5)),
                stall_timeout=(None if value.get("stall_timeout") is None
                               else float(value["stall_timeout"])),
                on_stall=str(value.get("on_stall", "event")),
                status_path=value.get("status_path"),
            )
        raise ConfigurationError(
            f"cannot interpret parallel options from {type(value).__name__}")

    def to_dict(self) -> Dict[str, Any]:
        """The scenario-JSON ``parallel:`` block (round-trips coerce)."""
        return {"workers": self.workers, "cut": self.cut,
                "window": self.window,
                "heartbeat_every": self.heartbeat_every,
                "stall_timeout": self.stall_timeout,
                "on_stall": self.on_stall,
                "status_path": (None if self.status_path is None
                                else str(self.status_path))}


#: Queueing kernels accepted by :class:`EngineOptions`.
KERNELS = ("scalar", "vector")


@dataclass
class EngineOptions:
    """Engine/stepping configuration for :func:`simulate`, grouped.

    ``kernel``
        How stations reach the engine: ``"scalar"`` registers every
        station as its own exact-event agent; ``"vector"`` keys each
        tier's FCFS and PS stations behind one engine agent
        (:mod:`repro.queueing.soa`).  The stations run the same code
        under both, so the two kernels give bit-identical records and
        telemetry (``repro verify --kernel vector`` runs the verify
        gate on the vector kernel).  ``mode="fixed"`` is scalar-only.
    ``mode``
        ``"event"`` (default) / ``"adaptive"`` / ``"fixed"`` run the
        DES; ``"fluid"`` solves the scenario analytically (no engine,
        ``until`` ignored).  ``"event"`` and ``"adaptive"`` produce
        bit-identical results; see ``docs/engine.md``.
    ``dt``
        The tick of ``mode="fixed"``; the other modes step from
        boundary to boundary and do not read it.
    """

    kernel: str = "scalar"
    mode: str = "event"
    dt: float = 0.01

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown kernel {self.kernel!r} (choose one of {KERNELS})")
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown mode {self.mode!r} (choose one of {MODES})")
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")


class RemotePort:
    """Cross data-center messaging surface for setup hooks.

    A hook that needs traffic between data centers sends it through
    ``session.remote`` instead of calling into the destination's agents
    directly, so the *same* hook works single-process and sharded:

    * ``on_message(dc_name, handler)`` registers the destination-side
      delivery (``handler(payload, now)``) — guard it with
      ``session.owns(dc_name)`` so only the owning shard handles it,
      and call it from the setup hook: a sharded run fixes its
      receivers, and so its lookahead, right after setup;
    * ``send(src_dc, dst_dc, payload, latency_s)`` delivers ``payload``
      (picklable data only) after ``latency_s`` of simulated time.

    In-process, delivery is a plain calendar entry at ``now +
    latency_s``.  Sharded, the send becomes an envelope tuple
    (:class:`repro.parallel.sharded._ShardPort`) relayed at the next
    window boundary — because every cross-shard latency is at least the
    lookahead (which bounds the window), the arrival time is identical.
    """

    def __init__(self) -> None:
        self._session: Optional["SimulationSession"] = None
        self._handlers: Dict[str, Callable[[Any, float], None]] = {}
        self.sent = 0

    def bind(self, session: "SimulationSession") -> None:
        self._session = session

    def on_message(self, dc_name: str,
                   handler: Callable[[Any, float], None]) -> None:
        self._handlers[dc_name] = handler

    @staticmethod
    def _unhandled(dst_dc: str) -> ConfigurationError:
        return ConfigurationError(
            f"no remote handler registered for data center "
            f"{dst_dc!r} (call session.remote.on_message first)")

    def _deliver(self, dst_dc: str, payload: Any, now: float) -> None:
        handler = self._handlers.get(dst_dc)
        if handler is None:
            raise self._unhandled(dst_dc)
        handler(payload, now)

    def send(self, src_dc: str, dst_dc: str, payload: Any,
             latency_s: float, now: Optional[float] = None) -> None:
        if latency_s <= 0:
            raise ConfigurationError(
                "remote sends need strictly positive latency")
        assert self._session is not None, "port used before bind()"
        t = self._session.sim.now if now is None else now
        self.sent += 1
        # deliver inside the sender's cascade context (if any), so spans
        # recorded by the handler link to the originating cascade — the
        # single-process mirror of the envelope trace context that rides
        # cross-shard sends (see repro.parallel.sharded._ShardPort)
        tracer = self._session.sim.trace
        tctx = tracer.export_context() if tracer is not None else None

        def deliver(arrival: float, p=payload, d=dst_dc) -> None:
            if tctx is None:
                self._deliver(d, p, arrival)
                return
            tracer.within(tracer.adopt_context(tctx), tctx[5],
                          self._deliver, d, p, arrival)

        self._session.sim.schedule(t + latency_s, deliver)


@dataclass
class Scenario:
    """A complete simulation input, independent of how it will be run.

    ``setup`` is an optional hook called with the prepared
    :class:`SimulationSession` before any workload starts — the place to
    wire custom launchers, failure injection or extra probes.  ``study``
    carries the chapter-study object for fluid-mode scenarios built via
    :meth:`from_spec`.
    """

    name: str = "scenario"
    topology: Optional[GlobalTopology] = None
    applications: List[Application] = field(default_factory=list)
    placement: Optional[Placement] = None
    scale: float = 1.0
    seed: int = 42
    #: Explicit cascade-runner seed; default is ``seed + 7``.
    runner_seed: Optional[int] = None
    setup: Optional[Callable[["SimulationSession"], None]] = None
    study: Any = None
    #: Workload curves per application per data center; populated by
    #: :meth:`from_document` when the document carries no operations.
    workload_curves: Dict[str, Dict[str, WorkloadCurve]] = field(
        default_factory=dict
    )
    #: Resilience configuration: anything
    #: :meth:`repro.resilience.ResilienceConfig.coerce` accepts (a
    #: config, a single policy used as the default, a mapping as read
    #: from the JSON ``resilience`` block, or ``None`` for off).
    resilience: Any = None
    #: Metrics mode: ``None``/``"null"`` (off, zero hot-path cost),
    #: ``"on"``/``"full"``, or a prebuilt
    #: :class:`~repro.observability.metrics.MetricsRegistry`.
    metrics: Any = None
    #: SLO rules: a list of rule dicts /
    #: :class:`~repro.observability.slo.SLORule` objects, or a mapping
    #: ``{"interval": seconds, "rules": [...]}`` (the JSON ``slo``
    #: block form).  A non-empty block implies ``metrics="on"``.
    slo: Any = None
    #: Default execution backend: anything
    #: :meth:`ParallelOptions.coerce` accepts (an options object, a
    #: worker count, the JSON ``parallel:`` block) or ``None`` for the
    #: single-process engine.  ``simulate(parallel=...)`` overrides it.
    parallel: Any = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str, seed: int = 42) -> "Scenario":
        """Build a named case-study scenario.

        ``"consolidation"`` is the chapter 6 consolidated platform,
        ``"multimaster"`` the chapter 7 multiple-master variant.  The
        returned scenario carries the study object (fluid solvers
        included) so ``EngineOptions(mode="fluid")`` reuses it.
        """
        if spec == "consolidation":
            from repro.studies.consolidation import MASTER, ConsolidationStudy

            study = ConsolidationStudy()
            placement: Placement = SingleMasterPlacement(MASTER, local_fs=True)
        elif spec == "multimaster":
            from repro.software.placement import MultiMasterPlacement
            from repro.studies.multimaster import TABLE_7_2, MultiMasterStudy

            study = MultiMasterStudy()
            placement = MultiMasterPlacement(TABLE_7_2)
        else:
            raise ConfigurationError(
                f"unknown scenario spec {spec!r} "
                "(expected 'consolidation' or 'multimaster')"
            )
        return cls(
            name=spec,
            topology=study.topology,
            applications=list(study.applications),
            placement=placement,
            seed=seed,
            study=study,
        )

    @classmethod
    def from_document(
        cls,
        doc: Mapping[str, Any],
        seed: Optional[int] = 42,
        name: str = "scenario",
    ) -> "Scenario":
        """Rebuild a scenario from a :mod:`repro.io` JSON document."""
        from repro.io import topology_from_document

        topology, curves = topology_from_document(doc, seed=seed)
        resilience = None
        if doc.get("resilience") is not None:
            from repro.resilience import ResilienceConfig

            resilience = ResilienceConfig.from_dict(doc["resilience"])
        return cls(
            name=name,
            topology=topology,
            seed=42 if seed is None else seed,
            workload_curves=curves,
            resilience=resilience,
            metrics=doc.get("metrics"),
            slo=doc.get("slo"),
            parallel=doc.get("parallel"),
        )

    @classmethod
    def from_json(
        cls, path: Union[str, Path], seed: Optional[int] = 42
    ) -> "Scenario":
        """Load a scenario document written by :meth:`to_json`."""
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_document(doc, seed=seed, name=Path(path).stem)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_document(self) -> Dict[str, Any]:
        """Serialize topology + workload curves via :mod:`repro.io`."""
        from repro.io import topology_to_document

        if self.topology is None:
            raise ConfigurationError("scenario has no topology to serialize")
        workloads: Dict[str, Mapping[str, WorkloadCurve]] = {
            app.name: app.workloads for app in self.applications
        }
        if not workloads:
            workloads = dict(self.workload_curves)
        doc = topology_to_document(self.topology, workloads or None)
        if self.resilience is not None:
            from repro.resilience import ResilienceConfig

            config = ResilienceConfig.coerce(self.resilience)
            if config is not None:
                doc["resilience"] = config.to_dict()
        if self.metrics:
            doc["metrics"] = (self.metrics if isinstance(self.metrics, str)
                              else "on")
        if self.slo is not None:
            doc["slo"] = _slo_to_document(self.slo)
        if self.parallel is not None:
            doc["parallel"] = ParallelOptions.coerce(self.parallel).to_dict()
        return doc

    def to_json(self, path: Union[str, Path]) -> None:
        """Write the scenario document as JSON (round-trips from_json)."""
        Path(path).write_text(
            json.dumps(self.to_document(), indent=2, sort_keys=True)
        )

    # ------------------------------------------------------------------
    def prepare(
        self,
        *,
        dt: float = 0.01,
        mode: str = "event",
        kernel: str = "scalar",
        trace: Any = None,
        profile: bool = False,
        collect: Optional[Collect] = None,
        resilience: Any = None,
        metrics: Any = None,
        slo: Any = None,
        invariants: Any = None,
        shard: Optional[Tuple[str, ...]] = None,
        remote: Optional[RemotePort] = None,
    ) -> "SimulationSession":
        """Build the engine, register the topology and wire the runner."""
        return SimulationSession(
            self, dt=dt, mode=mode, kernel=kernel, trace=trace,
            profile=profile, collect=collect, resilience=resilience,
            metrics=metrics, slo=slo, invariants=invariants, shard=shard,
            remote=remote,
        )


def _slo_to_document(slo: Any) -> Any:
    """Serialize an slo block back to its JSON form."""
    def rule_doc(rule: Any) -> Any:
        return rule.to_dict() if hasattr(rule, "to_dict") else dict(rule)

    if isinstance(slo, Mapping) and "rules" in slo:
        out = dict(slo)
        out["rules"] = [rule_doc(r) for r in slo["rules"]]
        return out
    return [rule_doc(r) for r in slo]


def _parse_slo_spec(slo: Any) -> Tuple[List[Any], float]:
    """Normalize an slo block into (rules, check interval seconds)."""
    from repro.observability.slo import parse_slo_block

    if slo is None:
        return [], 6.0
    if isinstance(slo, Mapping) and "rules" in slo:
        return (parse_slo_block(slo["rules"]),
                float(slo.get("interval", 6.0)))
    return parse_slo_block(slo), 6.0


class SimulationSession:
    """A prepared simulation: engine + runner + collector, not yet run.

    Registration order is fixed and deterministic: every data center
    holon (topology insertion order), then primary WAN links, then
    secondary links.  The cascade runner is seeded ``scenario.seed + 7``
    and open-loop workloads ``scenario.seed + 100 + i`` so repeated
    runs of one scenario are reproducible.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        dt: float = 0.01,
        mode: str = "event",
        kernel: str = "scalar",
        trace: Any = None,
        profile: bool = False,
        collect: Optional[Collect] = None,
        resilience: Any = None,
        metrics: Any = None,
        slo: Any = None,
        invariants: Any = None,
        shard: Optional[Tuple[str, ...]] = None,
        remote: Optional[RemotePort] = None,
    ) -> None:
        if scenario.topology is None:
            raise ConfigurationError("scenario has no topology")
        if mode not in ("event", "adaptive", "fixed"):
            raise ConfigurationError(
                f"engine mode must be 'event', 'adaptive' or 'fixed', "
                f"got {mode!r}"
            )
        if kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown kernel {kernel!r} (choose one of {KERNELS})")
        if kernel == "vector" and mode == "fixed":
            raise ConfigurationError(
                "the vector kernel requires exact-event stepping; use "
                "mode 'event' or 'adaptive' (or the scalar kernel)")
        self.scenario = scenario
        # sharded execution: the session registers (and therefore
        # simulates) only its own data centers; every other agent of the
        # full topology stays pristine.  Setup hooks must gate their
        # work with ``self.owns(dc_name)``.
        self._owned: Optional[frozenset] = (
            None if shard is None else frozenset(shard))
        if self._owned is not None:
            unknown = self._owned - set(scenario.topology.datacenters)
            if unknown:
                raise ConfigurationError(
                    f"shard names unknown data centers: {sorted(unknown)}")
        # metrics + SLO: explicit arguments override the scenario block;
        # a non-empty SLO block needs a registry to evaluate against,
        # so it auto-enables metrics
        metrics_spec = metrics if metrics is not None else scenario.metrics
        slo_spec = slo if slo is not None else scenario.slo
        self.slo_rules, self.slo_interval = _parse_slo_spec(slo_spec)
        registry = make_registry(metrics_spec)
        if self.slo_rules and registry is None:
            registry = MetricsRegistry()
        self.metrics: Optional[MetricsRegistry] = registry
        self.events: Optional[EventLog] = (
            EventLog() if registry is not None else None
        )
        self.sim = Simulator(dt=dt, mode=mode, trace=trace, profile=profile,
                             metrics=registry, invariants=invariants)
        self.invariants = self.sim.invariants
        if self.invariants is not None:
            # violations surface through the structured event log (when
            # metered) and the checker can recompute session fingerprints
            if self.events is not None:
                self.invariants.attach_events(self.events)
            self.invariants.attach_session(self)
        self.streams = RandomStreams(scenario.seed)
        topo = scenario.topology
        owned_agents: List[Any] = []
        if kernel == "vector":
            from repro.queueing.soa import vectorize_agents
        for name, dc in topo.datacenters.items():
            if self.owns(name):
                if kernel == "vector":
                    # one bank per DC infrastructure group and per tier
                    # (= child holon): homogeneous stations advance
                    # behind one engine driver
                    vectorize_agents(
                        self.sim, dc.local_agents, name=f"{name}.infra")
                    for child in dc.children:
                        vectorize_agents(
                            self.sim, list(child.agents()), name=child.name)
                else:
                    self.sim.add_holon(dc)
                owned_agents.extend(dc.agents())
        # a cross-shard WAN link is simulated by the shard owning its
        # first (sorted) endpoint — exactly one shard, deterministically
        wan_links: List[Any] = []
        for links in (topo.links, topo._secondary):
            for key, link in links.items():
                if self.owns(key[0]):
                    wan_links.append(link)
                    owned_agents.append(link)
        if kernel == "vector":
            vectorize_agents(self.sim, wan_links, name="wan")
        else:
            for link in wan_links:
                self.sim.add_agent(link)
        #: The topology agents this session registered (== the full
        #: ``topology.all_agents()`` when unsharded) — the exact set the
        #: telemetry merge covers, each agent owned by one shard.
        self.topology_agents: List[Any] = owned_agents
        self.remote = remote if remote is not None else RemotePort()
        self.remote.bind(self)
        placement = scenario.placement
        if placement is None:
            placement = SingleMasterPlacement(next(iter(topo.datacenters)))
        self.placement = placement
        runner_seed = scenario.runner_seed
        if runner_seed is None:
            runner_seed = scenario.seed + 7
        self.runner = CascadeRunner(
            topo, placement, seed=runner_seed, tracer=self.sim.trace,
            metrics=registry,
        )
        if registry is not None:
            # hardware gauges, refreshed on demand before every export /
            # SLO evaluation.  Reads only pure state (queue_length,
            # lifetime busy_time) — never ``Agent.sample``, whose window
            # reset would perturb the collector's series
            sim_ref = self.sim

            def _hardware_gauges(reg: MetricsRegistry) -> None:
                now = sim_ref.now
                for agent in owned_agents:
                    reg.gauge("agent_queue_depth", agent=agent.name).set(
                        float(agent.queue_length()))
                    cap = agent.capacity()
                    if now > 0.0 and cap > 0.0:
                        reg.gauge("agent_utilization",
                                  agent=agent.name).set(
                            min(agent._busy_seconds() / (now * cap), 1.0))

            registry.add_collect_hook(_hardware_gauges)
        self.collector: Optional[Collector] = None
        self.workloads: List[OpenLoopWorkload] = []
        self._workloads_started = False
        self._collect_cfg = collect
        self._dt = dt
        self._mode = mode
        self._kernel = kernel
        self._until: Optional[float] = None
        self._checkpoint_every: Optional[float] = None
        self._checkpoint_path: Optional[str] = None
        # resilience: arm the runner + health monitor before the setup
        # hook so custom launchers see the final wiring
        self.resilience = None
        self.resilience_state = None
        self.health_monitor = None
        config = resilience if resilience is not None else scenario.resilience
        if config is not None:
            from repro.resilience import HealthMonitor, ResilienceConfig

            config = ResilienceConfig.coerce(config)
            if config is not None and config.enabled:
                self.resilience = config
                self.resilience_state = self.runner.arm_resilience(
                    config,
                    self.sim.schedule,
                    rng=self.streams.stream("resilience.jitter"),
                )
                self.health_monitor = HealthMonitor(
                    self.sim,
                    topo,
                    self.resilience_state,
                    interval_s=config.health_check_interval_s,
                    policy=config.default,
                )
                self.health_monitor.start()
        if self.resilience_state is not None and registry is not None:
            self.resilience_state.attach_metrics(registry, self.events)
        if scenario.setup is not None:
            scenario.setup(self)
        if collect is not None and self.collector is None:
            self.collect(
                sample_interval=collect.sample_interval,
                samples_per_snapshot=collect.samples_per_snapshot,
                tier_cpu=collect.tier_cpu,
            )
        # SLO checker rides an engine monitor; monitors observe but never
        # perturb, so rules cannot change simulation results
        self.slo_checker = None
        if self.slo_rules:
            from repro.observability.slo import SLOChecker

            self.slo_checker = SLOChecker(
                self.slo_rules, registry, self.events)
            self.sim.add_monitor(self.slo_interval, self.slo_checker.check)

    # ------------------------------------------------------------------
    def owns(self, dc_name: str) -> bool:
        """Does this session simulate ``dc_name``?

        Always true single-process; in a sharded worker only the shard's
        own data centers are registered.  Setup hooks use this to drive
        (and probe) only local agents.
        """
        return self._owned is None or dc_name in self._owned

    @property
    def shard(self) -> Optional[Tuple[str, ...]]:
        """The owned data-center names, or ``None`` when unsharded."""
        return None if self._owned is None else tuple(sorted(self._owned))

    def progress(self) -> Dict[str, Any]:
        """A live progress snapshot of this session's engine.

        The single-process counterpart of the sharded run supervisor's
        status document (:meth:`repro.parallel.supervisor.RunSupervisor.
        progress`): current sim time, completed records, calendar
        backlog and RSS.  Cheap enough to call from a monitor.
        """
        from repro.parallel.supervisor import rss_kb

        return {
            "scenario": self.scenario.name,
            "watermark": self.sim.now,
            "records": len(self.runner.records),
            "pending": self.sim.pending_events(),
            "rss_kb": rss_kb(),
        }

    def collect(
        self,
        sample_interval: float = 6.0,
        samples_per_snapshot: int = 1,
        tier_cpu: bool = True,
    ) -> Collector:
        """Create (once) the measurement collector for this session."""
        if self.collector is not None:
            return self.collector
        self.collector = Collector(
            self.sim,
            sample_interval=sample_interval,
            samples_per_snapshot=samples_per_snapshot,
        )
        if tier_cpu:
            for dc_name, dc in self.scenario.topology.datacenters.items():
                if not self.owns(dc_name):
                    continue
                for tier in dc.tiers.values():
                    self.collector.add_probe(
                        f"cpu.{dc_name}.{tier.kind}",
                        (lambda t: lambda now: t.cpu_utilization(now))(tier),
                    )
        return self.collector

    def _shard_locality_check(self, client_dc: str) -> None:
        """Refuse workloads whose cascades would leave this shard.

        A cascade in flight is a request object whose messages hold
        this process's agents and jobs, so it cannot cross a process
        boundary: a sharded run requires every (client DC → placement
        target) edge to stay inside one shard.  The placement
        decomposition is static, so this is checked up front rather
        than failing mid-run on an unregistered agent.
        """
        targets = set()
        for _, assignment in self.placement.weights(client_dc):
            targets.update(assignment.values())
        foreign = {t for t in targets if not self.owns(t)}
        if foreign:
            raise ConfigurationError(
                f"workload at {client_dc!r} cascades into "
                f"{sorted(foreign)} outside its shard "
                f"{sorted(self._owned or ())}: choose a cut that "
                "co-locates clients with their placement targets, or "
                "route cross-shard traffic through session.remote")

    def _start_workloads(self, until: float) -> None:
        """Wire one open-loop workload per (application, client DC).

        The per-workload seed is derived from the workload's *global*
        index, so a sharded session (which skips foreign client DCs)
        drives its own workloads with exactly the seeds the
        single-process run would use.
        """
        i = 0
        for app in self.scenario.applications:
            for dc_name, curve in app.workloads.items():
                if max(curve.hourly) <= 0:
                    continue
                if not self.owns(dc_name):
                    i += 1
                    continue
                if self._owned is not None:
                    self._shard_locality_check(dc_name)
                wl = OpenLoopWorkload(
                    self.sim,
                    self.runner,
                    dc_name,
                    curve,
                    app.mix,
                    app.operations,
                    ops_per_client_hour=app.ops_per_client_hour,
                    application=app.name,
                    scale=self.scenario.scale,
                    seed=self.scenario.seed + 100 + i,
                )
                wl.start(until)
                self.workloads.append(wl)
                i += 1

    def inject_failures(self, policy=None, **kwargs):
        """Create a :class:`FailureInjector` seeded from this run's seed.

        The injector draws from the named ``"failures"`` substream, so
        failure times are reproducible per scenario seed and cannot
        perturb workload or jitter draws.  Call ``.start()`` on the
        returned injector to arm it (typically from a ``setup`` hook).
        """
        from repro.reliability.failures import FailureInjector, FailurePolicy

        if policy is None:
            policy = FailurePolicy()
        kwargs.pop("rng", None)
        kwargs.pop("seed", None)
        return FailureInjector(
            self.sim,
            self.scenario.topology,
            policy,
            rng=self.streams.stream("failures"),
            **kwargs,
        )

    def resilience_stats(self) -> Dict[str, int]:
        """Aggregate resilience counters (empty when not armed)."""
        return self.runner.resilience_stats()

    # ------------------------------------------------------------------
    # crash safety
    # ------------------------------------------------------------------
    def checkpoint(self, path: Union[str, Path]) -> None:
        """Write a crash-recovery checkpoint of the current state.

        The file stores the rebuild parameters plus a state fingerprint
        (see :mod:`repro.core.checkpoint`); :func:`simulate` with
        ``CheckpointOptions(resume_from=)`` replays the same scenario to
        this time, checks the fingerprint and continues.
        """
        from repro.core.checkpoint import write_checkpoint

        write_checkpoint(path, self, {
            "scenario": {
                "name": self.scenario.name,
                "seed": self.scenario.seed,
                "runner_seed": self.scenario.runner_seed,
            },
            "dt": self._dt,
            "mode": self._mode,
            "kernel": self._kernel,
            "until": self._until,
            "checkpoint_every": self._checkpoint_every,
            "metrics": "on" if self.metrics is not None else None,
        })
        if self.events is not None:
            self.events.emit("checkpoint", self.sim.now, path=str(path))

    def arm_checkpoints(
        self, every: float, path: Union[str, Path]
    ) -> None:
        """Periodically overwrite ``path`` with a fresh checkpoint.

        The checkpoint monitor participates in adaptive step selection,
        so a resumed run re-arms the same cadence to replay the exact
        step sequence (handled automatically by
        ``CheckpointOptions(resume_from=)``).
        """
        if every <= 0:
            raise ConfigurationError("checkpoint interval must be positive")
        self._checkpoint_every = every
        self._checkpoint_path = str(path)
        self.sim.add_monitor(
            every,
            lambda now: self.checkpoint(self._checkpoint_path),
            first_due=self.sim.now + every,
        )

    def _drive_workloads(self, until: float) -> None:
        """Start the standard workloads, or carry their arrivals on to a
        later ``until`` exactly as a fresh run to it would draw them."""
        if not self._workloads_started:
            self._workloads_started = True
            self._start_workloads(until)
            return
        for wl in self.workloads:
            wl.extend(until)

    def run(self, until: float, workloads: bool = True) -> "SimulationResult":
        """Run to ``until``; standard workloads start on the first call
        and later calls extend their arrivals to the new horizon."""
        if self._until is None:
            self._until = until
        if workloads:
            self._drive_workloads(until)
        if self.events is not None:
            self.events.emit("run_start", self.sim.now, until=until,
                             mode=self._mode, scenario=self.scenario.name)
        self.sim.run(until)
        if self.events is not None:
            self.events.emit("run_end", self.sim.now,
                             records=len(self.runner.records))
        return self.result(until)

    def result(self, until: Optional[float] = None) -> "SimulationResult":
        return SimulationResult(
            scenario=self.scenario,
            mode=self.sim.mode,
            until=until if until is not None else self.sim.now,
            records=list(self.runner.records),
            trace=self.sim.trace,
            profile=self.sim.profiler,
            collector=self.collector,
            session=self,
            study=self.scenario.study,
            metrics=self.metrics,
            events=self.events,
            slo=self.slo_checker,
            invariants=self.invariants,
        )


@dataclass
class SimulationResult:
    """What a simulation produced: records, metrics, traces, reports."""

    scenario: Scenario
    mode: str
    until: Optional[float]
    records: List[OperationRecord] = field(default_factory=list)
    trace: Any = None
    profile: Any = None
    collector: Optional[Collector] = None
    session: Optional[SimulationSession] = None
    study: Any = None
    fluid: Any = None
    metrics: Optional[MetricsRegistry] = None
    events: Optional[EventLog] = None
    slo: Any = None
    invariants: Any = None
    #: Sharded-run report (:class:`repro.parallel.sharded.ParallelReport`)
    #: — ``None`` for single-process runs.
    parallel: Any = None
    #: Per-agent telemetry merged across shards; single-process results
    #: leave this unset and read live agents instead.
    merged_telemetry: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # verification accessors
    # ------------------------------------------------------------------
    def invariant_report(self) -> Optional[Dict[str, Any]]:
        """Summary of the runtime invariant checks (``None`` when off)."""
        return None if self.invariants is None else self.invariants.report()

    # ------------------------------------------------------------------
    # metrics accessors
    # ------------------------------------------------------------------
    def response_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-operation completed-count / mean / max response times."""
        out: Dict[str, Dict[str, float]] = {}
        for rec in self.records:
            if rec.failed:
                continue
            row = out.setdefault(
                rec.operation, {"n": 0.0, "mean": 0.0, "max": 0.0}
            )
            row["n"] += 1
            row["mean"] += rec.response_time
            row["max"] = max(row["max"], rec.response_time)
        for row in out.values():
            row["mean"] /= row["n"]
        return out

    def series(self, name: str) -> List[Tuple[float, float]]:
        """A collector probe's (time, value) series."""
        if self.collector is None:
            raise ConfigurationError(
                "no collector was configured (pass "
                "ObservabilityOptions(collect=Collect(...)))"
            )
        return self.collector.series(name)

    def telemetry(self) -> Dict[str, Any]:
        """Per-agent telemetry across the whole registered topology."""
        if self.merged_telemetry is not None:
            return dict(self.merged_telemetry)
        topo = self.scenario.topology
        out: Dict[str, Any] = {}
        if topo is not None:
            for agent in topo.all_agents():
                out[agent.name] = agent.telemetry()
        return out

    def resilience_stats(self) -> Dict[str, int]:
        """Aggregate resilience counters (retries, timeouts, shed...)."""
        if self.session is None:
            return {}
        return self.session.resilience_stats()

    # ------------------------------------------------------------------
    # metrics-registry accessors
    # ------------------------------------------------------------------
    def _require_metrics(self) -> MetricsRegistry:
        if self.metrics is None:
            raise ConfigurationError(
                "metrics were disabled (pass ObservabilityOptions("
                "metrics='on') or add an slo block to the scenario)"
            )
        return self.metrics

    def _metrics_meta(self, meta: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        base: Dict[str, Any] = {
            "scenario": self.scenario.name,
            "mode": self.mode,
            "seed": self.scenario.seed,
            "until": self.until,
        }
        base.update(meta or {})
        return base

    def metrics_snapshot(
        self, meta: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """JSON-ready snapshot of every counter/gauge/histogram."""
        return self._require_metrics().snapshot(self._metrics_meta(meta))

    def write_metrics_snapshot(
        self, path: Union[str, Path], meta: Optional[Dict[str, Any]] = None
    ) -> None:
        """Write the snapshot JSON consumed by ``python -m repro compare``."""
        self._require_metrics().write_snapshot(
            str(path), self._metrics_meta(meta))

    def write_metrics_jsonl(
        self, path: Union[str, Path], meta: Optional[Dict[str, Any]] = None
    ) -> None:
        """Write one JSON object per metric (streaming-pipeline form)."""
        self._require_metrics().write_jsonl(
            str(path), self._metrics_meta(meta))

    def write_openmetrics(self, path: Union[str, Path]) -> None:
        """Write the OpenMetrics/Prometheus text exposition."""
        self._require_metrics().write_openmetrics(str(path))

    def write_event_log(self, path: Union[str, Path]) -> None:
        """Write the structured event log (JSONL, sim+wall stamps)."""
        self._require_metrics()
        self.events.write_jsonl(str(path))

    def slo_report(self) -> Any:
        """End-of-run SLO pass/fail report, ``None`` without rules."""
        return None if self.slo is None else self.slo.report()

    # ------------------------------------------------------------------
    # trace accessors
    # ------------------------------------------------------------------
    def spans(self) -> List[Any]:
        return [] if self.trace is None else self.trace.spans()

    def cascades(self) -> List[Any]:
        return [] if self.trace is None else self.trace.cascades()

    def write_chrome_trace(self, path: Union[str, Path]) -> int:
        """Export the trace for ``chrome://tracing``; returns #events.

        With tracing disabled (or nothing recorded) this writes a valid,
        empty Chrome-trace document rather than failing, so export
        pipelines are safe to run unconditionally.  A merged sharded
        trace exports with one ``pid`` lane per shard and flow events
        on cross-shard hops.  The file is written from the recorder's
        span rows; no ``Span`` list is built.
        """
        from repro.observability.exporters import write_chrome_trace

        return write_chrome_trace(
            str(path), [] if self.trace is None else self.trace.rows(),
            self.cascades(),
            shard_labels=getattr(self.trace, "shard_labels", None),
            flows=getattr(self.trace, "flows", None) or ())

    def waterfall(self, operation: Optional[str] = None) -> str:
        """Mean per-agent latency waterfall from the recorded spans."""
        from repro.observability.exporters import (
            format_waterfall,
            spans_waterfall_rows,
        )

        rows = spans_waterfall_rows(self.spans(), self.cascades(), operation)
        title = operation or "all operations"
        return format_waterfall(f"{self.scenario.name}: {title}", rows)


def simulate(
    scenario: Union[Scenario, str],
    *,
    until: Optional[float] = None,
    seed: Optional[int] = None,
    workloads: bool = True,
    resilience: Any = None,
    engine: Optional[EngineOptions] = None,
    observability: Optional[ObservabilityOptions] = None,
    checkpoint: Optional[CheckpointOptions] = None,
    parallel: Any = None,
) -> SimulationResult:
    """Run one scenario end to end and return its results.

    Related settings come in typed option groups; a missing group means
    its defaults::

        simulate(sc, until=600,
                 engine=EngineOptions(kernel="vector"),
                 observability=ObservabilityOptions(collect=Collect(10.0),
                                                    metrics="on"),
                 checkpoint=CheckpointOptions(every=60.0, path="ck.json"),
                 parallel=ParallelOptions(workers=4, cut="region"))

    Parameters
    ----------
    scenario:
        A :class:`Scenario` or a spec name (``"consolidation"``,
        ``"multimaster"``) resolved via :meth:`Scenario.from_spec`.
    until:
        Simulated horizon in seconds (required unless the engine mode
        is ``"fluid"`` or the run resumes from a checkpoint that
        records one).
    seed:
        Overrides the scenario's seed; every random substream of the
        run (workloads, runner, failures, jitter) fans out from it via
        :class:`~repro.core.rng.RandomStreams` — same seed, same
        collector series.
    workloads:
        Start the standard open-loop workloads (disable when a
        ``setup`` hook drives all traffic itself).
    resilience:
        Timeout/retry/breaker/shedding policy: a
        :class:`~repro.resilience.ResilienceConfig`, a single
        :class:`~repro.resilience.ResiliencePolicy` used as the default
        for every hop, or a mapping (the scenario-JSON block form).
        ``None`` falls back to the scenario's ``resilience`` field.
    engine:
        An :class:`EngineOptions`: queueing kernel, stepping mode, dt.
    observability:
        An :class:`ObservabilityOptions`: trace, profile, collector,
        metrics, SLO rules and invariant checking.
    checkpoint:
        A :class:`CheckpointOptions`: periodic checkpoints and resume.
    parallel:
        Sharded multi-process execution: a :class:`ParallelOptions`, a
        worker count, or the scenario-JSON ``parallel:`` block form.
        ``None`` falls back to the scenario's ``parallel`` field; a
        resolved ``workers > 1`` partitions the topology
        (:func:`repro.parallel.partition.partition_topology`), runs one
        engine per shard in its own OS process synchronized in
        conservative lookahead windows, and returns a merged result
        (records, series, telemetry, metrics, trace, profile)
        equivalent to the single-process run — see ``docs/parallel.md``.
        Tracing and profiling work sharded: each worker records its own
        spans/phase timings and the result carries the merged trace
        (one ``pid`` lane per shard in the Chrome export, flow events
        on cross-shard hops) and merged profile (engine phases plus the
        backend's ``window_advance`` / ``envelope_exchange`` /
        ``barrier_wait``).  Checkpoint/resume and the invariant checker
        remain single-process-only for now.
    """
    if isinstance(scenario, str):
        scenario = Scenario.from_spec(scenario)
    if seed is not None:
        import dataclasses

        scenario = dataclasses.replace(scenario, seed=seed)
    eng = engine if engine is not None else EngineOptions()
    if eng.mode == "fluid":
        return _simulate_fluid(scenario)
    obs = observability if observability is not None \
        else ObservabilityOptions()
    ckpt = checkpoint if checkpoint is not None else CheckpointOptions()
    if until is None and ckpt.resume_from is None:
        raise ConfigurationError("simulate() needs until= for DES modes")
    if ckpt.every is not None and ckpt.path is None:
        raise ConfigurationError(
            "CheckpointOptions.every needs CheckpointOptions.path")
    writes = ckpt.every is not None or ckpt.path is not None
    par_spec = parallel if parallel is not None else scenario.parallel
    if par_spec is not None:
        popts = ParallelOptions.coerce(par_spec)
        # the guards apply at workers=1 too: asking for the parallel
        # backend is a backend choice, and its single-shard fallback
        # (the baseline cell of every scaling sweep) must behave
        # exactly like the sharded runs it is compared against
        if writes:
            raise ConfigurationError(
                "parallel execution does not write checkpoints yet "
                "(per-shard snapshots need a coordinated barrier "
                "cut; tracked in ROADMAP.md under 'Checkpoint/"
                "resume under parallel='). Run single-process with "
                "CheckpointOptions(every=, path=) for crash safety, "
                "or drop the checkpoint options")
        if ckpt.resume_from is not None:
            raise ConfigurationError(
                "parallel execution cannot resume from a checkpoint "
                "yet (tracked in ROADMAP.md under 'Checkpoint/resume "
                "under parallel='). Resume single-process with "
                "CheckpointOptions(resume_from=), or re-run sharded "
                "from t=0")
        if obs.invariants is not None:
            raise ConfigurationError(
                "parallel execution cannot attach the invariant "
                "checker yet: it recomputes whole-session "
                "fingerprints, which would need cross-shard "
                "aggregation at every monitor boundary (tracked in "
                "ROADMAP.md under 'Invariant checking under "
                "parallel='). Run single-process with "
                "ObservabilityOptions(invariants=) to verify, or use "
                "`repro verify --parity` which cross-checks sharded "
                "against single-process output")
        from repro.parallel.sharded import run_sharded

        return run_sharded(
            scenario, until=until, options=popts, engine=eng,
            observability=obs, workloads=workloads, resilience=resilience,
        )
    if ckpt.resume_from is not None:
        return _resume(scenario, ckpt, until=until, engine=engine,
                       observability=obs, workloads=workloads,
                       resilience=resilience)
    session = scenario.prepare(
        dt=eng.dt, mode=eng.mode, kernel=eng.kernel, trace=obs.trace,
        profile=obs.profile, collect=obs.collect, resilience=resilience,
        metrics=obs.metrics, slo=obs.slo, invariants=obs.invariants,
    )
    if ckpt.every is not None:
        session._until = until
        session.arm_checkpoints(ckpt.every, ckpt.path)
    return session.run(until, workloads=workloads)


def _resume(
    scenario: Scenario,
    ckpt: CheckpointOptions,
    *,
    until: Optional[float],
    engine: Optional[EngineOptions],
    observability: ObservabilityOptions,
    workloads: bool,
    resilience: Any,
) -> SimulationResult:
    """Rebuild, replay to the checkpoint time, verify, continue.

    The replay runs in the checkpoint's kernel, mode and dt; ``engine``
    (when given) must agree with them.
    """
    from repro.core.checkpoint import read_checkpoint, state_fingerprint

    resume_from = ckpt.resume_from
    doc = read_checkpoint(resume_from)
    meta = doc.get("scenario", {})
    if meta.get("name") != scenario.name or meta.get("seed") != scenario.seed:
        raise CheckpointError(
            f"checkpoint is for scenario {meta.get('name')!r} "
            f"(seed {meta.get('seed')!r}), not {scenario.name!r} "
            f"(seed {scenario.seed!r})"
        )
    if engine is not None and (engine.kernel, engine.mode, engine.dt) != (
            doc["kernel"], doc["mode"], doc["dt"]):
        raise CheckpointError(
            f"checkpoint was written in kernel={doc['kernel']!r} "
            f"mode={doc['mode']!r} dt={doc['dt']!r}, not EngineOptions("
            f"kernel={engine.kernel!r}, mode={engine.mode!r}, "
            f"dt={engine.dt!r}); omit engine= to resume in the "
            "checkpoint's")
    t_checkpoint = doc["time"]
    if until is None:
        until = doc.get("until")
    if until is None:
        raise CheckpointError(
            "checkpoint records no horizon; pass until= explicitly"
        )
    if until < t_checkpoint:
        raise CheckpointError(
            f"cannot resume to t={until} before the checkpoint "
            f"time t={t_checkpoint}"
        )
    obs = observability
    # a metered run fingerprints its registry; the replay must meter
    # too or verification would (correctly) refuse to continue
    metrics = obs.metrics if obs.metrics is not None else doc.get("metrics")
    session = scenario.prepare(
        dt=doc["dt"], mode=doc["mode"], kernel=doc["kernel"],
        trace=obs.trace, profile=obs.profile, collect=obs.collect,
        resilience=resilience, metrics=metrics, slo=obs.slo,
        invariants=obs.invariants,
    )
    session._until = until
    every = ckpt.every if ckpt.every is not None \
        else doc.get("checkpoint_every")
    if every is not None:
        # re-arm the original cadence: the checkpoint monitor takes part
        # in adaptive step selection, so replay needs it to reproduce
        # the interrupted run's exact step sequence
        session.arm_checkpoints(
            every, ckpt.path if ckpt.path is not None else resume_from)
    # the arrivals draw up to their horizon, so the replay uses the
    # horizon the checkpoint was written under
    replay_until = doc.get("until")
    if replay_until is None:
        replay_until = until
    if workloads:
        session._drive_workloads(replay_until)
    session.sim.run(t_checkpoint)
    fingerprint = state_fingerprint(session)
    if fingerprint["hash"] != doc["fingerprint"]["hash"]:
        raise CheckpointError(
            "replayed state does not match the checkpoint fingerprint "
            "(scenario, configuration or code drifted since it was "
            "written); refusing to continue from a diverged state"
        )
    if session.events is not None:
        session.events.emit("resume", session.sim.now,
                            checkpoint=str(resume_from),
                            fingerprint=fingerprint["hash"])
    if workloads:
        session._drive_workloads(until)
    session.sim.run(until)
    return session.result(until)


def _simulate_fluid(scenario: Scenario) -> SimulationResult:
    """Solve the scenario analytically (chapter 6/7 pipeline)."""
    from repro.fluid.solver import FluidSolver

    study = scenario.study
    if study is not None and getattr(study, "fluid", None) is not None:
        solver = study.fluid
    else:
        if scenario.topology is None or not scenario.applications:
            raise ConfigurationError(
                "fluid mode needs a topology and applications"
            )
        placement = scenario.placement
        if placement is None:
            placement = SingleMasterPlacement(
                next(iter(scenario.topology.datacenters))
            )
        solver = FluidSolver(
            scenario.topology, scenario.applications, placement
        )
    return SimulationResult(
        scenario=scenario,
        mode="fluid",
        until=None,
        study=study,
        fluid=solver,
    )


def fluid_waterfall(
    result: SimulationResult,
    app_name: str,
    op_name: str,
    client_dc: str,
    hour: float = 15.0,
) -> str:
    """Latency waterfall of one operation from a fluid-mode result.

    The rendered total equals ``FluidSolver.response_time`` for the same
    (operation, client DC, instant) exactly — the waterfall *is* the
    response-time pipeline, decomposed.
    """
    from repro.observability.exporters import format_waterfall, resource_label

    if result.fluid is None:
        raise ConfigurationError("result has no fluid solver")
    app = next(
        a for a in result.scenario.applications if a.name == app_name
    )
    decomp = result.fluid.response_decomposition(
        app, op_name, client_dc, hour * HOUR
    )
    rows = [(resource_label(k), v) for k, v in decomp.rows()]
    return format_waterfall(
        f"{op_name} from {client_dc} @ {hour:04.1f}h",
        rows,
        latency=decomp.latency,
    )
