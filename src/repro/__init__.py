"""GDISim — a Global Data Infrastructure Simulator.

Reproduction of Herrero-López, *Large-Scale Simulator for Global Data
Infrastructure Optimization* (MIT, 2011; CLUSTER 2011).  The library
simulates globally distributed IT infrastructures: hardware components
are queueing-network agents composed into server / tier / data-center
holons; enterprise software is modeled as message cascades carrying
``R = (Rp, Rt, Rm, Rd)`` resource arrays; background synchronization,
replication and indexing jobs run concurrently with client workloads.

Quickstart::

    from repro import ObservabilityOptions, Scenario, simulate

    result = simulate(Scenario.from_spec("consolidation"), until=600.0,
                      observability=ObservabilityOptions(trace="full"))
    print(result.response_stats())
    result.write_chrome_trace("trace.json")

``simulate()`` wraps engine construction, topology registration,
workload wiring, cascade tracing and measurement collection, configured
through the option groups ``EngineOptions``, ``ObservabilityOptions``,
``CheckpointOptions`` and ``ParallelOptions``; see
:mod:`repro.api` for the pieces and :mod:`repro.observability` for
traces, per-agent telemetry and engine profiling.

See ``examples/`` for full scenarios and ``benchmarks/`` for the
regeneration of every table and figure of the thesis's evaluation.
"""

from repro.core import Simulator, Job, Agent, Holon
from repro.topology import (
    GlobalTopology,
    DataCenter,
    Tier,
    Server,
    DataCenterSpec,
    TierSpec,
    SANSpec,
    RAIDSpec,
    LinkSpec,
)
from repro.software import (
    R,
    MessageSpec,
    Operation,
    Application,
    Client,
    CascadeRunner,
    CanonicalCostModel,
    SingleMasterPlacement,
    MultiMasterPlacement,
    WorkloadCurve,
    OperationMix,
    OpenLoopWorkload,
    SeriesLauncher,
)
from repro.fluid import FluidSolver, BackgroundSolver
from repro.reliability import AvailabilityMonitor, FailureInjector, FailurePolicy
from repro.resilience import ResilienceConfig, ResiliencePolicy
from repro.metrics import Collector, rmse, steady_state_stats
from repro.api import (
    CheckpointOptions,
    Collect,
    EngineOptions,
    ObservabilityOptions,
    ParallelOptions,
    Scenario,
    SimulationResult,
    SimulationSession,
    simulate,
)
from repro.observability import (
    AgentTelemetry,
    EngineProfiler,
    EventLog,
    MetricsRegistry,
    SLORule,
    TraceRecorder,
    make_registry,
)

__version__ = "1.1.0"

__all__ = [
    "Simulator",
    "Job",
    "Agent",
    "Holon",
    "GlobalTopology",
    "DataCenter",
    "Tier",
    "Server",
    "DataCenterSpec",
    "TierSpec",
    "SANSpec",
    "RAIDSpec",
    "LinkSpec",
    "R",
    "MessageSpec",
    "Operation",
    "Application",
    "Client",
    "CascadeRunner",
    "CanonicalCostModel",
    "SingleMasterPlacement",
    "MultiMasterPlacement",
    "WorkloadCurve",
    "OperationMix",
    "OpenLoopWorkload",
    "SeriesLauncher",
    "FluidSolver",
    "BackgroundSolver",
    "AvailabilityMonitor",
    "FailureInjector",
    "FailurePolicy",
    "ResiliencePolicy",
    "ResilienceConfig",
    "Collector",
    "rmse",
    "steady_state_stats",
    "CheckpointOptions",
    "Collect",
    "EngineOptions",
    "ObservabilityOptions",
    "ParallelOptions",
    "Scenario",
    "SimulationResult",
    "SimulationSession",
    "simulate",
    "AgentTelemetry",
    "EngineProfiler",
    "EventLog",
    "MetricsRegistry",
    "SLORule",
    "TraceRecorder",
    "make_registry",
    "__version__",
]
