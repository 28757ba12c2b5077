"""Sharded multi-process execution backend for :func:`repro.api.simulate`.

This is the simulator's one parallel transport (thesis section 9.3.1):
:func:`repro.parallel.partition.partition_topology` cuts the scenario's
data centers into shards, each shard builds a full
:class:`~repro.api.SimulationSession` *in its own OS process* (the
session registers only the shard's agents — see
``SimulationSession.owns``), and all shards advance in conservative
windows bounded by the smallest cross-shard WAN latency (the §4.3.3
interaction-timestamp guard).  Cross-shard traffic sent through
``session.remote`` crosses as plain envelope tuples (see
:class:`_ShardPort`) over multiprocessing queues at window
boundaries.

The lookahead counts only paths that can carry a message (the
Chandy–Misra–Bryant idea at barrier granularity).  After setup, one
handshake round trip gives every shard the union of the data centers
with an ``on_message`` handler.  If that union is empty, no envelope
can be delivered: the lookahead is infinite, the coordinator runs no
barrier loop and commits one window at the horizon, and the workers
step their local windows without waiting on it.

Equivalence with the single-process engine rests on three facts:

* ``sim.run_windowed(until, window)`` is bit-exact against one
  uninterrupted ``sim.run(until)``: it stops the boundary loop at each
  window end but drains agents only once, at the horizon, so
  windowing changes nothing, busy-time floats included;
* every seed is derived from *global* indices (workload index, server
  index), so a shard draws exactly the random numbers the full run
  would draw for its agents;
* every cross-shard latency is at least the window, so an envelope's
  arrival time is identical whether it was a calendar entry (local) or
  a relayed envelope (sharded).

The merge path reuses the mergeable observability plane: records
concatenate (sorted deterministically), collector samples join by
sample time, telemetry rows union into one
:class:`~repro.observability.telemetry.AgentTelemetry` per agent (each
agent is owned by exactly one shard), and metrics registries fold via
:meth:`~repro.observability.metrics.MetricsRegistry.merge_dicts`.  Each
worker pickles its result itself, so a payload that cannot cross the
process boundary fails as a :class:`~repro.core.errors.WorkerError`
naming the shard instead of vanishing in the queue's feeder thread.

Distributed observability (PR 7): each worker runs its own
:class:`~repro.observability.trace.TraceRecorder` (partition-independent
cascade ids, per-shard span-id bases) with the cascade context riding
envelopes as a picklable tuple, so a cascade crossing a cut stays one
trace; per-shard engine profiles plus the backend phases of each
worker's life (:data:`~repro.observability.profiler.BACKEND_PHASES`)
merge into a :class:`~repro.observability.profiler.MergedProfile`; the
coordinator times its own ``start`` / ``results`` / ``merge``; and a
:class:`~repro.parallel.supervisor.RunSupervisor` folds worker
heartbeats into live progress, stall detection and shard lifecycle
events.  See ``docs/parallel.md``.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import pickle
import queue as _queue
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import (
    EngineOptions,
    ObservabilityOptions,
    ParallelOptions,
    RemotePort,
    Scenario,
    SimulationResult,
)
from repro.core.errors import ConfigurationError, SimulationError, WorkerError
from repro.metrics.collector import Snapshot
from repro.observability.events import EventLog
from repro.observability.metrics import MetricsRegistry
from repro.observability.profiler import EngineProfiler, MergedProfile
from repro.observability.telemetry import AgentTelemetry
from repro.observability.trace import (
    MergedTrace,
    TraceRecorder,
    make_recorder,
)
from repro.parallel.partition import PartitionPlan, partition_topology
from repro.parallel.supervisor import RunSupervisor, rss_kb

#: Seconds the coordinator waits on a worker queue before declaring the
#: fleet wedged (workers are daemonic, so nothing leaks on failure).  A
#: run without barriers waits for its results as long as the workers
#: live: its whole horizon is one window.
_RECV_TIMEOUT_S = 600.0


@dataclass(frozen=True)
class ParallelReport:
    """What the sharded backend did, attached as ``result.parallel``."""

    workers: int
    cut: str
    #: The committed window: the horizon when no shard can receive.
    window: float
    #: The effective lookahead: ``inf`` when no shard can receive.
    lookahead: float
    shards: Tuple[Tuple[str, ...], ...]
    windows_run: int
    #: Per-shard compute wall seconds (barrier waits excluded).
    shard_walls: Tuple[float, ...]
    #: Coordinator wall seconds end to end, partition to merged result.
    wall_s: float
    #: CPU cores visible to this host — context for the measured wall
    #: numbers (on a single core, shards time-slice; see docs).
    cores: int
    start_method: str
    envelopes: int = 0
    #: Per-shard CPU seconds (``time.process_time``): contention-free
    #: compute cost even when shards time-slice one core.
    shard_cpus: Tuple[float, ...] = ()
    #: Per-shard seconds of each worker phase, in
    #: :data:`~repro.observability.profiler.BACKEND_PHASES` order:
    #: prepare, handshake, the window loop's window_advance /
    #: envelope_exchange / barrier_wait, and collect.  Always measured;
    #: perfbench reports the window-loop three as ``parallel.*_s``.
    shard_phases: Tuple[Dict[str, float], ...] = field(default=())
    #: Coordinator seconds: ``start`` (partition and fork), ``results``
    #: (waiting for and unpickling the shard payloads) and ``merge``.
    #: The rest of ``wall_s`` is the handshake and the barrier loop.
    coordinator_phases: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "cut": self.cut,
            "window": self.window,
            "lookahead": (None if self.lookahead == float("inf")
                          else self.lookahead),
            "shards": [list(s) for s in self.shards],
            "windows_run": self.windows_run,
            "shard_walls": list(self.shard_walls),
            "shard_cpus": list(self.shard_cpus),
            "shard_phases": [dict(p) for p in self.shard_phases],
            "coordinator_phases": dict(self.coordinator_phases),
            "wall_s": self.wall_s,
            "cores": self.cores,
            "start_method": self.start_method,
            "envelopes": self.envelopes,
        }


class _ShardPort(RemotePort):
    """The worker-side :class:`~repro.api.RemotePort`.

    Sends into the shard's own data centers stay plain calendar
    entries; sends to foreign data centers become envelope tuples
    flushed to the coordinator at the next window boundary.  The
    latency floor is the synchronization window, enforced at send time
    so violations fail where they originate.

    With tracing armed, the active cascade context
    (:meth:`~repro.observability.trace.TraceRecorder.export_context`)
    rides each envelope as its 7th element, and sampled hops are
    recorded in :attr:`trace_hops` for the Chrome exporter's flow
    events.

    Before the first window the coordinator fixes the fleet's
    receivers (:meth:`seal`): the data centers some shard registered
    an ``on_message`` handler for.  From then on a send to any other
    foreign data center fails at send time, and registering a handler
    is refused, because the coordinator has already sized the
    lookahead by the receivers it knows.
    """

    def __init__(self, window: float,
                 shard_of: Optional[Dict[str, int]] = None) -> None:
        super().__init__()
        self._window = window
        self._shard_of = shard_of or {}
        self.outbox: List[Tuple] = []
        self.trace_hops: List[Dict[str, Any]] = []
        self._seq = 0
        #: The fleet's receiving data centers; None until :meth:`seal`.
        self._receivers: Optional[frozenset] = None

    def receivers(self) -> List[str]:
        """This shard's data centers with an ``on_message`` handler."""
        assert self._session is not None, "port used before bind()"
        return sorted(dc for dc in self._handlers if self._session.owns(dc))

    def seal(self, receivers: List[str]) -> None:
        """Fix the fleet's receivers and check the sends made so far."""
        self._receivers = frozenset(receivers)
        for env in self.outbox:
            if env[1] not in self._receivers:
                raise self._unhandled(env[1])

    def on_message(self, dc_name: str,
                   handler: Callable[[Any, float], None]) -> None:
        if self._receivers is not None:
            raise ConfigurationError(
                f"on_message({dc_name!r}) called after the sharded run "
                f"fixed its receivers; register remote handlers in the "
                f"scenario's setup hook")
        super().on_message(dc_name, handler)

    def send(self, src_dc: str, dst_dc: str, payload: Any,
             latency_s: float, now: Optional[float] = None) -> None:
        assert self._session is not None, "port used before bind()"
        if self._session.owns(dst_dc):
            super().send(src_dc, dst_dc, payload, latency_s, now=now)
            return
        if self._receivers is not None and dst_dc not in self._receivers:
            raise self._unhandled(dst_dc)
        if latency_s < self._window - 1e-9:
            raise SimulationError(
                f"remote send {src_dc}->{dst_dc} declares "
                f"{latency_s:.4f}s latency, below the "
                f"{self._window:.4f}s synchronization window")
        t = self._session.sim.now if now is None else now
        self.sent += 1
        tracer = self._session.sim.trace
        tctx = tracer.export_context() if tracer is not None else None
        if tctx is not None and tctx[4]:  # sampled: record the hop
            self.trace_hops.append({
                "cascade": tctx[0], "src": src_dc, "dst": dst_dc,
                "send": t, "arrival": t + latency_s,
                "src_shard": tracer.shard,
                "dst_shard": self._shard_of.get(dst_dc, -1),
            })
        self.outbox.append(
            (src_dc, dst_dc, t, t + latency_s, payload, self._seq, tctx))
        self._seq += 1


def _resolve_window(plan: PartitionPlan, options: ParallelOptions,
                    until: float) -> float:
    """The synchronization window: min(L) capped by the user's ask."""
    lookahead = plan.lookahead
    if options.window is not None:
        if options.window > lookahead + 1e-12:
            raise ConfigurationError(
                f"parallel window {options.window}s exceeds the "
                f"{lookahead}s lookahead (smallest cross-shard latency);"
                " conservative windows cannot outrun causality")
        return options.window
    return lookahead if lookahead != float("inf") else until


def _delivery(port: _ShardPort, recorder: Optional[TraceRecorder],
              dst: str, payload: Any, tctx: Optional[tuple]):
    """The calendar entry for one incoming envelope.

    With a trace context aboard, the delivery runs inside the adopted
    cascade context — exactly like the single-process
    :meth:`~repro.api.RemotePort.send`, which captures and restores the
    context around its calendar entry — so spans recorded by the
    handler link to the originating cascade and parent span.
    """
    if tctx is None or recorder is None:
        return lambda now, p=payload, d=dst: port._deliver(d, p, now)

    def deliver(now: float, p=payload, d=dst) -> None:
        ctx = recorder.adopt_context(tctx)
        prev, prev_parent = recorder.current, recorder.current_parent
        recorder.current, recorder.current_parent = ctx, tctx[5]
        try:
            port._deliver(d, p, now)
        finally:
            recorder.current, recorder.current_parent = prev, prev_parent

    return deliver


def _telemetry_row(agent: Any) -> tuple:
    """One agent's :meth:`~repro.core.agent.Agent.telemetry` as a plain
    row in :class:`~repro.observability.telemetry.AgentTelemetry` field
    order, ``extras`` as ``None`` when empty: rows build and pickle far
    cheaper than dataclasses, and the coordinator builds each
    ``AgentTelemetry`` once, in its merge."""
    return (agent.name, agent.agent_type, agent.arrivals,
            agent._completions(), agent.drops, agent._busy_seconds(),
            agent.queue_length(), agent.queue_hwm, agent.retries,
            agent.timeouts, agent.shed, agent._telemetry_extras() or None)


def _shard_worker(idx: int, scenario: Scenario, plan: PartitionPlan,
                  until: float, window: float, options: ParallelOptions,
                  engine: EngineOptions, observability: ObservabilityOptions,
                  workloads: bool, resilience: Any,
                  inbox, outbox, results, heartbeats=None) -> None:
    """One shard: build a session over owned DCs, window to the horizon.

    Runs in a child process; every argument but the queues is
    picklable.  The result ships as ``("result", idx, blob, collect_s)``
    with the payload pickled here, inside the ``try``, so a payload
    that cannot be pickled fails the shard instead of being dropped by
    the queue's feeder thread.
    """
    born = time.perf_counter()
    try:
        shard_of = {dc: i for i, shard in enumerate(plan.shards)
                    for dc in shard}
        port = _ShardPort(window, shard_of=shard_of)
        obs = observability
        recorder = make_recorder(obs.trace)
        if recorder is not None:
            recorder.set_shard(idx)
        session = scenario.prepare(
            dt=engine.dt, mode=engine.mode, kernel=engine.kernel,
            trace=recorder, profile=obs.profile, collect=obs.collect,
            resilience=resilience, metrics=obs.metrics, slo=obs.slo,
            shard=plan.shards[idx], remote=port,
        )
        if workloads:
            session._drive_workloads(until)
        if session.events is not None:
            session.events.emit("run_start", session.sim.now, until=until,
                                mode=engine.mode, scenario=scenario.name,
                                shard=idx)
        prepared = time.perf_counter()
        # handshake: report this shard's receivers, learn the fleet's
        outbox.put(port.receivers())
        receivers = inbox.get()
        port.seal(receivers)
        # backend phases are always measured (three perf_counter reads
        # per window): window_advance = compute inside windows,
        # envelope_exchange = outbox flush + incoming scheduling,
        # barrier_wait = blocked on the coordinator's window barrier
        wall0 = time.perf_counter()
        phases = {"prepare": prepared - born, "handshake": wall0 - prepared,
                  "window_advance": 0.0, "envelope_exchange": 0.0,
                  "barrier_wait": 0.0}
        hb_every = options.heartbeat_every
        hb_last = [wall0]
        mark = [wall0]

        def exchange(_t0: float, t1: float) -> None:
            enter = done = time.perf_counter()
            phases["window_advance"] += enter - mark[0]
            # with no receivers anywhere nothing can cross the cut, and
            # the coordinator runs no barrier: window ends stay local
            if receivers:
                outbox.put(list(port.outbox))
                port.outbox.clear()
                sent_at = time.perf_counter()
                incoming = inbox.get()
                got_at = time.perf_counter()
                phases["barrier_wait"] += got_at - sent_at
                # deterministic delivery: envelopes from all shards are
                # replayed in (arrival, send, src, seq) order
                for env in sorted(incoming,
                                  key=lambda e: (e[3], e[2], e[0], e[5])):
                    session.sim.schedule(
                        env[3],
                        _delivery(port, recorder, env[1], env[4],
                                  env[6] if len(env) > 6 else None),
                    )
                done = time.perf_counter()
                phases["envelope_exchange"] += ((sent_at - enter)
                                                + (done - got_at))
            if heartbeats is not None and hb_every > 0 \
                    and done - hb_last[0] >= hb_every:
                hb_last[0] = done
                try:
                    heartbeats.put_nowait({
                        "shard": idx,
                        "watermark": t1,
                        "records": len(session.runner.records),
                        "sent": port.sent,
                        "pending": session.sim.pending_events(),
                        "rss_kb": rss_kb(),
                    })
                except Exception:
                    # a full/broken sideband never fails the simulation
                    pass
            mark[0] = time.perf_counter()

        cpu0 = time.process_time()
        windows = session.sim.run_windowed(until, window,
                                           at_window_end=exchange)
        ran = time.perf_counter()
        wall = ran - wall0 - phases["barrier_wait"]
        # CPU seconds exclude both queue waits and time-sliced-out
        # periods, so they stay meaningful when shards contend for one
        # core (the scaling projection divides by the slowest shard's
        # CPU, not its contention-inflated wall)
        cpu = time.process_time() - cpu0
        # collect (build, pickle and queue the payload) is timed from
        # here, so its seconds ship beside the payload and the
        # coordinator adds them to this shard's profile
        profiler = session.sim.profiler
        if profiler is not None:
            profiler.record("prepare", phases["prepare"])
            profiler.record("handshake", phases["handshake"])
            for phase in ("window_advance", "envelope_exchange",
                          "barrier_wait"):
                profiler.record(phase, phases[phase], calls=windows)
        if session.events is not None:
            session.events.emit("run_end", session.sim.now,
                                records=len(session.runner.records),
                                shard=idx)
        collector = session.collector
        blob = pickle.dumps({
            "idx": idx,
            "shard": list(plan.shards[idx]),
            "now": session.sim.now,
            "windows": windows,
            "records": list(session.runner.records),
            "probes": (sorted(collector._probes) if collector is not None
                       else None),
            "samples": ([(s.time, dict(s.values)) for s in collector.samples]
                        if collector is not None else None),
            "snapshots": ([(s.time, dict(s.values))
                           for s in collector.snapshots]
                          if collector is not None else None),
            "telemetry": [_telemetry_row(a) for a in session.topology_agents],
            "metrics": (session.metrics.to_dict()
                        if session.metrics is not None else None),
            "events": (session.events.events()
                       if session.events is not None else None),
            "spans": (recorder.spans() if recorder is not None else None),
            "cascades": (recorder.cascades()
                         if recorder is not None else None),
            "trace_hops": (list(port.trace_hops)
                           if recorder is not None else None),
            "trace_mode": (recorder.mode if recorder is not None else None),
            "trace_stats": ({
                "started_cascades": recorder.started_cascades,
                "sampled_out": recorder.sampled_out,
                "evicted_spans": recorder.evicted_spans,
            } if recorder is not None else None),
            "profile": (profiler.to_dict() if profiler is not None
                        else None),
            "backend_phases": phases,
            "wall_s": wall,
            "cpu_s": cpu,
            "sent": port.sent,
        }, pickle.HIGHEST_PROTOCOL)
        results.put(("result", idx, blob, time.perf_counter() - ran))
    except BaseException as exc:  # ship the failure, don't hang the fleet
        import traceback

        results.put(("error", idx, {
            "shard": idx,
            "dcs": list(plan.shards[idx]),
            "error": repr(exc),
            "traceback": traceback.format_exc(),
        }))
        raise


def _worker_error(idx: int, info: Any,
                  supervisor: Optional[RunSupervisor]) -> WorkerError:
    """Build the typed error for a failed worker (+ log the event)."""
    if isinstance(info, dict):
        dcs = tuple(info.get("dcs", ()))
        details = info.get("traceback", "")
        message = (f"shard worker {idx} ({', '.join(dcs)}) failed: "
                   f"{info.get('error', 'unknown error')}\n{details}")
    else:  # pre-structured string (defensive)
        dcs, details = (), str(info)
        message = f"shard worker {idx} failed:\n{details}"
    if supervisor is not None:
        supervisor.note_error(idx, details or message)
    return WorkerError(message, shard=idx, dcs=dcs, details=details)


def _check_failures(results, procs, stash: Dict[int, tuple],
                    supervisor: Optional[RunSupervisor] = None) -> None:
    """Surface worker errors/deaths while the coordinator waits.

    Result messages that arrive while polling are parked in ``stash``
    by shard index (a worker can finish and report before the
    coordinator gets there).  A worker flushes its queued messages
    before it exits, so one that had exited before the drain below and
    left no result there failed, whatever its exit code.  Heartbeats
    drain and stall detection runs on the same cadence.
    """
    exitcodes = [p.exitcode for p in procs]
    try:
        while True:
            msg = results.get_nowait()
            if msg[0] == "error":
                raise _worker_error(msg[1], msg[2], supervisor)
            stash[msg[1]] = msg
    except _queue.Empty:
        pass
    for i, code in enumerate(exitcodes):
        if code is not None and (code != 0 or i not in stash):
            raise _worker_error(
                i, {"dcs": (supervisor.shards[i].dcs
                            if supervisor is not None else ()),
                    "error": (f"process died with exit code {code}"
                              if code else
                              "process exited without shipping a result")},
                supervisor)
    if supervisor is not None:
        supervisor.poll()


def _recv(q, results, procs, stash: Dict[int, tuple], what: str,
          supervisor: Optional[RunSupervisor] = None,
          bounded: bool = True):
    """Blocking queue read that still notices a dead/failed worker.

    ``bounded`` reads give up after :data:`_RECV_TIMEOUT_S`."""
    deadline = (time.monotonic() + _RECV_TIMEOUT_S if bounded
                else float("inf"))
    while True:
        try:
            return q.get(timeout=0.25)
        except _queue.Empty:
            _check_failures(results, procs, stash, supervisor)
            if time.monotonic() > deadline:
                raise SimulationError(f"timed out waiting for {what}")


def _merge_timed(rows_per_shard: List[List[Tuple[float, Dict[str, float]]]],
                 ) -> List[Snapshot]:
    """Join per-shard (time, values) rows into one snapshot stream.

    Every shard samples on the same monitor cadence, so times align
    exactly; probe names are disjoint (per-DC), so values dicts union.
    """
    merged: Dict[float, Dict[str, float]] = {}
    for rows in rows_per_shard:
        for t, values in rows:
            merged.setdefault(t, {}).update(values)
    return [Snapshot(time=t, values=merged[t]) for t in sorted(merged)]


class MergedCollector:
    """Read-only stand-in for :class:`~repro.metrics.collector.Collector`
    over samples merged from every shard — same ``series`` / ``samples``
    / ``snapshots`` / ``_probes`` surface, no live simulator."""

    def __init__(self, probes: List[str], samples: List[Snapshot],
                 snapshots: List[Snapshot]) -> None:
        self._probes = {name: None for name in probes}
        self.samples = samples
        self.snapshots = snapshots

    def series(self, name: str, from_snapshots: bool = False) -> List[tuple]:
        src = self.snapshots if from_snapshots else self.samples
        return [(s.time, s.values[name]) for s in src if name in s.values]


def run_sharded(
    scenario: Scenario,
    *,
    until: float,
    options: ParallelOptions,
    engine: EngineOptions,
    observability: ObservabilityOptions,
    workloads: bool = True,
    resilience: Any = None,
) -> SimulationResult:
    """Execute one scenario sharded across worker processes.

    Called by ``simulate(parallel=...)`` with its resolved option
    groups; see that docstring for the contract.  Falls back to the
    single-process engine when the cut yields one shard.
    """
    if scenario.topology is None:
        raise ConfigurationError("scenario has no topology")
    obs = observability
    if isinstance(obs.trace, TraceRecorder):
        raise ConfigurationError(
            "parallel execution builds one TraceRecorder per worker "
            "process and cannot adopt a prebuilt instance; pass a spec "
            "string ('full', 'sampling', 'sampling:p') instead")
    wall0 = time.perf_counter()
    plan = partition_topology(scenario.topology, options.workers,
                              options.cut)
    if plan.workers <= 1:
        session = scenario.prepare(
            dt=engine.dt, mode=engine.mode, kernel=engine.kernel,
            trace=obs.trace, profile=obs.profile, collect=obs.collect,
            resilience=resilience, metrics=obs.metrics, slo=obs.slo,
        )
        result = session.run(until, workloads=workloads)
        result.parallel = ParallelReport(
            workers=1, cut=options.cut, window=until,
            lookahead=plan.lookahead, shards=plan.shards, windows_run=1,
            shard_walls=(),
            wall_s=time.perf_counter() - wall0,
            cores=os.cpu_count() or 1, start_method="none",
        )
        return result

    window = _resolve_window(plan, options, until)
    start_method = ("fork" if "fork" in mp.get_all_start_methods()
                    else "spawn")
    ctx = mp.get_context(start_method)
    inboxes = [ctx.Queue() for _ in plan.shards]
    outboxes = [ctx.Queue() for _ in plan.shards]
    results = ctx.Queue()
    heartbeats = ctx.Queue() if options.heartbeat_every > 0 else None
    supervisor = RunSupervisor(
        [tuple(s) for s in plan.shards],
        until=until,
        scenario=scenario.name,
        window=window,
        heartbeats=heartbeats,
        stall_timeout=options.stall_timeout,
        on_stall=options.on_stall,
        status_path=(None if options.status_path is None
                     else str(options.status_path)),
    )
    procs = [
        ctx.Process(
            target=_shard_worker,
            args=(i, scenario, plan, until, window, options, engine, obs,
                  workloads, resilience, inboxes[i], outboxes[i], results,
                  heartbeats),
            daemon=True,
        )
        for i in range(plan.workers)
    ]
    stash: Dict[int, tuple] = {}
    shard_of = {dc: i for i, shard in enumerate(plan.shards) for dc in shard}
    envelopes = 0
    try:
        # a forked worker inherits the built scenario: frozen, its objects
        # stay out of the worker's collections, which would otherwise
        # walk (and so copy) every inherited page
        gc.freeze()
        try:
            for i, p in enumerate(procs):
                try:
                    p.start()
                except Exception as exc:
                    raise ConfigurationError(
                        f"could not ship the scenario to a worker process "
                        f"under the {start_method!r} start method (is "
                        f"every setup hook/placement picklable?): {exc}"
                    ) from exc
                supervisor.note_started(i)
        finally:
            gc.unfreeze()
        started = time.perf_counter()
        # handshake: the fleet's receivers are the union of every
        # shard's on_message data centers.  With none, no envelope can
        # ever be delivered, so the lookahead is infinite and the run
        # is one window at the horizon, committed without a barrier
        fleet_receivers = set()
        for i in range(plan.workers):
            fleet_receivers.update(_recv(outboxes[i], results, procs, stash,
                                         f"shard {i} receivers", supervisor))
        for q in inboxes:
            q.put(sorted(fleet_receivers))
        lookahead = plan.lookahead
        if not fleet_receivers:
            lookahead, window = float("inf"), until
            supervisor.note_collapsed()
        # the coordinator mirrors the workers' window arithmetic exactly
        t, windows_run = 0.0, 0
        while fleet_receivers and t < until - 1e-9:
            window_end = min(t + window, until)
            pending: List[List[tuple]] = [[] for _ in plan.shards]
            for i in range(plan.workers):
                for env in _recv(outboxes[i], results, procs, stash,
                                 f"shard {i} window {windows_run}",
                                 supervisor):
                    src, dst, sent_at, arrival = env[0], env[1], env[2], env[3]
                    if arrival - sent_at < window - 1e-9:
                        raise SimulationError(
                            f"envelope {src}->{dst} declares "
                            f"{arrival - sent_at:.4f}s latency, below "
                            f"the {window:.4f}s window")
                    pending[shard_of[dst]].append(env)
                    envelopes += 1
            for i in range(plan.workers):
                inboxes[i].put(pending[i])
            windows_run += 1
            t = window_end
            supervisor.note_window(window_end)
            supervisor.poll()
        waited = time.perf_counter()
        while len(stash) < plan.workers:
            msg = _recv(results, results, procs, stash, "shard results",
                        supervisor, bounded=bool(fleet_receivers))
            if msg[0] == "error":
                raise _worker_error(msg[1], msg[2], supervisor)
            stash[msg[1]] = msg
        shards = []
        for i in range(plan.workers):
            _, _, blob, collect_s = stash[i]
            shard = pickle.loads(blob)
            shard["backend_phases"]["collect"] = collect_s
            shards.append(shard)
        if not fleet_receivers:
            windows_run = 1
            supervisor.note_window(until)
        for idx, shard in enumerate(shards):
            supervisor.note_finished(idx, now=shard["now"],
                                     records=len(shard["records"]))
        supervisor.finish()
        for p in procs:
            p.join(timeout=10.0)
    finally:
        # terminate survivors promptly — a failed shard must not leave
        # the rest idling on the window barrier until a queue timeout
        for p in procs:
            if p.is_alive():
                p.terminate()
    received = time.perf_counter()

    shard_labels = [",".join(s["shard"]) for s in shards]
    records = sorted(
        (r for s in shards for r in s["records"]),
        key=lambda r: (r.start, r.end, r.operation, r.client_dc),
    )
    collector = None
    if any(s["probes"] is not None for s in shards):
        collector = MergedCollector(
            probes=sorted({p for s in shards for p in s["probes"] or []}),
            samples=_merge_timed([s["samples"] or [] for s in shards]),
            snapshots=_merge_timed([s["snapshots"] or [] for s in shards]),
        )
    merged_metrics = None
    if any(s["metrics"] is not None for s in shards):
        merged_metrics = MetricsRegistry.merge_dicts(
            s["metrics"] for s in shards if s["metrics"] is not None)
    # shard event logs merge with the supervisor's lifecycle events
    # (shard_started / window_committed / shard_finished), all ordered
    # by sim time; a run without metrics still gets the lifecycle log
    merged_events = EventLog()
    merged_events.extend(sorted(
        [e for s in shards for e in s["events"] or []]
        + supervisor.events.events(),
        key=lambda e: e["sim_time"],
    ))
    merged_trace = None
    if any(s["spans"] is not None for s in shards):
        merged_trace = MergedTrace(
            [s["spans"] or [] for s in shards],
            [s["cascades"] or [] for s in shards],
            shard_labels=shard_labels,
            hops=[h for s in shards for h in s["trace_hops"] or []],
            mode=next(s["trace_mode"] for s in shards
                      if s["trace_mode"] is not None),
        )
    merged_profile = None
    if any(s["profile"] is not None for s in shards):
        profiles = []
        for shard in shards:
            if shard["profile"] is not None:
                prof = EngineProfiler.from_dict(shard["profile"])
                prof.record("collect", shard["backend_phases"]["collect"])
                profiles.append(prof)
        merged_profile = MergedProfile(profiles, shard_labels=shard_labels)
    rows = {row[0]: row for s in shards for row in s["telemetry"]}
    telemetry: Dict[str, Any] = {}
    for agent in scenario.topology.all_agents():
        row = rows.get(agent.name)
        if row is not None:
            telemetry[agent.name] = AgentTelemetry(*row[:-1],
                                                   extras=row[-1] or {})
    merged = time.perf_counter()
    report = ParallelReport(
        workers=plan.workers,
        cut=plan.cut,
        window=window,
        lookahead=lookahead,
        shards=plan.shards,
        windows_run=windows_run,
        shard_walls=tuple(s["wall_s"] for s in shards),
        shard_cpus=tuple(s["cpu_s"] for s in shards),
        shard_phases=tuple(s["backend_phases"] for s in shards),
        coordinator_phases={"start": started - wall0,
                            "results": received - waited,
                            "merge": merged - received},
        wall_s=merged - wall0,
        cores=os.cpu_count() or 1,
        start_method=start_method,
        envelopes=envelopes,
    )
    return SimulationResult(
        scenario=scenario,
        mode=engine.mode,
        until=until,
        records=records,
        trace=merged_trace,
        profile=merged_profile,
        collector=collector,
        study=scenario.study,
        metrics=merged_metrics,
        events=merged_events,
        parallel=report,
        merged_telemetry=telemetry,
    )
