"""Per-layer cost of a run, measured from outside the program.

A layer is a ``repro`` sub-package.  Two modules count as layers of
their own: ``repro.queueing.soa``, the vector kernel, and
``repro.observability.profiler``, the engine profiler that a traced run
switches on -- its cost is the benchmark's, not the observability
layer's, whose switched-off path must cost nothing.

:func:`fold` turns ``cProfile`` statistics into host self seconds and
call counts per layer, and counts the calls that cross from one layer
into another.  Self time of code outside ``repro`` -- builtins, the
standard library, numpy -- is charged to the layer that called it, in
proportion to the time each caller spent in it.

:class:`Tracer` installs everything a traced run needs: the profiler in
this process, the same profiler in every shard worker the sharded
backend forks, and timed spans around checkpoint writes, ``prepare``
and the chapter 5 topology build.
"""

from __future__ import annotations

import contextlib
import cProfile
import json
import os
import pstats
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import repro
from workloads import Clock, Outcome, Spans, execute, patched

Func = Tuple[str, int, str]

#: Source directory of the ``repro`` package, as code objects name it.
PACKAGE = os.path.dirname(repro.__file__) + os.sep

#: Layer of code that belongs to no ``repro`` sub-package and has no
#: ``repro`` caller: the benchmark itself and interpreter start-up.
OUTSIDE = "outside"


def layer_of(filename: str) -> Optional[str]:
    """The ``repro`` layer owning a source file, or ``None``."""
    if not filename.startswith(PACKAGE):
        return None
    rel = filename[len(PACKAGE):].split(os.sep)
    if len(rel) == 1:
        return rel[0][:-3]  # top-level module: api, cli, io ...
    if rel[0] == "queueing" and rel[-1] == "soa.py":
        return "queueing.soa"
    if rel[0] == "observability" and rel[-1] == "profiler.py":
        return "observability.profiler"
    return rel[0]


def fold(stats: Dict[Func, tuple]) -> Dict[str, Any]:
    """Fold ``pstats`` raw statistics into per-layer costs.

    ``stats`` maps each function to ``(primitive calls, calls, self
    time, cumulative time, callers)``, and ``callers`` maps each caller
    to ``(calls, primitive calls, self time, cumulative time)`` of the
    calls it made.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n},
    "cross_calls": {"a->b": n}}``; calls count only functions of the
    layer's own files.
    """
    memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, seen: frozenset) -> Dict[str, float]:
        own = layer_of(func[0])
        if own is not None:
            return {own: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: v[2] for c, v in callers.items() if c not in seen}
        if sum(weights.values()) <= 0.0:
            weights = {c: float(v[0]) for c, v in callers.items()
                       if c not in seen}
        total = sum(weights.values())
        out: Dict[str, float] = {}
        if total <= 0.0:
            out[OUTSIDE] = 1.0
        else:
            for caller, w in weights.items():
                for layer, s in shares(caller, seen | {func}).items():
                    out[layer] = out.get(layer, 0.0) + s * w / total
        memo[func] = out
        return out

    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    cross: Dict[str, float] = {}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        for layer, s in shares(func, frozenset()).items():
            self_s[layer] = self_s.get(layer, 0.0) + tt * s
        callee = layer_of(func[0])
        if callee is None:
            continue
        calls[callee] = calls.get(callee, 0) + nc
        for caller, v in callers.items():
            for layer, s in shares(caller, frozenset()).items():
                if layer != callee:
                    key = f"{layer}->{callee}"
                    cross[key] = cross.get(key, 0.0) + v[0] * s
    return {
        "self_s": dict(sorted(self_s.items())),
        "calls": dict(sorted(calls.items())),
        "cross_calls": {k: round(v) for k, v in sorted(cross.items())},
    }


def merge(docs: List[Dict[str, Dict[str, float]]]) -> Dict[str, Any]:
    """Sum the per-process records of one run, part by part."""
    out: Dict[str, Any] = {}
    for doc in docs:
        for part, values in doc.items():
            into = out.setdefault(part, {})
            for key, value in values.items():
                into[key] = into.get(key, 0) + value
    out["processes"] = len(docs)
    return out


class Tracer:
    """Profiles one traced run in this process and its shard workers."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.spans = Spans()
        self.profiler = cProfile.Profile()

    def _worker(self, original):
        """The sharded backend's worker entry, profiled in the child.

        A forked worker inherits this process's active profiler; it is
        dropped so the child profiles into its own and dumps it, with
        the child's spans, before the process exits.
        """
        def worker(idx: int, *args: Any, **kwargs: Any) -> None:
            sys.setprofile(None)
            self.spans = Spans()
            prof = cProfile.Profile()
            prof.enable()
            try:
                original(idx, *args, **kwargs)
            finally:
                prof.disable()
                prof.dump_stats(str(self.scratch / f"shard-{idx}.prof"))
                (self.scratch / f"shard-{idx}.json").write_text(
                    json.dumps(self._spans_doc()))
        return worker

    def _timed(self, name: str):
        def make(original):
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.spans.span(name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Patch the span points and the worker entry for one run."""
        import repro.core.checkpoint as checkpoint
        import repro.parallel.sharded as sharded
        import repro.validation.experiments as experiments
        from repro.api import Scenario

        for stale in self.scratch.glob("shard-*"):
            stale.unlink()
        with contextlib.ExitStack() as stack:
            stack.enter_context(patched(
                checkpoint, "write_checkpoint",
                self._timed("checkpoint.write_s")))
            stack.enter_context(patched(
                Scenario, "prepare", self._timed("api.prepare_s")))
            stack.enter_context(patched(
                experiments, "build_downscaled_infrastructure",
                self._timed("topology.build_s")))
            stack.enter_context(patched(
                sharded, "_shard_worker", self._worker))
            yield

    def clock(self) -> Clock:
        """A run clock that profiles from the set-up/run boundary on."""
        return _ProfiledClock(self.profiler)

    def _spans_doc(self) -> Dict[str, Dict[str, float]]:
        return {"span_seconds": self.spans.seconds,
                "span_calls": self.spans.calls}

    def collect(self) -> Dict[str, Any]:
        """Fold and sum this process and every worker that reported back.

        Returns :func:`fold`'s parts plus ``span_seconds``,
        ``span_calls`` and the number of ``processes``.
        """
        docs = [{**fold(pstats.Stats(self.profiler).stats),
                 **self._spans_doc()}]
        for path in sorted(self.scratch.glob("shard-*.prof")):
            docs.append({**fold(pstats.Stats(str(path)).stats),
                         **json.loads(path.with_suffix(".json").read_text())})
        return merge(docs)


class _ProfiledClock(Clock):
    def __init__(self, profiler: cProfile.Profile) -> None:
        super().__init__()
        self.profiler = profiler

    def mark(self) -> None:
        super().mark()
        self.profiler.enable()

    def stop(self) -> None:
        self.profiler.disable()
        super().stop()


def traced_run(workload: str, seed: int, scratch: Path,
               **sizes: Any) -> Tuple[Outcome, Clock, Dict[str, Any]]:
    """Run ``workload`` once under the tracer; ``sizes`` shrink it."""
    tracer = Tracer(scratch)
    clock = tracer.clock()
    with tracer.installed():
        outcome = execute(workload, seed, clock, tracer.spans,
                          out_dir=scratch, profile=True, **sizes)
    return outcome, clock, tracer.collect()


def layer_metrics(outcome, trace: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of one traced run."""
    self_s, calls = trace["self_s"], trace["calls"]
    span_s, span_n = trace["span_seconds"], trace["span_calls"]
    prof, par = outcome.profile, outcome.parallel
    phases = prof.phase_seconds if prof is not None else {}
    shard_phases = par.shard_phases if par is not None else ()
    cpus = par.shard_cpus if par is not None else ()
    res = outcome.resilience
    ops = len(outcome.records)
    failed = sum(1 for r in outcome.records if r.failed)
    tel = outcome.telemetry.values()

    def shard_max(phase: str) -> float:
        return max((p.get(phase, 0.0) for p in shard_phases), default=0.0)

    return {
        "core.self_s": self_s.get("core", 0.0),
        "core.boundaries": prof.ticks if prof is not None else 0,
        "core.agent_wakes": prof.agent_ticks if prof is not None else 0,
        "core.step_select_s": phases.get("step_select", 0.0),
        "core.wake_s": phases.get("wake", 0.0),
        "core.events_s": phases.get("events", 0.0),
        "core.monitors_s": phases.get("monitors", 0.0),
        "queueing.self_s": self_s.get("queueing", 0.0),
        "queueing.soa.self_s": self_s.get("queueing.soa", 0.0),
        "queueing.soa.calls": calls.get("queueing.soa", 0),
        "queueing.arrivals": sum(t.arrivals for t in tel),
        "hardware.self_s": self_s.get("hardware", 0.0),
        "hardware.busy_sim_s": sum(t.busy_time for t in tel),
        "parallel.windows": (par.windows_run
                             if par is not None and par.workers > 1 else 0),
        "parallel.envelopes": par.envelopes if par is not None else 0,
        "parallel.barrier_wait_s": shard_max("barrier_wait"),
        "parallel.envelope_exchange_s": shard_max("envelope_exchange"),
        "parallel.window_advance_s": shard_max("window_advance"),
        "parallel.shard_cpu_max_s": max(cpus, default=0.0),
        "parallel.shard_cpu_skew": ((max(cpus) - min(cpus)) / max(cpus)
                                    if cpus and max(cpus) > 0 else 0.0),
        "observability.self_s": self_s.get("observability", 0.0),
        "observability.spans": outcome.spans_recorded,
        "observability.export_s": span_s.get("observability.export_s", 0.0),
        "software.self_s": self_s.get("software", 0.0),
        "software.ops": ops,
        "software.ops_failed": failed,
        "resilience.self_s": self_s.get("resilience", 0.0),
        "resilience.retries": res.get("retries", 0),
        "resilience.timeouts": res.get("timeouts", 0),
        "resilience.failovers": res.get("failovers", 0),
        "resilience.breaker_opens": res.get("breaker_opens", 0),
        "resilience.useful_ratio": ((ops - failed)
                                    / (ops + res.get("retries", 0))
                                    if ops else 0.0),
        "reliability.server_failures": outcome.server_failures,
        "checkpoint.writes": span_n.get("checkpoint.write_s", 0),
        "checkpoint.write_s": span_s.get("checkpoint.write_s", 0.0),
        "topology.build_s": span_s.get("topology.build_s", 0.0),
        "api.prepare_s": span_s.get("api.prepare_s", 0.0),
        "layers.cross_calls": sum(trace["cross_calls"].values()),
        "cpu_err_pp": outcome.cpu_err_pp,
    }
