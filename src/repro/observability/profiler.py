"""Wall-clock profiling of the engine's own phases.

Answers "where does *simulator* time go" (as opposed to simulated
time): boundary selection, waking due agents, event-calendar firing and
monitor callbacks (the collector).  Profiling hooks are gated on a flag
inside the unified run loop, so the unprofiled hot path stays cheap.

Sharded runs (PR 7) add *backend* phases that split each worker's life
around the engine: ``prepare`` (building the shard's session and
starting its workloads), ``handshake`` (the receivers round trip with
the coordinator), ``window_advance`` (compute inside conservative
windows — the engine phases above subdivide it), ``envelope_exchange``
(flushing the outbox and scheduling incoming envelopes at window
boundaries), ``barrier_wait`` (blocked on the coordinator's window
barrier — the direct measure of shard skew) and ``collect`` (building,
pickling and queueing the result payload).  :class:`MergedProfile`
folds per-shard profiles into one result-side view.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Engine phases, in loop order.
PHASES: Tuple[str, ...] = ("step_select", "wake", "events", "monitors")

#: Sharded-backend phases of each worker's life, in order; they do not
#: overlap, so their shares split the worker's wall.  ``window_advance``
#: is wall time *inside* windows (the engine phases subdivide it).
BACKEND_PHASES: Tuple[str, ...] = (
    "prepare", "handshake", "window_advance", "envelope_exchange",
    "barrier_wait", "collect")


class EngineProfiler:
    """Accumulates wall-clock seconds and call counts per engine phase."""

    def __init__(self) -> None:
        self.phase_seconds: Dict[str, float] = {p: 0.0 for p in PHASES}
        self.phase_calls: Dict[str, int] = {p: 0 for p in PHASES}
        self.ticks = 0
        self.agent_ticks = 0
        self.wall_seconds = 0.0
        self._run_started: float | None = None

    # ------------------------------------------------------------------
    def record(self, phase: str, seconds: float, calls: int = 1) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds
        self.phase_calls[phase] = self.phase_calls.get(phase, 0) + calls

    def start_run(self) -> None:
        self._run_started = time.perf_counter()

    def end_run(self) -> None:
        if self._run_started is not None:
            self.wall_seconds += time.perf_counter() - self._run_started
            self._run_started = None

    # ------------------------------------------------------------------
    @property
    def accounted_seconds(self) -> float:
        """Wall seconds the phases account for, each counted once.

        A profile with backend phases counts the engine phases through
        ``window_advance``, which contains them.
        """
        total = sum(self.phase_seconds.values())
        if "window_advance" in self.phase_seconds:
            total -= sum(self.phase_seconds.get(p, 0.0) for p in PHASES)
        return total

    def _phase_order(self) -> List[str]:
        """Engine phases first, then any extra recorded phases."""
        extras = [p for p in self.phase_seconds if p not in PHASES]
        return list(PHASES) + extras

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-phase seconds, call counts and share of the phase's group.

        Shares are computed within a phase's *group* — the engine
        phases sum to 1.0 among themselves, and so do any backend
        phases — because ``window_advance`` contains the engine phases
        and a grand total would double-count.
        """
        engine_total = max(
            sum(self.phase_seconds.get(p, 0.0) for p in PHASES), 1e-12)
        extra_total = max(
            sum(sec for p, sec in self.phase_seconds.items()
                if p not in PHASES), 1e-12)
        return {
            phase: {
                "seconds": self.phase_seconds.get(phase, 0.0),
                "calls": float(self.phase_calls.get(phase, 0)),
                "share": (self.phase_seconds.get(phase, 0.0)
                          / (engine_total if phase in PHASES
                             else extra_total)),
            }
            for phase in self._phase_order()
        }

    def _phase_rows(self) -> List[str]:
        lines: List[str] = [
            f"{'phase':<18} {'seconds':>10} {'calls':>10} {'share':>7}"
        ]
        for phase, row in self.summary().items():
            lines.append(
                f"{phase:<18} {row['seconds']:>10.4f} "
                f"{int(row['calls']):>10d} {row['share']:>6.1%}"
            )
        return lines

    def table(self) -> str:
        """Human-readable phase breakdown."""
        lines = self._phase_rows()
        lines.append(
            f"{'total':<18} {self.accounted_seconds:>10.4f} "
            f"{self.ticks:>10d} ticks  (wall {self.wall_seconds:.4f}s)"
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # serialization (worker -> coordinator)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A picklable/JSON-ready dump (round-trips via from_dict)."""
        return {
            "phase_seconds": dict(self.phase_seconds),
            "phase_calls": dict(self.phase_calls),
            "ticks": self.ticks,
            "agent_ticks": self.agent_ticks,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "EngineProfiler":
        prof = cls()
        for phase, sec in doc.get("phase_seconds", {}).items():
            prof.phase_seconds[phase] = float(sec)
        for phase, calls in doc.get("phase_calls", {}).items():
            prof.phase_calls[phase] = int(calls)
        prof.ticks = int(doc.get("ticks", 0))
        prof.agent_ticks = int(doc.get("agent_ticks", 0))
        prof.wall_seconds = float(doc.get("wall_seconds", 0.0))
        return prof

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineProfiler(ticks={self.ticks}, "
            f"wall={self.wall_seconds:.4f}s)"
        )


class MergedProfile(EngineProfiler):
    """Per-shard engine profiles folded into one result-side profile.

    Phase seconds/calls and tick counts sum across shards;
    ``wall_seconds`` is the *maximum* shard wall (shards run
    concurrently, so the run is as slow as its slowest shard).  The
    per-shard profiles stay available as :attr:`per_shard` — that is
    where barrier *skew* lives: a shard that finishes its window early
    spends the difference in ``barrier_wait``.
    """

    def __init__(
        self,
        shard_profiles: Sequence[EngineProfiler],
        shard_labels: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__()
        self.per_shard: List[EngineProfiler] = list(shard_profiles)
        self.shard_labels: List[str] = list(
            shard_labels
            if shard_labels is not None
            else (f"shard {i}" for i in range(len(self.per_shard))))
        for prof in self.per_shard:
            for phase, sec in prof.phase_seconds.items():
                self.record(phase, sec, prof.phase_calls.get(phase, 0))
            self.ticks += prof.ticks
            self.agent_ticks += prof.agent_ticks
            self.wall_seconds = max(self.wall_seconds, prof.wall_seconds)

    def barrier_skew(self) -> float:
        """Max minus min per-shard ``barrier_wait`` seconds (0 if unmeasured)."""
        waits = [p.phase_seconds.get("barrier_wait", 0.0)
                 for p in self.per_shard]
        return (max(waits) - min(waits)) if waits else 0.0

    def to_dict(self) -> Dict[str, Any]:
        doc = super().to_dict()
        doc["per_shard"] = [p.to_dict() for p in self.per_shard]
        doc["shard_labels"] = list(self.shard_labels)
        doc["barrier_skew_s"] = self.barrier_skew()
        return doc

    def table(self) -> str:
        """Phase breakdown summed over the shards, then the run's wall.

        The two totals are on separate, labelled lines: the shards'
        phase seconds add up across concurrent workers, so their sum
        can exceed the wall of the engine run, which is its slowest
        shard's.
        """
        lines = self._phase_rows()
        lines.append(
            f"{'shard sum':<18} {self.accounted_seconds:>10.4f} "
            f"{self.ticks:>10d} ticks  (phase seconds added over "
            f"{len(self.per_shard)} shards)"
        )
        lines.append(
            f"{'run wall':<18} {self.wall_seconds:>10.4f}  "
            "(slowest shard's engine run; the shards run concurrently)"
        )
        for label, prof in zip(self.shard_labels, self.per_shard):
            backend = "  ".join(
                f"{p}={prof.phase_seconds.get(p, 0.0):.4f}s"
                for p in BACKEND_PHASES)
            lines.append(f"  {label}: wall={prof.wall_seconds:.4f}s  "
                         f"{backend}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MergedProfile(shards={len(self.per_shard)}, "
            f"wall={self.wall_seconds:.4f}s)"
        )
