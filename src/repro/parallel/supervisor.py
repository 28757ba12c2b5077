"""Live supervision of sharded runs: heartbeats, stalls, lifecycle.

Workers stream small heartbeat frames (sim-time watermark, records
completed, envelopes sent, calendar backlog, RSS) over one sideband
multiprocessing queue; the coordinator folds them into a
:class:`RunSupervisor` which

* tracks per-shard :class:`ShardProgress`,
* emits shard lifecycle events (``shard_started`` /
  ``window_committed`` / ``shard_finished`` / ``worker_error`` /
  ``worker_stalled``) into an event log merged into the run's result,
* detects stalls — no watermark advance for ``stall_timeout`` wall
  seconds — and either records them (``on_stall="event"``) or aborts
  the run (``on_stall="abort"`` raises
  :class:`~repro.core.errors.WorkerStalled`),
* and maintains an atomically-rewritten JSON status file that
  ``python -m repro top <path>`` renders live.

Everything here runs in the coordinator process; the only worker-side
footprint is the throttled ``queue.put_nowait`` of a small dict (see
``_shard_worker`` in :mod:`repro.parallel.sharded`).
"""

from __future__ import annotations

import json
import os
import queue as _queue
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import WorkerStalled
from repro.observability.events import EventLog

#: Wall seconds between status-file rewrites (forced writes ignore it).
_STATUS_INTERVAL_S = 0.5


def rss_kb() -> int:
    """This process's peak RSS in KiB (0 where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS
    return int(usage // 1024) if os.uname().sysname == "Darwin" else int(usage)


@dataclass
class ShardProgress:
    """The coordinator's live view of one worker."""

    shard: int
    dcs: Tuple[str, ...]
    state: str = "starting"  # starting|running|finished|error|stalled
    watermark: float = 0.0
    records: int = 0
    sent: int = 0
    pending: int = 0
    rss_kb: int = 0
    #: monotonic stamp of the last watermark advance (stall reference).
    last_advance: float = field(default=0.0, repr=False)

    def to_dict(self, now: Optional[float] = None) -> Dict[str, Any]:
        doc = {
            "shard": self.shard,
            "dcs": list(self.dcs),
            "state": self.state,
            "watermark": self.watermark,
            "records": self.records,
            "sent": self.sent,
            "pending": self.pending,
            "rss_kb": self.rss_kb,
        }
        if now is not None and self.last_advance > 0.0:
            doc["age_s"] = max(now - self.last_advance, 0.0)
        return doc


class RunSupervisor:
    """Coordinator-side progress/stall tracking for one sharded run.

    ``clock`` is injectable (monotonic seconds) so stall detection is
    testable without real waiting; production uses ``time.monotonic``.
    """

    def __init__(
        self,
        shards: List[Tuple[str, ...]],
        *,
        until: float,
        scenario: str = "",
        window: float = 0.0,
        heartbeats: Any = None,
        stall_timeout: Optional[float] = None,
        on_stall: str = "event",
        status_path: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.until = until
        self.scenario = scenario
        self.window = window
        self.heartbeats = heartbeats
        self.stall_timeout = stall_timeout
        self.on_stall = on_stall
        self.status_path = status_path
        self.clock = clock
        self.events = EventLog()
        self.windows_run = 0
        #: True once the run is known to need no window barrier.
        self.collapsed = False
        self.state = "starting"
        self.started_wall = time.time()
        self.shards = [ShardProgress(i, tuple(dcs))
                       for i, dcs in enumerate(shards)]
        self._last_status_write = -1e9

    # ------------------------------------------------------------------
    # lifecycle notes (called by the coordinator loop)
    # ------------------------------------------------------------------
    def note_started(self, shard: int) -> None:
        prog = self.shards[shard]
        prog.state = "running"
        prog.last_advance = self.clock()
        self.state = "running"
        self.events.emit("shard_started", 0.0, shard=shard,
                         dcs=list(prog.dcs))
        self.write_status()

    def note_window(self, window_end: float) -> None:
        """A window barrier completed: every shard reached ``window_end``.

        Barrier progress counts as watermark advance for every running
        shard, so stall detection works even with heartbeats disabled.
        """
        self.windows_run += 1
        now = self.clock()
        for prog in self.shards:
            if prog.state in ("running", "stalled") and \
                    window_end > prog.watermark:
                prog.watermark = window_end
                prog.last_advance = now
                if prog.state == "stalled":
                    prog.state = "running"
        self.events.emit("window_committed", window_end,
                         window=self.windows_run)
        self.write_status()

    def note_collapsed(self) -> None:
        """No shard can receive an envelope: the run is one window.

        No barrier commits intermediate windows, so a shard's progress
        shows only through its heartbeats.  Without heartbeats there is
        no signal to read a stall from, and :meth:`check_stalls` leaves
        the run alone.
        """
        self.collapsed = True
        self.window = self.until
        self.write_status()

    def note_finished(self, shard: int, *, now: float, records: int) -> None:
        prog = self.shards[shard]
        prog.state = "finished"
        prog.watermark = now
        prog.records = records
        prog.last_advance = self.clock()
        self.events.emit("shard_finished", now, shard=shard, records=records)
        self.write_status()

    def note_error(self, shard: int, details: str) -> None:
        if 0 <= shard < len(self.shards):
            prog = self.shards[shard]
            prog.state = "error"
            dcs = list(prog.dcs)
        else:
            dcs = []
        self.state = "error"
        self.events.emit("worker_error", self.watermark(), shard=shard,
                         dcs=dcs, error=details.strip().splitlines()[-1]
                         if details.strip() else "", details=details)
        self.write_status(force=True)

    def finish(self) -> None:
        if self.state not in ("error",):
            self.state = "finished"
        self.write_status(force=True)

    # ------------------------------------------------------------------
    # heartbeats + stalls (called from the coordinator's poll points)
    # ------------------------------------------------------------------
    def note_heartbeat(self, frame: Dict[str, Any]) -> None:
        idx = int(frame.get("shard", -1))
        if not 0 <= idx < len(self.shards):
            return
        prog = self.shards[idx]
        watermark = float(frame.get("watermark", prog.watermark))
        if watermark > prog.watermark:
            prog.watermark = watermark
            prog.last_advance = self.clock()
            if prog.state == "stalled":
                prog.state = "running"
        prog.records = int(frame.get("records", prog.records))
        prog.sent = int(frame.get("sent", prog.sent))
        prog.pending = int(frame.get("pending", prog.pending))
        prog.rss_kb = int(frame.get("rss_kb", prog.rss_kb))

    def poll(self) -> None:
        """Drain heartbeats, run stall detection, refresh the status file."""
        if self.heartbeats is not None:
            while True:
                try:
                    frame = self.heartbeats.get_nowait()
                except (_queue.Empty, OSError, ValueError):
                    break
                self.note_heartbeat(frame)
        self.check_stalls(self.clock())
        self.write_status()

    def check_stalls(self, now: float) -> None:
        """Flag (or abort on) shards whose watermark stopped advancing."""
        if self.stall_timeout is None or self.stall_timeout <= 0:
            return
        if self.collapsed and self.heartbeats is None:
            return
        for prog in self.shards:
            if prog.state != "running" or prog.last_advance <= 0.0:
                continue
            if now - prog.last_advance < self.stall_timeout:
                continue
            prog.state = "stalled"
            self.events.emit(
                "worker_stalled", prog.watermark, shard=prog.shard,
                dcs=list(prog.dcs), stalled_s=now - prog.last_advance,
                stall_timeout=self.stall_timeout)
            self.write_status(force=True)
            if self.on_stall == "abort":
                self.state = "error"
                self.write_status(force=True)
                raise WorkerStalled(
                    f"shard worker {prog.shard} ({', '.join(prog.dcs)}) "
                    f"made no sim-time progress past "
                    f"t={prog.watermark:.3f}s for "
                    f"{now - prog.last_advance:.1f} wall seconds "
                    f"(stall_timeout={self.stall_timeout}s)",
                    shard=prog.shard, dcs=prog.dcs)

    # ------------------------------------------------------------------
    # progress surface
    # ------------------------------------------------------------------
    def watermark(self) -> float:
        """The fleet-wide committed sim time (slowest shard)."""
        return min((p.watermark for p in self.shards), default=0.0)

    def progress(self) -> Dict[str, Any]:
        """The live status document (also what the status file holds)."""
        now = self.clock()
        return {
            "scenario": self.scenario,
            "state": self.state,
            "until": self.until,
            "window": self.window,
            "workers": len(self.shards),
            "watermark": self.watermark(),
            "windows_run": self.windows_run,
            "started_wall": self.started_wall,
            "updated_wall": time.time(),
            "shards": [p.to_dict(now) for p in self.shards],
        }

    def write_status(self, force: bool = False) -> None:
        if self.status_path is None:
            return
        now = self.clock()
        if not force and now - self._last_status_write < _STATUS_INTERVAL_S:
            return
        self._last_status_write = now
        tmp = f"{self.status_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.progress(), fh)
        os.replace(tmp, self.status_path)
