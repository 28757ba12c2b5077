"""Disk agents: controller cache queue followed by the drive queue.

Each disk is a sequence of two queues (section 3.4.2): ``Qdcc`` (the disk
controller cache, served at the controller speed) and ``Qhdd`` (the
mechanical drive, served at the sustained drive speed).  A controller
cache hit bypasses the drive queue.

A bare :class:`Disk` schedules its requests in closed form
(:class:`~repro.hardware.storage.StripedStorage` with itself as its one
lane and no front stages).  A RAID or SAN member is a
:class:`MemberDisk`: a passive lane its array plans, whose own failures
re-plan that lane.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.agent import Agent
from repro.hardware.storage import HitStream, Stage, StripedStorage


class _Drive(Agent, HitStream):
    """What every disk has: its two stages, its cache-hit stream and
    counters, and its telemetry.  ``_array`` is the schedule that plans
    the stages (the disk itself, or the array it is a member of)."""

    agent_type = "disk"

    def _build(self, name: str, controller_bps: float, drive_bps: float,
               cache_hit_rate: float, seed: int | None) -> None:
        super().__init__(name)
        if not 0.0 <= cache_hit_rate <= 1.0:
            raise ValueError("cache hit rate must be in [0, 1]")
        self.dcc = Stage(f"{name}.dcc", rate=controller_bps, servers=1)
        self.hdd = Stage(f"{name}.hdd", rate=drive_bps, servers=1)
        self.cache_hit_rate = float(cache_hit_rate)
        self._seed = seed
        self.cache_hits = 0
        self.cache_misses = 0
        self.completed_count = 0

    # the schedule credits the lane's cache draws lazily: reading settles
    @property
    def cache_hits(self) -> int:
        self._array._flush_draws()
        return self._cache_hits

    @cache_hits.setter
    def cache_hits(self, value: int) -> None:
        self._cache_hits = value

    @property
    def cache_misses(self) -> int:
        self._array._flush_draws()
        return self._cache_misses

    @cache_misses.setter
    def cache_misses(self, value: int) -> None:
        self._cache_misses = value

    def capacity(self) -> float:
        return 1.0  # utilization is normalized to the bottleneck drive

    _completions = Agent._counted_completions

    def _telemetry_extras(self) -> Dict[str, float]:
        return {
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "hdd_busy_s": self.hdd.busy_time,
        }

    def sample(self, now: float) -> Dict[str, float]:
        self._array._settled()
        window = max(now - self._window_start, 1e-12)
        busy = self.hdd._window_busy  # drive is the bottleneck resource
        self.dcc._window_busy = 0.0
        self.hdd._window_busy = 0.0
        self._window_start = now
        return {
            "utilization": min(busy / window, 1.0),
            "queue_length": float(self.queue_length()),
        }


class Disk(_Drive, StripedStorage):
    """Two-stage disk: controller cache then drive, with hit bypass.

    Parameters
    ----------
    controller_bps:
        Disk controller speed in bytes per second.
    drive_bps:
        Sustained drive speed in bytes per second.
    cache_hit_rate:
        Probability a request is served entirely by the controller cache.
    """

    def __init__(
        self,
        name: str,
        controller_bps: float,
        drive_bps: float,
        cache_hit_rate: float = 0.0,
        seed: int | None = None,
    ) -> None:
        self._build(name, controller_bps, drive_bps, cache_hit_rate, seed)
        self._array = self
        self._init_schedule((), (self,), None)


class MemberDisk(_Drive):
    """Member ``lane`` of a RAID or SAN ``array``: the array plans its
    stripes, so the member holds only counters and forwards its failures
    to the array, which freezes and re-plans this lane."""

    def __init__(self, array: StripedStorage, lane: int, name: str,
                 controller_bps: float, drive_bps: float,
                 cache_hit_rate: float, seed: int | None) -> None:
        self._array = array
        self._build(name, controller_bps, drive_bps, cache_hit_rate, seed)
        self._lane = lane
        #: this lane's stages its own failure stopped
        self._lane_paused: List[int] = []

    # stripe completions are credited when the array settles
    @property
    def completed_count(self) -> int:
        self._array._settled()
        return self._completed

    @completed_count.setter
    def completed_count(self, value: int) -> None:
        self._completed = value

    # the array is the engine agent: the member has no events of its own
    def next_event_time(self) -> float:
        return float("inf")

    def advance_to(self, t: float) -> None:
        pass

    def enqueue(self, job, now: float) -> None:
        raise TypeError(f"submit to the array, not its member {self.name}")

    def queue_length(self) -> int:
        return self._array._lane_depth(self._lane)

    def _busy_seconds(self) -> float:
        self._array._settled()
        return self.dcc._busy + self.hdd._busy

    def sample(self, now: float) -> Dict[str, float]:
        self._array._leave_uniform()  # this lane's window restarts alone
        return super().sample(now)

    def on_pause(self, now: float | None) -> None:
        self._array._lane_pause(self, now)

    def on_crash(self) -> None:
        self._array._lane_crash(self)

    def on_repair(self, now: float) -> None:
        self._array._lane_repair(self, now)
