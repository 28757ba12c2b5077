"""RAID agent: n-way fork-join of disks behind an array controller cache
(Fig 3-7).

A request first traverses the disk-array controller cache ``Qdacc``; a hit
there bypasses the fork-join entirely, a miss stripes the demand across
the ``n`` member disks and joins on the last branch.  The whole stage
schedule is computed at admission (:mod:`repro.hardware.storage`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.agent import Agent
from repro.hardware.disk import MemberDisk
from repro.hardware.storage import Stage, StripedStorage


class RAID(StripedStorage):
    """Redundant array of ``n`` identical disks.

    Parameters
    ----------
    n_disks:
        Number of member disks in the stripe set.
    array_controller_bps:
        Speed of the array controller (``Qdacc``) in bytes per second.
    controller_bps, drive_bps:
        Per-disk controller and drive speeds.
    array_cache_hit_rate, disk_cache_hit_rate:
        Empirically tuned hit rates of ``Qdacc`` and the per-disk ``Qdcc``.
    """

    agent_type = "raid"
    #: the front stage whose array-cache hit ends a request: ``Qdacc``
    _array_stage = 0

    def __init__(
        self,
        name: str,
        n_disks: int,
        array_controller_bps: float,
        controller_bps: float,
        drive_bps: float,
        array_cache_hit_rate: float = 0.0,
        disk_cache_hit_rate: float = 0.0,
        seed: int | None = None,
    ) -> None:
        super().__init__(name)
        if n_disks < 1:
            raise ValueError("a RAID needs at least one disk")
        if not 0.0 <= array_cache_hit_rate <= 1.0:
            raise ValueError("cache hit rate must be in [0, 1]")
        self.dacc = Stage(f"{name}.dacc", rate=array_controller_bps, servers=1)
        self.disks: List[MemberDisk] = [
            MemberDisk(
                self, i, f"{name}.disk{i}",
                controller_bps=controller_bps,
                drive_bps=drive_bps,
                cache_hit_rate=disk_cache_hit_rate,
                seed=None if seed is None else seed + i + 1,
            )
            for i in range(n_disks)
        ]
        self.array_cache_hit_rate = float(array_cache_hit_rate)
        self._seed = seed
        self.cache_hits = 0
        self.cache_misses = 0
        self.completed_count = 0
        self._init_schedule(self._stages(), self.disks, self._array_stage)

    def _stages(self) -> List[Stage]:
        return [self.dacc]

    @property
    def n_disks(self) -> int:
        return len(self.disks)

    # ------------------------------------------------------------------
    def _draw_array_hit(self) -> bool:
        # a cold array cache cannot hit: it draws no number
        rate = self.array_cache_hit_rate
        hit = rate > 0.0 and self._rng.random() < rate
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        return hit

    def capacity(self) -> float:
        return float(self.n_disks)

    _completions = Agent._counted_completions

    def _telemetry_extras(self) -> Dict[str, float]:
        self._settled()
        return {
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "dacc_busy_s": self.dacc._busy,
        }

    def sample(self, now: float) -> Dict[str, float]:
        self._settled()
        window = max(now - self._window_start, 1e-12)
        busy = sum(d.hdd._window_busy for d in self.disks)
        for q in self._stages():
            q._window_busy = 0.0
        for d in self.disks:
            d.dcc._window_busy = 0.0
            d.hdd._window_busy = 0.0
        self._window_start = now
        return {
            "utilization": min(busy / (window * self.n_disks), 1.0),
            "queue_length": float(self.queue_length()),
        }
