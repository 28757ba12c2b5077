"""RAID agent: n-way fork-join of disks behind an array controller cache
(Fig 3-7).

A request first traverses the disk-array controller cache ``Qdacc``; a hit
there bypasses the fork-join entirely, a miss stripes the demand across
the ``n`` member disks and joins on the last branch.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core.job import Job
from repro.queueing.fcfs import FCFSQueue
from repro.queueing.forkjoin import ForkJoin
from repro.hardware.composite import CompositeAgent
from repro.hardware.disk import Disk


class RAID(CompositeAgent):
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
        self.dacc = FCFSQueue(f"{name}.dacc", rate=array_controller_bps, servers=1)
        self.disks: List[Disk] = [
            Disk(
                f"{name}.disk{i}",
                controller_bps=controller_bps,
                drive_bps=drive_bps,
                cache_hit_rate=disk_cache_hit_rate,
                seed=None if seed is None else seed + i + 1,
            )
            for i in range(n_disks)
        ]
        self.forkjoin = ForkJoin([d.enqueue for d in self.disks], split="stripe")
        self.array_cache_hit_rate = float(array_cache_hit_rate)
        self._rng = random.Random(seed)
        self.cache_hits = 0
        self.cache_misses = 0
        self.completed_count = 0
        self._adopt_children()

    def _child_agents(self):
        return [self.dacc, *self.disks]

    @property
    def n_disks(self) -> int:
        return len(self.disks)

    # ------------------------------------------------------------------
    def _complete(self, job: Job, t: float) -> None:
        self.completed_count += 1
        job.finish(t)

    def enqueue(self, job: Job, now: float) -> None:
        if self._varray is not None:
            # vector kernel: closed-form stage schedule, join-only event
            self._varray.request(job, now)
            return
        hit = self._rng.random() < self.array_cache_hit_rate
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

        def dacc_done(_sub: Job, t: float) -> None:
            if hit:
                self._complete(job, t)
            else:
                fanned = Job(job.demand,
                             on_complete=lambda _s, t2: self._complete(job, t2),
                             not_before=t, tag=job.tag)
                self.forkjoin.submit(fanned, t)

        self.dacc.submit(
            Job(job.demand, on_complete=dacc_done, not_before=job.not_before,
                tag=job.tag),
            now,
        )

    def capacity(self) -> float:
        return float(self.n_disks)

    def _completions(self) -> int:
        return self.completed_count

    def _busy_seconds(self) -> float:
        return self.dacc.busy_time + sum(
            d._busy_seconds() for d in self.disks
        )

    def _telemetry_extras(self) -> Dict[str, float]:
        return {
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "dacc_busy_s": self.dacc.busy_time,
        }

    def on_crash(self) -> None:
        self.dacc.on_crash()
        for d in self.disks:
            d.on_crash()
        if self._varray is not None:
            self._varray.on_crash()

    def sample(self, now: float) -> Dict[str, float]:
        window = max(now - self._window_start, 1e-12)
        busy = sum(d.hdd._window_busy for d in self.disks)
        self.dacc._window_busy = 0.0
        for d in self.disks:
            d.dcc._window_busy = 0.0
            d.hdd._window_busy = 0.0
        self._window_start = now
        return {
            "utilization": min(busy / (window * self.n_disks), 1.0),
            "queue_length": float(self.queue_length()),
        }
