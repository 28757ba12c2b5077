"""Storage Area Network agent (Fig 3-8).

A SAN request traverses a fiber-channel switch ``Qfcsw``, the disk-array
controller cache ``Qdacc`` and the fiber-channel arbitrated loop
``Qfcal`` before being striped across the member disks.  A cache hit at
``Qdacc`` bypasses the arbitrated loop and the fork-join.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core.job import Job
from repro.queueing.fcfs import FCFSQueue
from repro.queueing.forkjoin import ForkJoin
from repro.hardware.composite import CompositeAgent
from repro.hardware.disk import Disk


class SAN(CompositeAgent):
    """Fiber-channel storage network with ``n`` striped disks.

    Parameters
    ----------
    n_disks:
        Number of disks behind the arbitrated loop.
    fc_switch_bps, array_controller_bps, fc_loop_bps:
        Speeds of ``Qfcsw``, ``Qdacc`` and ``Qfcal`` in bytes per second.
    controller_bps, drive_bps:
        Per-disk controller and drive speeds.
    """

    agent_type = "san"

    def __init__(
        self,
        name: str,
        n_disks: int,
        fc_switch_bps: float,
        array_controller_bps: float,
        fc_loop_bps: float,
        controller_bps: float,
        drive_bps: float,
        array_cache_hit_rate: float = 0.0,
        disk_cache_hit_rate: float = 0.0,
        seed: int | None = None,
    ) -> None:
        super().__init__(name)
        if n_disks < 1:
            raise ValueError("a SAN needs at least one disk")
        self.fcsw = FCFSQueue(f"{name}.fcsw", rate=fc_switch_bps, servers=1)
        self.dacc = FCFSQueue(f"{name}.dacc", rate=array_controller_bps, servers=1)
        self.fcal = FCFSQueue(f"{name}.fcal", rate=fc_loop_bps, servers=1)
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
        return [self.fcsw, self.dacc, self.fcal, *self.disks]

    @property
    def n_disks(self) -> int:
        return len(self.disks)

    # ------------------------------------------------------------------
    def _complete(self, job: Job, t: float) -> None:
        self.completed_count += 1
        job.finish(t)

    def enqueue(self, job: Job, now: float) -> None:
        if self._varray is not None:
            # vector kernel: the whole stage schedule is computed in
            # closed form (same RNG stream order) and only the join is
            # an engine event
            self._varray.request(job, now)
            return
        hit = self._rng.random() < self.array_cache_hit_rate
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

        def fcal_done(_sub: Job, t: float) -> None:
            fanned = Job(job.demand,
                         on_complete=lambda _s, t2: self._complete(job, t2),
                         not_before=t, tag=job.tag)
            self.forkjoin.submit(fanned, t)

        def dacc_done(_sub: Job, t: float) -> None:
            if hit:
                self._complete(job, t)
            else:
                self.fcal.submit(
                    Job(job.demand, on_complete=fcal_done, not_before=t, tag=job.tag),
                    t,
                )

        def fcsw_done(_sub: Job, t: float) -> None:
            self.dacc.submit(
                Job(job.demand, on_complete=dacc_done, not_before=t, tag=job.tag),
                t,
            )

        self.fcsw.submit(
            Job(job.demand, on_complete=fcsw_done, not_before=job.not_before,
                tag=job.tag),
            now,
        )

    # ------------------------------------------------------------------
    def _stages(self):
        return [self.fcsw, self.dacc, self.fcal]

    def capacity(self) -> float:
        return float(self.n_disks)

    def _completions(self) -> int:
        return self.completed_count

    def _busy_seconds(self) -> float:
        return sum(q.busy_time for q in self._stages()) + sum(
            d._busy_seconds() for d in self.disks
        )

    def _telemetry_extras(self) -> Dict[str, float]:
        return {
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "fcsw_busy_s": self.fcsw.busy_time,
        }

    def on_crash(self) -> None:
        for q in self._stages():
            q.on_crash()
        for d in self.disks:
            d.on_crash()
        if self._varray is not None:
            self._varray.on_crash()

    def sample(self, now: float) -> Dict[str, float]:
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
