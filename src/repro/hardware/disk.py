"""Disk agent: controller cache queue followed by the drive queue.

Each disk is a sequence of two queues (section 3.4.2): ``Qdcc`` (the disk
controller cache, served at the controller speed) and ``Qhdd`` (the
mechanical drive, served at the sustained drive speed).  A controller
cache hit bypasses the drive queue.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.core.job import Job
from repro.hardware.composite import CompositeAgent
from repro.queueing.fcfs import FCFSQueue


class Disk(CompositeAgent):
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

    agent_type = "disk"

    def __init__(
        self,
        name: str,
        controller_bps: float,
        drive_bps: float,
        cache_hit_rate: float = 0.0,
        seed: int | None = None,
    ) -> None:
        super().__init__(name)
        if not 0.0 <= cache_hit_rate <= 1.0:
            raise ValueError("cache hit rate must be in [0, 1]")
        self.dcc = FCFSQueue(f"{name}.dcc", rate=controller_bps, servers=1)
        self.hdd = FCFSQueue(f"{name}.hdd", rate=drive_bps, servers=1)
        self.cache_hit_rate = float(cache_hit_rate)
        self._rng = random.Random(seed)
        self.cache_hits = 0
        self.cache_misses = 0
        self.completed_count = 0
        self._adopt_children()

    def _child_agents(self):
        return (self.dcc, self.hdd)

    # ------------------------------------------------------------------
    def _complete(self, job: Job, t: float) -> None:
        self.completed_count += 1
        job.finish(t)

    def enqueue(self, job: Job, now: float) -> None:
        hit = self._rng.random() < self.cache_hit_rate
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

        def dcc_done(_sub: Job, t: float) -> None:
            if hit:
                self._complete(job, t)
            else:
                self.hdd.submit(
                    Job(job.demand,
                        on_complete=lambda _s, t2: self._complete(job, t2),
                        not_before=t, tag=job.tag),
                    t,
                )

        self.dcc.submit(
            Job(job.demand, on_complete=dcc_done, not_before=job.not_before,
                tag=job.tag),
            now,
        )

    def capacity(self) -> float:
        return 1.0  # utilization is normalized to the bottleneck drive

    def _completions(self) -> int:
        return self.completed_count

    def _busy_seconds(self) -> float:
        return self.dcc.busy_time + self.hdd.busy_time

    def _telemetry_extras(self) -> Dict[str, float]:
        return {
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "hdd_busy_s": self.hdd.busy_time,
        }

    def on_crash(self) -> None:
        self.dcc.on_crash()
        self.hdd.on_crash()

    def sample(self, now: float) -> Dict[str, float]:
        window = max(now - self._window_start, 1e-12)
        busy = self.hdd._window_busy  # drive is the bottleneck resource
        self.dcc._window_busy = 0.0
        self.hdd._window_busy = 0.0
        self._window_start = now
        return {
            "utilization": min(busy / window, 1.0),
            "queue_length": float(self.queue_length()),
        }
