"""Memory agent: caching and occupancy (Fig 3-5).

Memory is the only component not modeled as a queue (section 3.4.2).  It
addresses two effects:

* **Caching** — a cache hit bypasses the downstream CPU/IO queues; the hit
  rate is an empirical parameter.
* **Occupancy** — an amount of memory is allocated for the duration of the
  processing in the CPU and I/O queues and released afterwards.

The validation chapter (section 5.3.3) found this model too coarse against
real servers whose kernels maintain flat memory pools; the agent therefore
also supports a ``pool_bytes`` floor so that the reported occupancy
reproduces the flat physical profile when configured that way.
"""

from __future__ import annotations

from typing import Dict

from repro.core.agent import Agent
from repro.core.job import Job
from repro.hardware.storage import HitStream


class Memory(Agent, HitStream):
    """Byte-occupancy tracker with a probabilistic cache-hit model.

    Parameters
    ----------
    size_bytes:
        Installed memory capacity.
    cache_hit_rate:
        Probability that a request is served from cache (bypassing
        downstream queues).
    pool_bytes:
        Minimum occupancy reported, modeling OS/runtime memory pools
        (0 disables the floor — the thesis's original client-driven
        estimate).
    seed:
        Seed for the cache-hit Bernoulli draws (determinism in tests);
        a cache whose hit rate is 0 never draws.
    """

    agent_type = "memory"

    def __init__(
        self,
        name: str,
        size_bytes: float,
        cache_hit_rate: float = 0.0,
        pool_bytes: float = 0.0,
        seed: int | None = None,
    ) -> None:
        super().__init__(name)
        if size_bytes <= 0:
            raise ValueError("memory size must be positive")
        if not 0.0 <= cache_hit_rate <= 1.0:
            raise ValueError("cache hit rate must be in [0, 1]")
        if pool_bytes < 0 or pool_bytes > size_bytes:
            raise ValueError("pool size must be in [0, size_bytes]")
        self.size_bytes = float(size_bytes)
        self.cache_hit_rate = float(cache_hit_rate)
        self.pool_bytes = float(pool_bytes)
        self.allocated = 0.0
        self.peak_allocated = 0.0
        self.failed_allocations = 0
        self._seed = seed

    # ------------------------------------------------------------------
    def is_cache_hit(self) -> bool:
        """Draw whether the next access bypasses downstream queues."""
        rate = self.cache_hit_rate
        return rate > 0.0 and self._rng.random() < rate

    def allocate(self, nbytes: float) -> bool:
        """Reserve ``nbytes``; returns False (and counts) when exhausted."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self.allocated + nbytes > self.size_bytes:
            self.failed_allocations += 1
            return False
        self.allocated += nbytes
        self.peak_allocated = max(self.peak_allocated, self.allocated)
        return True

    def release(self, nbytes: float) -> None:
        """Release a previous allocation."""
        self.allocated = max(self.allocated - nbytes, 0.0)

    @property
    def occupancy_bytes(self) -> float:
        """Reported occupancy, including the OS/runtime pool floor."""
        return max(self.allocated, self.pool_bytes)

    @property
    def occupancy_fraction(self) -> float:
        return self.occupancy_bytes / self.size_bytes

    # ------------------------------------------------------------------
    # Agent protocol: memory consumes no time-sliced work.
    # ------------------------------------------------------------------
    def enqueue(self, job: Job, now: float) -> None:
        # a memory "job" is an instantaneous allocate-and-complete
        self.allocate(job.demand)
        job.finish(now)

    def next_event_time(self) -> float:
        # passive: allocations complete instantly, so the agent never
        # holds work and never has a pending event
        return float("inf")

    def advance_to(self, t: float) -> None:
        pass

    def queue_length(self) -> int:
        return 0

    def _completions(self) -> int:
        return self.arrivals  # allocations complete instantly

    def _telemetry_extras(self) -> Dict[str, float]:
        return {
            "occupancy_bytes": self.occupancy_bytes,
            "peak_allocated": self.peak_allocated,
            "failed_allocations": float(self.failed_allocations),
        }

    def sample(self, now: float) -> Dict[str, float]:
        self._window_start = now
        return {
            "utilization": self.occupancy_fraction,
            "occupancy_bytes": self.occupancy_bytes,
            "queue_length": 0.0,
        }
