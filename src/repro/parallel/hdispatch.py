"""H-Dispatch tick execution (section 4.3.5, Fig 4-5).

The adaptation of Holmes et al.'s H-Dispatch model: as many worker
threads as cores, always alive, *pulling* agent sets from a global
H-Dispatch queue instead of being pushed one virtual thread per handler.
Each worker processes the agents of a set sequentially, reusing local
variables (no per-handler allocation, no garbage-collection stalls) and
load balancing follows from the pull discipline: workers stay busy until
the global queue is empty, then post to the time-synchronization port.

The thesis decouples the time-increment and agent-interaction phases
(they can no longer overlap once handlers are batched); this executor
does the same: continuations produced during a tick are queued and
applied in a separate interaction step after the barrier.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Iterable, List, Optional, Sequence

from repro.core.agent import Agent


class HDispatchExecutor:
    """Pull-based parallel tick executor over agent sets.

    Parameters
    ----------
    agents:
        The holonic multi-agent system's flattened agent list.
    threads:
        Worker-thread count (the thesis fixes it to the core count).
    agent_set_size:
        Number of agents per H-Dispatch queue entry (64 delivered the
        thesis's best results, Table 4.2).
    """

    def __init__(
        self,
        agents: Iterable[Agent],
        threads: int = 2,
        agent_set_size: int = 64,
    ) -> None:
        self.agents: List[Agent] = list(agents)
        if not self.agents:
            raise ValueError("need at least one agent")
        if threads < 1:
            raise ValueError("H-Dispatch needs at least one worker")
        if agent_set_size < 1:
            raise ValueError("agent set size must be >= 1")
        self.threads = threads
        self.agent_set_size = agent_set_size
        self._queue: "queue.SimpleQueue[Optional[tuple]]" = queue.SimpleQueue()
        self._barrier = threading.Semaphore(0)
        self._interactions: "queue.SimpleQueue[Callable[[], None]]" = queue.SimpleQueue()
        self._stop = False
        self.ticks = 0
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"hd-{i}", daemon=True)
            for i in range(threads)
        ]
        for w in self._workers:
            w.start()

    # ------------------------------------------------------------------
    def _agent_sets(self) -> List[Sequence[Agent]]:
        size = self.agent_set_size
        return [
            self.agents[i : i + size] for i in range(0, len(self.agents), size)
        ]

    def _worker_loop(self) -> None:
        while True:
            entry = self._queue.get()
            if entry is None:
                return
            agent_set, now, dt = entry
            # sequential execution within the set: local-variable reuse,
            # no per-handler dispatch
            for agent in agent_set:
                agent.sync_to(now + dt)
            self._barrier.release()

    # ------------------------------------------------------------------
    def defer_interaction(self, fn: Callable[[], None]) -> None:
        """Register an agent interaction for the post-tick step."""
        self._interactions.put(fn)

    def tick(self, now: float, dt: float) -> None:
        """One time-increment step followed by the agent-interaction step."""
        sets = self._agent_sets()
        for agent_set in sets:
            self._queue.put((agent_set, now, dt))
        for _ in sets:
            if not self._barrier.acquire(timeout=60.0):
                raise RuntimeError("H-Dispatch time barrier timed out")
        # decoupled agent-interaction step (section 4.3.5)
        while True:
            try:
                fn = self._interactions.get_nowait()
            except queue.Empty:
                break
            fn()
        self.ticks += 1

    def run(self, until: float, dt: float) -> None:
        t = 0.0
        while t < until - 1e-9:
            self.tick(t, dt)
            t += dt

    def close(self) -> None:
        if self._stop:
            return
        self._stop = True
        for _ in self._workers:
            self._queue.put(None)
        for w in self._workers:
            w.join(timeout=5.0)
