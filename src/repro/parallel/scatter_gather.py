"""Classic scatter-gather tick execution (section 4.3.4, Figs 4-2/4-3).

Every tick, a time-increment message is posted to each agent's port — one
work item per agent handler — and the master blocks on a multiple-item
receiver waiting for all acknowledgements before advancing the clock.
Agent-interaction continuations may fire concurrently with time-increment
handlers, so every agent's state access is wrapped in a per-agent
exclusive interleave (race protection, section 4.3.4).

This is exactly the mechanism the thesis measured in Table 4.1: the
per-handler pairing/dispatch overhead exceeds the handler's work, so
adding worker threads buys nothing (and under the GIL, less than
nothing).
"""

from __future__ import annotations

import threading
from typing import Iterable, List

from repro.core.agent import Agent
from repro.parallel.coordination import MultipleItemReceiver
from repro.parallel.ports import Arbiter, Dispatcher


class ScatterGatherExecutor:
    """Parallel tick executor using one work item per agent handler."""

    def __init__(self, agents: Iterable[Agent], threads: int = 2) -> None:
        self.agents: List[Agent] = list(agents)
        if not self.agents:
            raise ValueError("need at least one agent")
        self.dispatcher = Dispatcher(threads=threads, name="sg")
        self.arbiter = Arbiter(self.dispatcher)
        self._locks = {id(a): threading.Lock() for a in self.agents}
        self.ticks = 0

    # ------------------------------------------------------------------
    def tick(self, now: float, dt: float) -> None:
        """Run one synchronized time step across all agents."""
        done = threading.Event()
        sync_port = self.arbiter.create_port("sync")
        MultipleItemReceiver(
            sync_port, len(self.agents), lambda ok, err: done.set()
        )

        def make_handler(agent: Agent):
            lock = self._locks[id(agent)]

            def handle(_msg) -> None:
                # exclusive interleave between the time-increment handler
                # and any interaction handler touching this agent
                with lock:
                    agent.sync_to(now + dt)
                sync_port.post(agent.name)

            return handle

        # scatter: one active message per agent
        for agent in self.agents:
            port = self.arbiter.create_port(f"{agent.name}.time")
            port.arm(make_handler(agent))
            port.post((now, dt))

        # gather: wait for every acknowledgement
        self.dispatcher.drain()
        if not done.wait(timeout=60.0):
            raise RuntimeError("scatter-gather barrier timed out")
        self.ticks += 1

    def run(self, until: float, dt: float) -> None:
        """Run the discrete time loop to ``until``."""
        t = 0.0
        while t < until - 1e-9:
            self.tick(t, dt)
            t += dt

    def close(self) -> None:
        self.dispatcher.stop()
