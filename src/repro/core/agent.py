"""Agent and holon base classes (section 3.3.2).

Agents are the lowest-level hardware components (CPU, NIC, disk...); each
has an internal state manipulated by incoming jobs and by the engine
advancing it to its own next event.  Holons are recursive containers: a
server holon encapsulates hardware agents, a tier holon encapsulates
server holons, and so on up to data centers and the global
infrastructure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Iterator, List

from repro.core.job import Job

_INF = float("inf")


class Agent(ABC):
    """Base class for all hardware-component agents.

    Subclasses implement the exact-event contract —
    :meth:`next_event_time` returns the *exact* absolute time at which
    the engine must next wake the agent and :meth:`advance_to` processes
    every internal event at its own timestamp — plus :meth:`enqueue` and
    :meth:`queue_length`.  The base class maintains the agent's local
    clock and utilization accounting.
    """

    agent_type: str = "agent"

    def __init__(self, name: str) -> None:
        self.name = name
        self.local_time = 0.0
        self.busy_time = 0.0  # cumulative busy server-seconds
        self._window_busy = 0.0  # busy time since the last sample
        self._window_start = 0.0
        # set by the engine at registration; lets submit() move the agent
        # onto the active list without the engine scanning every agent
        self._waker = None
        # reschedule hook: set by the engine at registration (or by a
        # composite parent for its internal sub-agents).  Called whenever
        # the agent's earliest pending event may have changed; the event
        # kernel uses it to maintain its wake heap incrementally.
        self._sched = None
        # engine wake-heap bookkeeping (lazy deletion): the wake entry for
        # this agent is valid iff its timestamp equals ``_wake_at``
        self._wake_at = _INF
        # set by the engine at registration when tracing is enabled;
        # internal sub-agents (never registered) stay untraced
        self._tracer = None
        # per-agent metrics handle (AgentMetrics), set by the engine at
        # registration when metrics are enabled; same zero-cost-off
        # pattern as the tracer
        self._metrics = None
        self._paused = False
        # telemetry counters (see Agent.telemetry)
        self.arrivals = 0
        self.drops = 0
        self.queue_hwm = 0
        # resilience counters (see repro.resilience): attributed to the
        # agent the event happened *at* — timeouts/shed on the entry
        # agent of the server that timed out or shed, retries on the
        # entry agent of the server the retry was sent to
        self.retries = 0
        self.timeouts = 0
        self.shed = 0

    # ------------------------------------------------------------------
    # control signals
    # ------------------------------------------------------------------
    @abstractmethod
    def next_event_time(self) -> float:
        """The earliest time the engine must wake the agent; ``inf``
        means never (idle or paused).

        Usually the earliest internal state change (completion or
        admission).  An agent may report a later time when the events
        before it are visible to nothing outside the agent (a PS link's
        lone admission): :meth:`advance_to`, :meth:`sync_to` and the
        agent's own ``enqueue`` and :meth:`fail` still process those
        events at their own timestamps before acting on anything
        later."""

    @abstractmethod
    def advance_to(self, t: float) -> None:
        """Process internal events (admissions, completions) up to ``t``,
        each at its own timestamp.  Does not synchronize ``local_time`` —
        see :meth:`sync_to`."""

    def sync_to(self, t: float) -> None:
        """Advance through internal events up to ``t`` and pin the local
        clock (and any lazily-accrued accounting) to ``t``.

        The engine calls this at measurement boundaries (monitor firings,
        end of run) so samples see up-to-date busy time and local clocks;
        between boundaries agents are only touched at their own events.
        The ch. 4 tick executors drive each agent through one tick with
        ``sync_to(now + dt)``.  A paused (failed) agent consumes no work:
        queued jobs wait for the repair.
        """
        self.advance_to(t)
        if t > self.local_time:
            self.local_time = t

    def _reschedule(self) -> None:
        """Notify the engine (or composite parent) that this agent's
        earliest pending event may have changed."""
        if self._sched is not None:
            self._sched(self)

    def submit(self, job: Job, now: float) -> None:
        """Submit a job under the timestamp-consistency rule (section 4.3.3).

        A job whose ``not_before`` lies in this agent's future is enqueued
        and *waits* until the agent's clock catches up — the queues check
        ``not_before`` before starting service, which is the thesis's
        guarantee that an interaction scheduled at ``t > t1`` is never
        processed during ``t0 < t < t1``.  A job arriving *behind* the
        agent's local clock (its sender completed mid-tick while this
        agent had already advanced) simply starts at the agent's current
        time; the discrepancy is bounded by one tick, the resolution of
        the discrete loop.
        """
        job.enqueue_time = now
        if self._tracer is not None:
            # before enqueueing: a job can finish inside ``enqueue``
            self._tracer.on_submit(self, job, now)
        self.enqueue(job, now)
        self.arrivals += 1
        depth = self.queue_length()
        if depth > self.queue_hwm:
            self.queue_hwm = depth
        # no metrics bump here: agent_arrivals_total is derived from the
        # ``arrivals`` telemetry counter at collect time (engine hook)
        if self._waker is not None:
            self._waker(self)

    @abstractmethod
    def enqueue(self, job: Job, now: float) -> None:
        """Place a job into the agent's queueing structure."""

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def sample(self, now: float) -> Dict[str, float]:
        """Return a state sample and reset the sampling window.

        The default sample reports windowed utilization (busy fraction of
        the available service capacity since the previous sample) and the
        instantaneous queue length.
        """
        window = max(now - self._window_start, 1e-12)
        util = self._window_busy / (window * max(self.capacity(), 1e-12))
        self._window_busy = 0.0
        self._window_start = now
        return {
            "utilization": min(util, 1.0),
            "queue_length": float(self.queue_length()),
        }

    def capacity(self) -> float:
        """Number of parallel servers in this agent (for utilization norm)."""
        return 1.0

    @abstractmethod
    def queue_length(self) -> int:
        """Number of jobs currently held (waiting + in service)."""

    def record_busy(self, busy_server_seconds: float) -> None:
        """Accumulate busy time for utilization accounting."""
        self.busy_time += busy_server_seconds
        self._window_busy += busy_server_seconds

    def record_drop(self, n: int = 1) -> None:
        """Count jobs rejected/aborted instead of served (admission
        control, failure injection)."""
        self.drops += n

    def record_retry(self, n: int = 1) -> None:
        """Count resilience-layer retries routed at this agent."""
        self.retries += n

    def record_timeout(self, n: int = 1) -> None:
        """Count request timeouts observed against this agent."""
        self.timeouts += n

    def record_shed(self, n: int = 1) -> None:
        """Count requests shed by queue-depth load shedding here."""
        self.shed += n

    # ------------------------------------------------------------------
    # telemetry protocol
    # ------------------------------------------------------------------
    def telemetry(self):
        """Lifetime counters of this agent as an ``AgentTelemetry``.

        Uniform across all hardware and topology agents: arrivals,
        completions, drops, busy server-seconds, current queue depth and
        the queue-length high-water mark; device-specific gauges ride in
        ``extras``.
        """
        # imported lazily: repro.observability must not be a hard import
        # dependency of the core agent module
        from repro.observability.telemetry import AgentTelemetry

        return AgentTelemetry(
            name=self.name,
            agent_type=self.agent_type,
            arrivals=self.arrivals,
            completions=self._completions(),
            drops=self.drops,
            busy_time=self._busy_seconds(),
            queue_length=self.queue_length(),
            queue_hwm=self.queue_hwm,
            retries=self.retries,
            timeouts=self.timeouts,
            shed=self.shed,
            extras=self._telemetry_extras(),
        )

    def _completions(self) -> int:
        """Jobs fully served; queue subclasses report their counter and
        composites aggregate their internal stages."""
        return 0

    def _counted_completions(self) -> int:
        """``_completions`` of an agent that counts the jobs it served in
        ``completed_count`` (queues, disks, arrays)."""
        return self.completed_count

    def _busy_seconds(self) -> float:
        """Cumulative busy server-seconds; composites sum their stages
        (their own ``record_busy`` is never called)."""
        return self.busy_time

    def _telemetry_extras(self) -> Dict[str, float]:
        """Agent-specific gauges merged into the telemetry record."""
        return {}

    # ------------------------------------------------------------------
    # failure injection (section 1.1, "Continuous Failure")
    # ------------------------------------------------------------------
    @property
    def paused(self) -> bool:
        """Whether the agent is failed/paused (serves no work)."""
        return self._paused

    def fail(self, crash: bool = True, now: float | None = None) -> None:
        """Stop serving work; with ``crash`` in-service progress is lost.

        Queued jobs remain queued and resume after :meth:`repair` — the
        crash-restart-retry pattern of commodity clusters.  ``now`` is the
        failure instant; when omitted, the agent freezes progress at its
        last processed event.
        """
        self._paused = True
        self.on_pause(now)
        if crash:
            self.on_crash()
        self._reschedule()

    def repair(self, now: float) -> None:
        """Return the agent to service at simulation time ``now``."""
        self._paused = False
        self.local_time = max(self.local_time, now)
        self.on_repair(now)
        if self._waker is not None and not self.idle():
            self._waker(self)
        self._reschedule()

    def on_pause(self, now: float | None) -> None:
        """Freeze in-service progress at the failure instant; default no-op."""

    def on_repair(self, now: float) -> None:
        """Resume interrupted service from ``now``; default no-op."""

    def on_crash(self) -> None:
        """Discard in-service progress (crash semantics); default no-op."""

    # ------------------------------------------------------------------
    def idle(self) -> bool:
        """True when the agent holds no work (engine may skip its tick)."""
        return self.queue_length() == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class Holon:
    """A recursive container of agents and sub-holons (section 3.3.2).

    The state of a holon is the composition of the states of the agents it
    encapsulates; its behaviour is the combination of their behaviours.
    """

    holon_type: str = "holon"

    def __init__(self, name: str) -> None:
        self.name = name
        self._agents: List[Agent] = []
        self._children: List["Holon"] = []

    def add_agent(self, agent: Agent) -> Agent:
        """Attach a leaf agent to this holon and return it."""
        self._agents.append(agent)
        return agent

    def add_child(self, holon: "Holon") -> "Holon":
        """Attach a sub-holon (e.g. a server inside a tier) and return it."""
        self._children.append(holon)
        return holon

    @property
    def children(self) -> List["Holon"]:
        return list(self._children)

    @property
    def local_agents(self) -> List[Agent]:
        return list(self._agents)

    def agents(self) -> Iterator[Agent]:
        """Iterate over all agents in this holarchy, depth first."""
        yield from self._agents
        for child in self._children:
            yield from child.agents()

    def find_agents(self, agent_type: str) -> List[Agent]:
        """All agents of a given ``agent_type`` in the holarchy."""
        return [a for a in self.agents() if a.agent_type == agent_type]

    def sample(self, now: float) -> Dict[str, Dict[str, float]]:
        """Collect samples from every agent, keyed by agent name."""
        return {a.name: a.sample(now) for a in self.agents()}

    def telemetry(self) -> Dict[str, "object"]:
        """Telemetry records of every agent in the holarchy, by name."""
        return {a.name: a.telemetry() for a in self.agents()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"agents={len(self._agents)}, children={len(self._children)})"
        )


def flatten(holons: Iterable[Holon]) -> List[Agent]:
    """Flatten a collection of holons into a single agent list."""
    out: List[Agent] = []
    for h in holons:
        out.extend(h.agents())
    return out
