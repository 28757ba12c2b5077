"""The simulation engine: timer, event calendar and stepping kernel.

The engine reproduces the thesis's platform loop (section 4.3.1): a
centralized timer signals agents and only proceeds when all agents
acknowledged (trivially true in the sequential engine); the collector
component is interleaved every ``sample_interval`` of simulated time.

Three stepping modes are provided:

``fixed``
    Advance by exactly ``dt`` per tick — the thesis's literal loop.
    Agent-internal events are still processed at their exact timestamps
    (the queues are exact-event machines), but calendar events and
    monitors fire on the tick grid.

``adaptive``
    Advance straight to the earliest pending boundary — calendar event,
    monitor deadline or agent event — found by *polling* every active
    agent's ``next_event_time()``.  Exact for piecewise-constant
    queueing dynamics.

``event``
    Same boundaries as ``adaptive``, but discovered incrementally: agents
    *push* their next-event time into a lazy-deletion min-heap through
    the ``Agent._reschedule`` hook whenever their earliest pending
    completion changes, so boundary selection is an O(log n) heap peek
    instead of an O(active) scan.  Bit-identical to ``adaptive`` by
    construction (both process the same events at the same timestamps)
    and the default mode.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from collections import defaultdict
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.agent import Agent, Holon
from repro.core.clock import SimClock
from repro.core.errors import SimulationError
from repro.observability.metrics import (
    MetricsRegistry,
    _bucket_index,
    make_registry,
)
from repro.observability.profiler import EngineProfiler
from repro.observability.trace import TraceRecorder, make_recorder

EventFn = Callable[[float], None]

_INF = float("inf")

MODES = ("fixed", "adaptive", "event")


class _Monitor:
    """Periodic callback with its own cadence (collector, reporters...)."""

    __slots__ = ("interval", "fn", "next_due")

    def __init__(self, interval: float, fn: EventFn, first_due: float) -> None:
        self.interval = interval
        self.fn = fn
        self.next_due = first_due


class Simulator:
    """Discrete-event simulator over a set of agents.

    Parameters
    ----------
    dt:
        Base tick in simulated seconds: the grid of ``fixed`` mode.  The
        ``adaptive`` and ``event`` modes step from boundary to boundary
        and do not read it.
    mode:
        ``"event"`` (default), ``"adaptive"`` or ``"fixed"`` stepping
        (see module docstring).
    trace:
        Trace mode: ``None``/``"null"`` (off, zero hot-path cost),
        ``"full"``, ``"sampling:p"``, or a prebuilt
        :class:`~repro.observability.trace.TraceRecorder`.
    profile:
        When true, account wall-clock time per engine phase in
        :attr:`profiler`.
    metrics:
        Metrics mode: ``None``/``"null"`` (off, zero hot-path cost),
        ``"on"``/``"full"``, or a prebuilt
        :class:`~repro.observability.metrics.MetricsRegistry` (shared
        across engine, queues, resilience and cascades).
    invariants:
        Invariant-checker mode: ``None``/``"null"`` (off, zero hot-path
        cost), ``"strict"``/``"warn"``/``"full"``, or a prebuilt
        :class:`~repro.verification.invariants.InvariantChecker`.  When
        armed, conservation laws are asserted after every monitor phase
        and at the end of each run; the checks are pure reads, so an
        armed run produces bit-identical results.
    """

    def __init__(
        self,
        dt: float = 0.01,
        mode: str = "event",
        trace: Union[None, str, TraceRecorder] = None,
        profile: bool = False,
        metrics: Union[None, bool, str, MetricsRegistry] = None,
        invariants: Any = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown stepping mode {mode!r}")
        if invariants is not None:
            # lazy import: the null path must not pay for (or depend on)
            # the verification package
            from repro.verification.invariants import make_checker

            self.invariants = make_checker(invariants)
        else:
            self.invariants = None
        self.clock = SimClock(dt=dt)
        self.mode = mode
        self.trace: Optional[TraceRecorder] = make_recorder(trace)
        self.profiler: Optional[EngineProfiler] = (
            EngineProfiler() if profile else None
        )
        self.metrics: Optional[MetricsRegistry] = make_registry(metrics)
        if self.metrics is not None:
            # The boundary path accumulates into a plain {n: boundaries}
            # dict — ONE dict op per boundary — and a collect hook
            # derives everything else from it at export time: boundary
            # and wake totals, the wakes-per-boundary histogram, and the
            # live heap-size gauge.  Only the calendar-event counter is
            # bumped live (its site fires far less often and is guarded
            # by a non-zero batch).
            m = self.metrics
            m.counter("engine_boundaries_total")
            m.counter("engine_agent_wakes_total")
            self._m_events = m.counter("engine_calendar_events_total")
            self._m_wake_counts: Dict[int, int] = defaultdict(int)
            m.add_collect_hook(self._collect_engine_metrics)
        self.agents: List[Agent] = []
        # insertion-ordered (agent -> registration sequence) so wake order
        # (and thus sub-boundary interleaving) is deterministic run-to-run
        # and identical between the polled and heap-driven modes
        self._active: Dict[Agent, int] = {}
        self._active_counter = itertools.count()
        self._calendar: List[Tuple[float, int, EventFn]] = []
        self._calendar_counter = itertools.count()
        # monitor registry (registration order) + deadline heap
        self._monitors: List[_Monitor] = []
        self._monitor_heap: List[Tuple[float, int, _Monitor]] = []
        # lazy-deletion wake heap: an entry (when, seq, agent) is valid
        # iff ``when == agent._wake_at``
        self._wakes: List[Tuple[float, int, Agent]] = []
        self._wake_counter = itertools.count()
        # agents whose next-event time may have changed since the last
        # re-key; flushed in batch so one boundary computes each agent's
        # next event once, not once per reschedule (insertion-ordered
        # dict for run-to-run determinism)
        self._dirty: Dict[Agent, None] = {}
        self._running = False

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_agent(self, agent: Agent) -> Agent:
        """Register a leaf agent with the kernel."""
        self.agents.append(agent)
        agent._waker = self._wake
        # reschedule hook: in event mode a re-key marker is a bare dict
        # insert (C-level, no Python frame); the other modes never read
        # next-event hints between boundaries, so the hook stays unset
        # and ``_reschedule`` short-circuits
        if self.mode == "event":
            agent._sched = self._dirty.setdefault
        else:
            agent._sched = None
        agent._tracer = self.trace
        if self.metrics is not None:
            agent._metrics = self.metrics.agent(agent.name)
        if not agent.idle():
            self._wake(agent)
        agent.local_time = max(agent.local_time, self.clock.now)
        agent._reschedule()
        return agent

    def _wake(self, agent: Agent) -> None:
        """Move an agent onto the active set (called from Agent.submit).

        The boundary loop prunes a station that holds no work, so every
        uncontended job wakes its station again: this is one frame."""
        active = self._active
        if agent not in active:
            active[agent] = next(self._active_counter)
            # the agent slept through prior boundaries; bring it current
            agent.local_time = max(agent.local_time, self.clock.now)

    def add_holon(self, holon: Holon) -> Holon:
        """Register every agent of a holarchy with the kernel."""
        for agent in holon.agents():
            self.add_agent(agent)
        return holon

    def add_agents(self, agents: Iterable[Agent]) -> None:
        for a in agents:
            self.add_agent(a)

    # ------------------------------------------------------------------
    # event calendar
    # ------------------------------------------------------------------
    def schedule(self, when: float, fn: EventFn) -> None:
        """Schedule ``fn(now)`` to fire at absolute simulation time ``when``.

        Events firing in the past (relative to the current clock) are an
        error: they would require rolling back agent state.
        """
        if when < self.clock.now - 1e-9:
            raise SimulationError(
                f"cannot schedule event at t={when:.6f} before current time "
                f"t={self.clock.now:.6f}"
            )
        heapq.heappush(self._calendar, (when, next(self._calendar_counter), fn))

    def schedule_after(self, delay: float, fn: EventFn) -> None:
        """Schedule ``fn`` to fire ``delay`` seconds from now."""
        self.schedule(self.clock.now + delay, fn)

    def add_monitor(
        self, interval: float, fn: EventFn, first_due: float | None = None
    ) -> None:
        """Register a periodic callback (e.g. the measurement collector)."""
        if interval <= 0:
            raise ValueError("monitor interval must be positive")
        due = self.clock.now + interval if first_due is None else first_due
        mon = _Monitor(interval, fn, due)
        self._monitors.append(mon)
        heapq.heappush(self._monitor_heap, (due, len(self._monitors) - 1, mon))

    def _monitor_deadlines(self) -> List[Tuple[float, float]]:
        """(interval, next_due) per monitor in registration order — part
        of the checkpoint fingerprint (kernel heap state)."""
        return [(m.interval, m.next_due) for m in self._monitors]

    def pending_events(self) -> int:
        """Calendar entries not yet fired — a cheap backlog gauge used
        by sharded-run heartbeats (``repro top``'s *pending* column)."""
        return len(self._calendar)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Run the simulation until simulated time ``until``.

        One parameterized loop serves all three modes and both the plain
        and profiled paths: select the next boundary, advance the clock,
        process due agent events, calendar events and monitors, repeat.
        Events scheduled *by* horizon-time events drain deterministically
        before the run returns.
        """
        with self._one_run():
            self._advance(until)

    def run_windowed(
        self,
        until: float,
        window: float,
        at_window_end: Callable[[float, float], None] | None = None,
    ) -> int:
        """Run to ``until`` in fixed windows, pausing between them.

        The windows are one run: the boundary loop stops at each window
        end, but the end-of-run drain happens once, at ``until``, so the
        results are bit-exact against ``run(until)`` (busy-time floats
        included).  Windowing only creates synchronization points:
        ``at_window_end(window_start, window_end)`` fires after each
        window, which is where a sharded coordinator exchanges
        cross-shard envelopes.  Returns the number of windows run.
        """
        if window <= 0:
            raise SimulationError("window must be positive")
        windows = 0
        with self._one_run():
            t = self.clock.now
            while t < until - 1e-9:
                end = min(t + window, until)
                self._advance(end)
                if at_window_end is not None:
                    at_window_end(t, end)
                windows += 1
                t = end
        return windows

    @contextmanager
    def _one_run(self) -> Iterator[None]:
        """Bracket one run (re-entrance guard, profiler, ``engine_run*``
        metrics) and finish it once: bring every active agent current
        for measurement, prune the idle ones and run the end-of-run
        invariant sweep.

        Syncing splits an agent's busy-time sum at the sync instant, so
        doing it only here keeps a windowed run's floats identical to
        an uninterrupted one's."""
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        prof = self.profiler
        met = self.metrics
        clk = _time.perf_counter
        self._running = True
        wall0 = clk() if met is not None else 0.0
        sim0 = self.clock.now
        if prof is not None:
            prof.start_run()
        try:
            yield
            now = self.clock.now
            for agent in list(self._active):
                agent.sync_to(now)
                if agent.idle():
                    self._active.pop(agent, None)
            if self.invariants is not None:
                self.invariants.on_run_end(now, self)
        finally:
            self._running = False
            if prof is not None:
                prof.end_run()
            if met is not None:
                wall = clk() - wall0
                met.counter("engine_runs_total").value += 1
                met.gauge("engine_run_wall_seconds").value = wall
                met.gauge("engine_run_sim_seconds").value = (
                    self.clock.now - sim0)
                if wall > 0.0:
                    met.gauge("engine_sim_wall_ratio").value = (
                        (self.clock.now - sim0) / wall)

    def _advance(self, until: float) -> None:
        """The boundary loop: process every boundary up to ``until``,
        then land exactly on ``until`` and drain anything due there
        (including events scheduled by horizon-time events).

        One loop serves all three modes, the profiled path and the
        horizon drain; the hot state is bound to locals once per call,
        so a boundary makes no helper calls.  Each boundary runs, in
        order: flush the re-key set (event mode), select the boundary,
        set the clock, advance the due agents in activation order,
        re-key them and prune the idle ones, drain the calendar, and
        run the monitor phase when a monitor is due."""
        prof = self.profiler
        clk = _time.perf_counter
        met = self.metrics
        wake_counts = self._m_wake_counts if met is not None else None
        clock = self.clock
        mode = self.mode
        event_mode = mode == "event"
        fixed = mode == "fixed"
        dt = clock.dt
        cal = self._calendar
        mh = self._monitor_heap
        wakes = self._wakes
        dirty = self._dirty
        active = self._active
        counter = self._wake_counter
        heappush = heapq.heappush
        heappop = heapq.heappop
        horizon = until + 1e-9

        def seq_of(agent: Agent) -> int:
            return active.get(agent, 0)

        last = False
        while True:
            t0 = clk() if prof is not None else 0.0
            # --- re-key every agent marked since the last boundary
            if dirty:
                for agent in dirty:
                    w = agent.next_event_time()
                    if w != agent._wake_at:
                        agent._wake_at = w
                        if w != _INF:
                            heappush(wakes, (w, next(counter), agent))
                dirty.clear()
            # --- select the boundary
            now = clock.now
            if last:
                t = now
            else:
                if fixed:
                    t = (now + min(dt, until - now)
                         if now < until - 1e-9 else None)
                else:
                    t = cal[0][0] if cal else _INF
                    if mh and mh[0][0] < t:
                        t = mh[0][0]
                    if event_mode:
                        # peek the wake heap, dropping stale entries
                        while wakes:
                            when, _, agent = wakes[0]
                            if when == agent._wake_at:
                                if when < t:
                                    t = when
                                break
                            heappop(wakes)
                    else:  # adaptive: poll every active agent
                        for agent in active:
                            ne = agent.next_event_time()
                            if ne < t:
                                t = ne
                    if t > horizon:
                        t = None
                    elif t < now:
                        t = now
                if prof is not None:
                    prof.record("step_select", clk() - t0)
                if t is None:
                    # nothing more is due by the horizon: land on it and
                    # run one last boundary there
                    last = True
                    t = until if now < until else now
            if t > now:
                now = clock.now = float(t)
                clock.tick_index += 1
            limit = now + 1e-9
            # --- wake phase: advance agents whose events are due
            t1 = clk() if prof is not None else 0.0
            if event_mode:
                due: List[Agent] = []
                while wakes and wakes[0][0] <= limit:
                    when, _, agent = heappop(wakes)
                    if when == agent._wake_at:
                        # mark consumed so the agent's post-advance
                        # reschedule re-pushes even if the new time
                        # happens to match
                        agent._wake_at = -_INF
                        due.append(agent)
                if len(due) > 1:
                    due.sort(key=seq_of)
                for agent in due:
                    agent.advance_to(now)
                # re-key every due agent: the pop marked ``_wake_at``
                # consumed, and composite bubble suppression may have
                # swallowed the agent's own post-advance reschedule, so
                # the push is unconditional.  Other agents dirtied by the
                # advances flush at the next boundary.  A finite wake
                # time proves pending work, so the (recursive, possibly
                # expensive) idle() scan runs only without one.
                for agent in due:
                    dirty.pop(agent, None)
                    w = agent.next_event_time()
                    agent._wake_at = w
                    if w != _INF:
                        heappush(wakes, (w, next(counter), agent))
                    elif agent.idle():
                        active.pop(agent, None)
            else:
                due = [a for a in active if a.next_event_time() <= limit]
                for agent in due:
                    agent.advance_to(now)
                for agent in due:
                    if agent.idle():  # may have been refilled mid-loop
                        active.pop(agent, None)
                        agent._wake_at = _INF
            if prof is not None:
                prof.record("wake", clk() - t1, calls=len(due))
                prof.ticks += 1
                prof.agent_ticks += len(due)
            if wake_counts is not None:
                wake_counts[len(due)] += 1
            # --- calendar events (chained same-time events drain here)
            t1 = clk() if prof is not None else 0.0
            fired = 0
            while cal and cal[0][0] <= limit:
                when, _, fn = heappop(cal)
                fired += 1
                fn(now if fixed else when)
            if fired and met is not None:
                self._m_events.value += fired
            if prof is not None:
                prof.record("events", clk() - t1)
                t1 = clk()
            # --- monitors
            if mh and mh[0][0] <= limit:
                # measurement boundary: bring every active agent current
                # first so samples see exact busy time and local clocks
                for agent in list(active):
                    agent.sync_to(now)
                # catch up on every missed deadline so averaging windows
                # stay fixed; ties fire in registration order
                while mh and mh[0][0] <= limit:
                    due_at, seq, mon = heappop(mh)
                    # advance the deadline before the callback: a
                    # checkpoint taken inside ``fn`` must fingerprint the
                    # same deadlines a replay (which returns after the
                    # full monitor phase) would see
                    mon.next_due = due_at + mon.interval
                    heappush(mh, (mon.next_due, seq, mon))
                    mon.fn(due_at)
                # invariant sweep after the monitor phase: agents are
                # synced to ``now`` and the checks are pure reads
                if self.invariants is not None:
                    self.invariants.on_boundary(now, self)
            if prof is not None:
                prof.record("monitors", clk() - t1)
            if last:
                return

    def _collect_engine_metrics(self, registry: MetricsRegistry) -> None:
        """Collect hook: derive boundary/wake totals and the
        wakes-per-boundary histogram from the wake-count dict, and read
        the live heap size."""
        hist = registry.histogram("engine_wakes_per_boundary")
        hist.count = 0
        hist.sum = 0.0
        hist.zero = 0
        hist.buckets = {}
        hist.min = _INF
        hist.max = -_INF
        wakes = 0
        for n, c in self._m_wake_counts.items():
            hist.count += c
            wakes += n * c
            if n < hist.min:
                hist.min = n
            if n > hist.max:
                hist.max = n
            if n <= 0:
                hist.zero += c
            else:
                idx = _bucket_index(n)
                hist.buckets[idx] = hist.buckets.get(idx, 0) + c
        hist.sum = float(wakes)
        registry.counter("engine_boundaries_total").value = hist.count
        registry.counter("engine_agent_wakes_total").value = wakes
        registry.gauge("engine_wake_heap_size").value = len(self._wakes)
        # arrivals mirror the always-on telemetry counter, so the submit
        # path pays nothing for metrics (resume replay recomputes
        # telemetry deterministically, keeping the fingerprint stable)
        for agent in self.agents:
            am = agent._metrics
            if am is not None:
                am.arrivals.value = agent.arrivals

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.clock.now
