"""Multi-socket multi-core CPU agent: ``p x M/M/q - FCFS`` (Fig 3-4).

The CPU is an array of ``p`` socket queues, each with ``q`` core servers
consuming *cycles*.  Jobs are balanced across sockets by joining the
shortest socket queue.  The service rate of every core is the clock
frequency in Hz; hyper-threading is modeled by inflating the core count by
an empirically measured speedup factor, as the thesis prescribes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.core.agent import Agent
from repro.core.job import Job
from repro.hardware.composite import CompositeAgent
from repro.queueing.fcfs import FCFSQueue

_INF = float("inf")


class CPU(CompositeAgent):
    """Processor agent with ``sockets`` x ``cores`` cycle servers.

    Parameters
    ----------
    frequency_hz:
        Clock frequency of each core: cycles consumed per second.
    sockets, cores:
        ``p`` socket queues of ``q`` cores each.
    hyperthreading:
        Multiplicative effective-core factor (1.0 = disabled); the thesis
        suggests calibrating it from measured speedup.
    """

    agent_type = "cpu"

    def __init__(
        self,
        name: str,
        frequency_hz: float,
        sockets: int = 1,
        cores: int = 1,
        hyperthreading: float = 1.0,
    ) -> None:
        super().__init__(name)
        if sockets < 1 or cores < 1:
            raise ValueError("sockets and cores must be >= 1")
        if hyperthreading < 1.0:
            raise ValueError("hyper-threading factor must be >= 1.0")
        self.frequency_hz = float(frequency_hz)
        self.sockets = int(sockets)
        self.cores = int(cores)
        effective_cores = max(int(round(cores * hyperthreading)), 1)
        self.socket_queues: List[FCFSQueue] = [
            FCFSQueue(f"{name}.socket{i}", rate=frequency_hz, servers=effective_cores)
            for i in range(sockets)
        ]
        self._adopt_children()

    def _child_agents(self):
        return self.socket_queues

    @property
    def total_cores(self) -> int:
        """Total physical core count ``p * q``."""
        return self.sockets * self.cores

    # ------------------------------------------------------------------
    def enqueue(self, job: Job, now: float) -> None:
        """Join the shortest socket queue (load balancing across sockets)."""
        if self._lone is not None:
            self._lone.enqueue(job, now)
            return
        target = min(self.socket_queues, key=lambda q: q.queue_length())
        target.enqueue(job, now)

    def capacity(self) -> float:
        return float(sum(q.servers for q in self.socket_queues))

    def on_crash(self) -> None:
        for q in self.socket_queues:
            q.on_crash()

    def sample(self, now: float) -> Dict[str, float]:
        window = max(now - self._window_start, 1e-12)
        busy = sum(q._window_busy for q in self.socket_queues)
        for q in self.socket_queues:
            q._window_busy = 0.0
            q._window_start = now
        self._window_start = now
        util = busy / (window * self.capacity())
        return {
            "utilization": min(util, 1.0),
            "queue_length": float(self.queue_length()),
        }

    def seconds_for_cycles(self, cycles: float) -> float:
        """Uncontended service time for a ``cycles`` demand on one core."""
        return cycles / self.frequency_hz

    # plain loops: the invariant checker reads both on every sweep, and
    # a generator costs more than the one or two sockets it walks
    def _completions(self) -> int:
        n = 0
        for q in self.socket_queues:
            n += q.completed_count
        return n

    def _busy_seconds(self) -> float:
        busy = 0.0
        for q in self.socket_queues:
            busy += q.busy_time
        return busy

    def _telemetry_extras(self) -> Dict[str, float]:
        return {
            f"socket{i}_busy_s": q.busy_time
            for i, q in enumerate(self.socket_queues)
        }


class TimeSharedCPU(Agent):
    """Time-shared multithreading CPU (thesis section 9.1.1, future work).

    The baseline :class:`CPU` queues software threads FCFS behind the
    cores; real operating systems *timeslice*: when runnable threads
    exceed the cores, every thread makes progress but the machine pays
    context-switch overhead per quantum.  This model serves all runnable
    jobs processor-sharing style across ``cores`` servers; while
    oversubscribed, the aggregate rate is derated by the context-switch
    overhead fraction ``csw_cycles / (quantum * frequency)``.

    Parameters
    ----------
    context_switch_cycles:
        Direct + indirect (cache-disturbance) cost of one switch.
    quantum_s:
        Scheduler timeslice length.
    """

    agent_type = "cpu-ts"

    def __init__(
        self,
        name: str,
        frequency_hz: float,
        cores: int = 1,
        context_switch_cycles: float = 2e5,
        quantum_s: float = 0.004,
    ) -> None:
        super().__init__(name)
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if cores < 1:
            raise ValueError("need at least one core")
        if context_switch_cycles < 0 or quantum_s <= 0:
            raise ValueError("invalid scheduler parameters")
        self.frequency_hz = float(frequency_hz)
        self.cores = int(cores)
        self.context_switch_cycles = float(context_switch_cycles)
        self.quantum_s = float(quantum_s)
        self.runnable: List[Job] = []
        self._waiting = deque()  # jobs under the timestamp guard
        self.completed_count = 0
        self._now = 0.0
        # remaining-work decrements are anchored here and only move at
        # share-change events, never at measurement boundaries
        self._share_anchor = 0.0
        self._busy_anchor = 0.0
        self._advancing = False

    # ------------------------------------------------------------------
    def switch_overhead_fraction(self) -> float:
        """Fraction of capacity lost to switching while oversubscribed."""
        return min(
            self.context_switch_cycles / (self.quantum_s * self.frequency_hz),
            0.95,
        )

    def _per_job_rate(self, n: int) -> float:
        """Cycles/s each of ``n`` runnable threads receives."""
        if n <= self.cores:
            return self.frequency_hz
        total = self.cores * self.frequency_hz * (
            1.0 - self.switch_overhead_fraction()
        )
        return total / n

    # ------------------------------------------------------------------
    # queue interface
    # ------------------------------------------------------------------
    def enqueue(self, job: Job, now: float) -> None:
        self._advance_to(now)
        if now > self._now:
            self._now = now
        self._waiting.append(job)
        self._advance_to(now)
        self._reschedule()

    def queue_length(self) -> int:
        return len(self.runnable) + len(self._waiting)

    def capacity(self) -> float:
        return float(self.cores)

    _completions = Agent._counted_completions

    # ------------------------------------------------------------------
    # exact-event contract
    # ------------------------------------------------------------------
    def next_event_time(self) -> float:
        if self._paused:
            return _INF
        return self._next_internal()

    def advance_to(self, t: float) -> None:
        self._advance_to(t)

    def sync_to(self, t: float) -> None:
        self._advance_to(t)
        self._accrue_to(t)
        if t > self.local_time:
            self.local_time = t

    # ------------------------------------------------------------------
    # internal event machinery
    # ------------------------------------------------------------------
    def _next_internal(self) -> float:
        nxt = _INF
        if self.runnable:
            rate = self._per_job_rate(len(self.runnable))
            min_r = min(j.remaining for j in self.runnable)
            nxt = self._share_anchor + min_r / rate
        if self._waiting:
            # time-sharing admits every eligible thread, not just the head
            due = min(j.not_before for j in self._waiting)
            if due < self._now:
                due = self._now
            if due < nxt:
                nxt = due
        return nxt

    def _advance_to(self, t: float) -> None:
        if self._advancing or self._paused:
            return
        self._advancing = True
        processed = False
        try:
            # a completion callback may fail the CPU: stop there
            while not self._paused:
                e = self._next_internal()
                if e > t + 1e-9:
                    break
                self._process_at(e)
                processed = True
        finally:
            self._advancing = False
        if processed:
            self._reschedule()

    def _process_at(self, t: float) -> None:
        self._accrue_to(t)
        finished: List[Job] = []
        if self.runnable:
            rate = self._per_job_rate(len(self.runnable))
            min_r = min(j.remaining for j in self.runnable)
            due = self._share_anchor + min_r / rate
            if due <= t + 1e-12:
                completers = {id(j) for j in self.runnable
                              if j.remaining == min_r}
            else:
                completers = set()
            self._settle_to(t)
            if completers:
                keep: List[Job] = []
                for job in self.runnable:
                    if id(job) in completers or job.remaining <= 1e-12:
                        finished.append(job)
                    else:
                        keep.append(job)
                self.runnable = keep
        for job in finished:
            self.completed_count += 1
            job.finish(t)
        if not self._paused:
            self._admit_at(t)
        if t > self._share_anchor:
            self._share_anchor = t
        if t > self._now:
            self._now = t

    def _admit_at(self, t: float) -> None:
        # time-sharing admits every eligible thread immediately
        still_guarded = []
        while self._waiting:
            job = self._waiting.popleft()
            if job.not_before > t + 1e-9:
                still_guarded.append(job)
            else:
                if job.start_time is None:
                    job.start_time = t
                self.runnable.append(job)
        self._waiting.extend(still_guarded)

    def _settle_to(self, t: float) -> None:
        if self.runnable and t > self._share_anchor:
            dec = (t - self._share_anchor) * self._per_job_rate(
                len(self.runnable))
            for job in self.runnable:
                job.remaining -= dec
        if t > self._share_anchor:
            self._share_anchor = t

    def _accrue_to(self, t: float) -> None:
        if t <= self._busy_anchor:
            return
        if self.runnable and not self._paused:
            busy = min(len(self.runnable), self.cores)
            self.record_busy((t - self._busy_anchor) * busy)
        self._busy_anchor = t

    # ------------------------------------------------------------------
    # failure semantics
    # ------------------------------------------------------------------
    def on_pause(self, now: float | None) -> None:
        p = self._now if now is None else max(now, self._now)
        if p < self._busy_anchor:
            p = self._busy_anchor
        if p > self._busy_anchor and self.runnable:
            busy = min(len(self.runnable), self.cores)
            self.record_busy((p - self._busy_anchor) * busy)
        self._busy_anchor = p
        self._settle_to(p)
        if p > self._now:
            self._now = p

    def repair(self, now: float) -> None:
        # a running CPU has no service to resume, and moving its
        # anchors to ``now`` would drop the work served since them
        if self._paused:
            super().repair(now)

    def on_repair(self, now: float) -> None:
        r = max(now, self._now)
        self._now = r
        if self._share_anchor < r:
            self._share_anchor = r
        if self._busy_anchor < r:
            self._busy_anchor = r
        self._advance_to(r)

    def on_crash(self) -> None:
        for job in reversed(self.runnable):
            job.remaining = job.demand
            job.start_time = None
            self._waiting.appendleft(job)
        self.runnable = []
