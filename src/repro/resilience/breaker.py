"""Per-destination circuit breakers and the shared resilience state.

The breaker is the classic three-state machine driven by a sliding
failure-rate window:

::

            failure rate >= threshold
    CLOSED ---------------------------> OPEN
      ^                                  | open_s elapsed
      | probe succeeds                   v
      +------------------------------ HALF_OPEN
                 probe fails: back to OPEN

Two extra transitions couple the breaker to component *health* (the
tier monitor): a server observed down is force-opened immediately —
load balancing ejects it without waiting for the failure window to fill
— and a repaired server moves to half-open so it is re-admitted through
probe traffic instead of taking a full load spike cold.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.resilience.policy import ResiliencePolicy

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Sliding-window failure-rate breaker for one destination."""

    __slots__ = (
        "window_s", "min_calls", "failure_rate", "open_s",
        "half_open_probes", "state", "opened_at", "down", "opens",
        "_events", "_failures", "_probes_in_flight", "_listener",
    )

    def __init__(
        self,
        window_s: float = 30.0,
        min_calls: int = 8,
        failure_rate: float = 0.5,
        open_s: float = 10.0,
        half_open_probes: int = 1,
    ) -> None:
        self.window_s = window_s
        self.min_calls = min_calls
        self.failure_rate = failure_rate
        self.open_s = open_s
        self.half_open_probes = half_open_probes
        self.state = CLOSED
        self.opened_at = float("-inf")
        self.down = False  # force-opened by the health monitor
        self.opens = 0
        self._events: Deque[Tuple[float, bool]] = deque()
        self._failures = 0  # failed outcomes in ``_events``
        self._probes_in_flight = 0
        # observability hook: called as ``listener(new_state, now)`` on
        # every state transition; observes only, never steers the breaker
        self._listener: Optional[Callable[[str, float], None]] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_policy(cls, policy: ResiliencePolicy) -> "CircuitBreaker":
        return cls(
            window_s=policy.breaker_window_s or 30.0,
            min_calls=policy.breaker_min_calls,
            failure_rate=policy.breaker_failure_rate,
            open_s=policy.breaker_open_s,
            half_open_probes=policy.breaker_half_open_probes,
        )

    # ------------------------------------------------------------------
    def allows(self, now: float) -> bool:
        """Whether a new request may target this destination at ``now``.

        Pure with respect to probe accounting: selection code may call
        this for every candidate server; only :meth:`on_selected` counts
        an admitted half-open probe.
        """
        if self.down:
            return False
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self.opened_at < self.open_s:
                return False
            self.state = HALF_OPEN
            self._probes_in_flight = 0
            self._notify(now)
        return self._probes_in_flight < self.half_open_probes

    def on_selected(self, now: float) -> None:
        """The balancer chose this destination; account a probe if
        half-open."""
        if self.state == HALF_OPEN:
            self._probes_in_flight += 1

    def record(self, ok: bool, now: float) -> None:
        """Feed one request outcome into the window / probe logic."""
        if self.state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            if ok:
                self._close(now)
            else:
                self._open(now)
            return
        if self.state == OPEN:
            return  # late outcome of a pre-open request; ignore
        events = self._events
        events.append((now, ok))
        if not ok:
            self._failures += 1
        self._trim(now)
        if (len(events) >= self.min_calls
                and self._failures / len(events) >= self.failure_rate):
            self._open(now)

    # ------------------------------------------------------------------
    # health coupling (tier monitor)
    # ------------------------------------------------------------------
    def mark_down(self, now: float) -> None:
        """Force-open: the destination was observed failed."""
        if not self.down:
            self.down = True
            if self.state != OPEN:
                self._open(now)
            else:
                self.opened_at = now

    def mark_up(self, now: float) -> None:
        """The destination was observed repaired; re-admit via probes."""
        if self.down:
            self.down = False
            self.state = HALF_OPEN
            self._probes_in_flight = 0
            self._notify(now)

    # ------------------------------------------------------------------
    def _open(self, now: float) -> None:
        self.state = OPEN
        self.opened_at = now
        self.opens += 1
        self._events.clear()
        self._failures = 0
        self._notify(now)

    def _close(self, now: float) -> None:
        self.state = CLOSED
        self._events.clear()
        self._failures = 0
        self._probes_in_flight = 0
        self._notify(now)

    def _notify(self, now: float) -> None:
        if self._listener is not None:
            self._listener(self.state, now)

    def _trim(self, now: float) -> None:
        horizon = now - self.window_s
        events = self._events
        while events and events[0][0] < horizon:
            if not events.popleft()[1]:
                self._failures -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CircuitBreaker(state={self.state}, down={self.down}, "
                f"opens={self.opens})")


class ResilienceState:
    """Run-scoped mutable state shared by the resilient cascade path.

    Holds the per-destination breakers, the jitter RNG and the aggregate
    counters surfaced via :meth:`stats` (per-agent attribution rides on
    ``Agent.telemetry()`` separately).
    """

    COUNTERS = ("retries", "timeouts", "shed", "abandoned", "failovers",
                "breaker_rejections", "orphan_completions")

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self.rng = rng if rng is not None else random.Random(0)
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.counters: Dict[str, int] = {c: 0 for c in self.COUNTERS}
        #: breaker factory per destination; set when a policy with
        #: breaking enabled first touches the destination
        self._factory: Callable[[], CircuitBreaker] = CircuitBreaker
        # observability (attach_metrics): registry mirror of the
        # counters, structured event stream for breaker transitions
        self.metrics = None
        self.events = None
        self._mcounters: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def attach_metrics(self, registry, events=None) -> None:
        """Mirror counters into a MetricsRegistry and stream breaker
        transitions into an EventLog; observe-only, never perturbs."""
        self.metrics = registry
        self.events = events
        if registry is not None:
            self._mcounters = {
                c: registry.counter(f"resilience_{c}_total")
                for c in self.COUNTERS
            }
        for dest, br in self.breakers.items():
            br._listener = self._transition_listener(dest)

    def _transition_listener(self, dest: str):
        def on_transition(state: str, now: float) -> None:
            if self.metrics is not None:
                self.metrics.counter(
                    "resilience_breaker_transitions_total",
                    state=state).value += 1
            if self.events is not None:
                self.events.emit("breaker_transition", now,
                                 dest=dest, state=state)
        return on_transition

    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n
        mc = self._mcounters.get(name)
        if mc is None:
            if self.metrics is None:
                return
            mc = self._mcounters[name] = self.metrics.counter(
                f"resilience_{name}_total")
        mc.value += n

    def breaker(self, dest: str,
                policy: Optional[ResiliencePolicy] = None) -> CircuitBreaker:
        br = self.breakers.get(dest)
        if br is None:
            br = (CircuitBreaker.from_policy(policy)
                  if policy is not None else self._factory())
            if self.metrics is not None or self.events is not None:
                br._listener = self._transition_listener(dest)
            self.breakers[dest] = br
        return br

    def allows(self, dest: str, now: float) -> bool:
        """Health predicate used by tier selection (True = admissible)."""
        br = self.breakers.get(dest)
        return True if br is None else br.allows(now)

    def record(self, dest: str, ok: bool, now: float,
               policy: Optional[ResiliencePolicy] = None) -> None:
        if policy is not None and not policy.breaker_enabled:
            return
        before = self.breakers.get(dest)
        was_open = before is not None and before.state == OPEN
        br = self.breaker(dest, policy)
        br.record(ok, now)
        if br.state == OPEN and not was_open:
            pass  # opens counted on the breaker itself

    def on_selected(self, dest: str, now: float) -> None:
        br = self.breakers.get(dest)
        if br is not None:
            br.on_selected(now)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Aggregate counters plus breaker state tallies."""
        out = dict(self.counters)
        out["breaker_opens"] = sum(b.opens for b in self.breakers.values())
        out["breakers_open_now"] = sum(
            1 for b in self.breakers.values() if b.state == OPEN
        )
        return out
