"""Runtime invariant checker: conservation laws at monitor boundaries.

The checker is a pluggable engine hook following the same null-object
pattern as :class:`~repro.observability.trace.TraceRecorder` and
:class:`~repro.observability.metrics.MetricsRegistry`: ``make_checker``
returns ``None`` for the off modes, so an unchecked run pays exactly one
``is not None`` test per boundary and is bit-identical to a build that
predates the checker.

When armed, the engine calls :meth:`InvariantChecker.on_boundary` after
every monitor phase (all active agents are already synced to ``now``)
and :meth:`InvariantChecker.on_run_end` when ``run()`` returns.  Checks
are pure reads — the checker observes but never perturbs, so an armed
run produces the same records, series and checkpoint fingerprints as an
unchecked one.

Checks
------
``monotone``
    The engine clock and every agent's local clock never move backwards,
    and no agent's clock runs ahead of the engine.
``non_negative``
    Queue lengths and telemetry counters are non-negative; cumulative
    busy time never decreases.
``capacity``
    Between two boundaries no station accrues more busy server-seconds
    than ``window * capacity`` (work conservation's upper bound).
    Applied to leaf queue stations, where busy accounting is crisp.
``conservation``
    Flow conservation per agent: ``arrivals == completions + in_flight
    + drops`` with ``in_flight >= 0``.  Strict equality between
    ``in_flight`` and the live queue length is asserted for leaf queue
    stations fed through ``submit()``; composites (RAID stripes fan one
    parent job into n sub-jobs) get the weaker drained-implies-settled
    form.  Shed jobs never enter ``arrivals`` (admission refuses them),
    so shedding needs no term here.
``littles_law``
    Optional (armed by the ``"full"`` spec): a boundary-sampled
    time-average queue length per leaf station is reconciled against
    ``completions * mean_sojourn / elapsed`` from the per-agent metrics
    histograms.  Both are estimators, so the tolerance is loose and the
    check only arms after ``min_completions``.
``fingerprint``
    Optional (armed by ``"full"`` when a session is attached): the
    checkpoint state fingerprint is computed twice every
    ``fingerprint_every`` boundaries and must be identical — hashing
    must be a pure function of state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple,
)

from repro.core.agent import Agent
from repro.core.errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import Simulator

_EPS = 1e-6
_INF = float("inf")

#: checks that run by default when the checker is armed
DEFAULT_CHECKS = ("monotone", "non_negative", "capacity", "conservation")
#: everything, including the statistical / expensive checks
ALL_CHECKS = DEFAULT_CHECKS + ("littles_law", "fingerprint")


@dataclass(frozen=True)
class Violation:
    """One failed invariant check."""

    time: float
    check: str
    agent: Optional[str]
    detail: str

    def __str__(self) -> str:
        where = f" agent={self.agent}" if self.agent else ""
        return f"[t={self.time:.6f}] {self.check}{where}: {self.detail}"


def _is_leaf(agent: "Agent", leaf_types: Dict[type, bool]) -> bool:
    """Whether ``agent`` is a leaf queue station with crisp 1:1 job
    accounting; ``leaf_types`` memoizes the verdict per agent class."""
    cls = type(agent)
    is_leaf = leaf_types.get(cls)
    if is_leaf is None:
        from repro.hardware.cpu import CPU, TimeSharedCPU
        from repro.queueing.fcfs import FCFSQueue
        from repro.queueing.ps import PSQueue

        is_leaf = leaf_types[cls] = issubclass(
            cls, (FCFSQueue, PSQueue, TimeSharedCPU, CPU))
    return is_leaf


def _ledger_verdict(arrivals: int, completions: int, drops: int,
                    qlen: int, in_flight: int, is_leaf: bool) -> str:
    """The message of a failed conservation check."""
    if in_flight < 0:
        return (f"negative in-flight: arrivals={arrivals} "
                f"completions={completions} drops={drops}")
    if is_leaf:
        return (f"arrivals != completions + queued + in-service + "
                f"drops: arrivals={arrivals} "
                f"completions={completions} drops={drops} "
                f"live={qlen}")
    # composites over-count live jobs mid-stripe, but a drained
    # composite must have settled its ledger
    return f"drained (queue empty) but in-flight={in_flight}"


class InvariantChecker:
    """Asserts conservation laws at every monitor boundary.

    Parameters
    ----------
    mode:
        ``"strict"`` raises :class:`InvariantViolation` at the first
        failure; ``"warn"`` records every violation (``.violations``)
        and emits ``invariant_violation`` events when an event log is
        attached, letting the run finish.
    checks:
        Iterable of check names (see module docstring); defaults to
        :data:`DEFAULT_CHECKS`.
    littles_tolerance:
        Relative residual allowed between the two independent L
        estimates (both are sampled estimators).
    min_completions:
        Little's-law reconciliation only arms for stations with at
        least this many completions.
    fingerprint_every:
        Recompute the checkpoint fingerprint twice every N boundaries
        (0 disables; needs :meth:`attach_session`).
    """

    def __init__(
        self,
        *,
        mode: str = "strict",
        checks: Optional[Iterable[str]] = None,
        littles_tolerance: float = 0.35,
        min_completions: int = 200,
        fingerprint_every: int = 0,
    ) -> None:
        if mode not in ("strict", "warn"):
            raise ValueError(f"invariant mode must be strict|warn, got {mode!r}")
        chosen = tuple(checks) if checks is not None else DEFAULT_CHECKS
        unknown = set(chosen) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown invariant checks: {sorted(unknown)}")
        self.mode = mode
        self.checks = frozenset(chosen)
        self.littles_tolerance = float(littles_tolerance)
        self.min_completions = int(min_completions)
        self.fingerprint_every = int(fingerprint_every)
        self.violations: List[Violation] = []
        self.boundaries = 0
        self._events = None
        self._session = None
        self._last_now = -_INF
        # Little's law accumulators: agent -> [queue_len_integral, last_t]
        self._l_int: Dict["Agent", List[float]] = {}
        self._leaf_types: Dict[type, bool] = {}
        # per registered agent: [agent, is_leaf, capacity, capacity
        # slack, swept yet, last local time, last busy seconds, and its
        # bound busy-seconds, queue-length and completions readers, the
        # first and last None where they only return ``busy_time`` or
        # ``completed_count``: an attribute load costs less than a call]
        self._rows: List[list] = []
        self._rows_of: Optional[List["Agent"]] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_events(self, events: Any) -> None:
        """Emit ``invariant_violation`` events into a structured log."""
        self._events = events

    def attach_session(self, session: Any) -> None:
        """Enable the fingerprint-stability check against a session."""
        self._session = session

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def on_boundary(self, now: float, sim: "Simulator") -> None:
        """Run every armed check; called after the monitor phase."""
        self.boundaries += 1
        checks = self.checks
        if "monotone" in checks and now < self._last_now - _EPS:
            self._flag(now, "monotone", None,
                       f"engine clock moved backwards: {self._last_now:.9f}"
                       f" -> {now:.9f}")
        window = now - self._last_now if self._last_now != -_INF else now
        agents = sim.agents
        rows = self._rows
        if len(rows) != len(agents) or self._rows_of is not agents:
            rows = self._agent_rows(agents)
        little = "littles_law" in checks
        leaf_q: List[Tuple["Agent", int]] = []
        monotone = "monotone" in checks
        non_negative = "non_negative" in checks
        capacity = "capacity" in checks and window > _EPS
        conservation = "conservation" in checks
        # conservation verdicts are flagged after every per-agent check,
        # so a strict run still raises the same violation first
        ledger: List[Tuple[str, str]] = []
        ahead = now + _EPS
        # one busy and one queue-length read per agent per boundary,
        # shared by every check
        for row in rows:
            (agent, is_leaf, cap, slack, swept, last_local, last_busy,
             busy_of, qlen_of, done_of) = row
            lt = agent.local_time
            if monotone:
                if lt < last_local - _EPS:
                    self._flag(now, "monotone", agent.name,
                               f"local clock moved backwards: "
                               f"{last_local:.9f} -> {lt:.9f}")
                if lt > ahead:
                    self._flag(now, "monotone", agent.name,
                               f"local clock t={lt:.9f} is ahead of the "
                               f"engine t={now:.9f}")
            busy = agent.busy_time if busy_of is None else busy_of()
            qlen = qlen_of()
            arrivals = agent.arrivals
            drops = agent.drops
            if non_negative:
                if qlen < 0:
                    self._flag(now, "non_negative", agent.name,
                               f"queue length {qlen} < 0")
                if busy < last_busy - _EPS:
                    self._flag(now, "non_negative", agent.name,
                               f"busy time decreased: {last_busy:.9f} -> "
                               f"{busy:.9f}")
                if (arrivals < 0 or drops < 0
                        or agent.shed < 0 or agent.retries < 0):
                    self._flag(now, "non_negative", agent.name,
                               "negative telemetry counter")
            if is_leaf:
                if little:
                    leaf_q.append((agent, qlen))
                if (capacity and swept
                        and busy - last_busy > window * cap + slack):
                    self._flag(now, "capacity", agent.name,
                               f"accrued {busy - last_busy:.9f} busy "
                               f"server-seconds in a {window:.9f} s "
                               f"window with capacity {cap:g}")
            row[4] = True
            row[5] = lt
            row[6] = busy
            if conservation:
                done = (agent.completed_count if done_of is None
                        else done_of())
                # an agent fed through enqueue() (an internal sub-stage
                # used standalone) never opened its submit-side ledger
                if arrivals or done <= 0:
                    in_flight = arrivals - done - drops
                    if in_flight < 0 or (
                            in_flight != qlen if is_leaf
                            else qlen == 0 and in_flight != 0):
                        ledger.append((agent.name, _ledger_verdict(
                            arrivals, done, drops, qlen, in_flight, is_leaf)))
        for name, message in ledger:
            self._flag(now, "conservation", name, message)
        if little:
            self._accumulate_little(now, leaf_q)
        if ("fingerprint" in checks and self._session is not None
                and self.fingerprint_every > 0
                and self.boundaries % self.fingerprint_every == 0):
            self._check_fingerprint(now)
        self._last_now = now

    def _agent_rows(self, agents: List["Agent"]) -> List[list]:
        """One row per registered agent (see ``_rows``).  Agents only
        ever get appended, so a grown list extends the rows; another
        list rebuilds them, keeping the state of agents already seen."""
        rows = self._rows
        if self._rows_of is not agents:
            seen = {row[0]: row[4:7] for row in rows}
            rows = []
        else:
            seen = {}
        for agent in agents[len(rows):]:
            is_leaf = _is_leaf(agent, self._leaf_types)
            cap = agent.capacity() if is_leaf else 0.0
            cls = type(agent)
            busy_of = (None if cls._busy_seconds is Agent._busy_seconds
                       else agent._busy_seconds)
            done_of = (None if cls._completions is Agent._counted_completions
                       else agent._completions)
            rows.append([agent, is_leaf, cap, _EPS * max(1.0, cap),
                         *seen.get(agent, (False, 0.0, 0.0)),
                         busy_of, agent.queue_length, done_of])
        self._rows = rows
        self._rows_of = agents
        return rows

    def on_run_end(self, now: float, sim: "Simulator") -> None:
        """Final boundary sweep plus the end-of-run reconciliations."""
        self.on_boundary(now, sim)
        if "littles_law" in self.checks:
            self._check_little(now, sim)

    # ------------------------------------------------------------------
    # individual checks
    # ------------------------------------------------------------------
    def _accumulate_little(self, now: float,
                           leaf: List[Tuple["Agent", int]]) -> None:
        """``leaf``: each leaf station with its queue length this
        boundary."""
        for agent, qlen in leaf:
            acc = self._l_int.get(agent)
            if acc is None:
                self._l_int[agent] = [0.0, now]
                continue
            integral, last_t = acc
            if now > last_t:
                # left-rectangle on the boundary-sampled queue length
                acc[0] = integral + qlen * (now - last_t)
                acc[1] = now

    def _check_little(self, now: float, sim: "Simulator") -> None:
        for agent, (integral, _last) in self._l_int.items():
            met = agent._metrics
            if met is None or now <= _EPS:
                continue
            met.flush()
            n = met.sojourn.count
            if n < self.min_completions:
                continue
            l_sampled = integral / now
            l_little = met.sojourn.sum / now  # = lambda_hat * W_bar
            scale = max(l_sampled, l_little, 0.5)
            residual = abs(l_sampled - l_little) / scale
            if residual > self.littles_tolerance:
                self._flag(now, "littles_law", agent.name,
                           f"time-average L={l_sampled:.4f} vs "
                           f"lambda*W={l_little:.4f} "
                           f"(residual {residual:.2%} > "
                           f"{self.littles_tolerance:.2%}, n={n})")

    def _check_fingerprint(self, now: float) -> None:
        from repro.core.checkpoint import state_fingerprint

        a = state_fingerprint(self._session)["hash"]
        b = state_fingerprint(self._session)["hash"]
        if a != b:
            self._flag(now, "fingerprint", None,
                       f"state fingerprint is not a pure function of "
                       f"state: {a[:12]} != {b[:12]}")

    # ------------------------------------------------------------------
    def _flag(self, now: float, check: str, agent: Optional[str],
              detail: str) -> None:
        v = Violation(now, check, agent, detail)
        self.violations.append(v)
        if self._events is not None:
            self._events.emit("invariant_violation", now, check=check,
                              agent=agent, detail=detail)
        if self.mode == "strict":
            raise InvariantViolation(str(v))

    def report(self) -> Dict[str, Any]:
        """JSON-ready summary of what was checked and what failed."""
        return {
            "mode": self.mode,
            "checks": sorted(self.checks),
            "boundaries": self.boundaries,
            "violations": [
                {"time": v.time, "check": v.check, "agent": v.agent,
                 "detail": v.detail}
                for v in self.violations
            ],
            "ok": not self.violations,
        }

    @property
    def ok(self) -> bool:
        return not self.violations


def make_checker(spec: Any) -> Optional[InvariantChecker]:
    """Normalize an invariants spec into a checker (or ``None`` = off).

    Accepted forms mirror the trace/metrics factories:

    - ``None`` / ``False`` / ``"null"`` / ``"off"`` -> ``None`` (an
      unchecked run stays bit-identical to one without the feature);
    - ``True`` / ``"on"`` / ``"strict"`` -> strict checker with the
      default checks;
    - ``"warn"`` -> record-only checker (run finishes, violations
      collected and emitted as events);
    - ``"full"`` -> strict checker with every check armed, including
      Little's-law reconciliation and fingerprint stability;
    - a mapping -> keyword arguments for :class:`InvariantChecker`;
    - a prebuilt :class:`InvariantChecker` -> used as-is.
    """
    if spec is None or spec is False:
        return None
    if isinstance(spec, InvariantChecker):
        return spec
    if isinstance(spec, str):
        key = spec.lower()
        if key in ("null", "off", "none", ""):
            return None
        if key in ("on", "strict", "true"):
            return InvariantChecker(mode="strict")
        if key == "warn":
            return InvariantChecker(mode="warn")
        if key == "full":
            return InvariantChecker(mode="strict", checks=ALL_CHECKS,
                                    fingerprint_every=8)
        raise ValueError(f"unknown invariants mode {spec!r}")
    if spec is True:
        return InvariantChecker(mode="strict")
    if isinstance(spec, dict):
        return InvariantChecker(**spec)
    raise TypeError(f"cannot build an invariant checker from {spec!r}")
