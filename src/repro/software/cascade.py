"""Message-cascade execution on the discrete-event infrastructure.

The :class:`CascadeRunner` launches operations against a
:class:`~repro.topology.network.GlobalTopology`: it resolves cascade
roles to concrete servers (placement + load balancing with per-operation
session affinity), threads each message through the origin leg, the
network path and the destination leg (equations 3.2-3.5), and records
the operation's total response time when the last message lands.

A cascade in flight is data, not a chain of closures.  An operation is
one request object holding its record, placement mapping, session
affinity, message index, trace context and resilience state; a message
is one object that walks origin leg -> path hops -> destination leg on a
single reused :class:`~repro.core.job.Job`, each leg a
:class:`~repro.topology.server.Leg`.  Every step is a bound method of
those objects.  Resilience timeouts are entries in one runner-level
deadline heap, which keeps a single calendar entry armed at the
earliest unsettled deadline.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.agent import Agent
from repro.core.job import Job
from repro.software.client import Client
from repro.software.message import CLIENT, DAEMON
from repro.software.operation import Operation
from repro.software.placement import Placement
from repro.software.resources import R
from repro.topology.network import GlobalTopology
from repro.topology.server import Leg, Server
from repro.topology.tier import TierUnavailableError


@dataclass
class OperationRecord:
    """Completion record of one operation instance.

    ``failed`` marks operations aborted because a required tier had no
    available server (failure injection, section 1.1) or because the
    resilience policy gave up (timeout/shed budget exhausted —
    ``abandoned``).  ``retries`` counts extra delivery attempts the
    operation needed across all of its messages.
    """

    operation: str
    application: str
    client_dc: str
    start: float
    end: float
    failed: bool = False
    retries: int = 0
    abandoned: bool = False

    @property
    def response_time(self) -> float:
        return self.end - self.start


@dataclass(slots=True)
class _Resolved:
    """A resolved endpoint: holon + its data center + role."""

    holon: Server
    dc: str
    role: str


class CascadeRunner:
    """Executes message cascades over a global topology.

    Parameters
    ----------
    topology:
        The infrastructure to run against (agents must also be
        registered with the engine).
    placement:
        Role-to-data-center policy for management tiers.
    """

    def __init__(
        self,
        topology: GlobalTopology,
        placement: Placement,
        seed: int | None = None,
        tracer=None,
        metrics=None,
    ) -> None:
        self.topology = topology
        self.placement = placement
        self.tracer = tracer
        self.metrics = metrics
        self.rng = random.Random(seed)
        self.records: List[OperationRecord] = []
        self.active_operations = 0
        self._observers: List[Callable[[OperationRecord], None]] = []
        self._daemon_hosts: Dict[str, Server] = {}
        # message tags per operation name, built at its first launch
        self._tags: Dict[str, Tuple[str, ...]] = {}
        # resilience layer: None until armed; plain messages never touch
        # it (zero cost when off)
        self._resilience = None
        self._res_state = None
        self._res_schedule: Optional[Callable[[float, Callable], None]] = None
        # (deadline, send sequence, message) of every timed attempt, and
        # the times of the calendar entries armed to fire them
        self._deadlines: List[Tuple[float, int, _Message]] = []
        self._deadline_seq = itertools.count()
        self._armed: List[float] = []

    # ------------------------------------------------------------------
    def on_operation_complete(self, fn: Callable[[OperationRecord], None]) -> None:
        """Register an observer fired on every operation completion."""
        self._observers.append(fn)

    def set_daemon_host(self, dc_name: str, host: Server) -> None:
        """Attach the daemon process host for a data center (ch. 6/7)."""
        self._daemon_hosts[dc_name] = host

    # ------------------------------------------------------------------
    # resilience layer
    # ------------------------------------------------------------------
    def arm_resilience(self, config, scheduler, rng=None):
        """Arm the policy layer for this runner.

        Parameters
        ----------
        config:
            Anything :meth:`ResilienceConfig.coerce` accepts (a config,
            a single policy applied as default, a mapping, or ``None``).
        scheduler:
            ``(when, fn) -> None`` callback used to schedule timeout
            firings and backoff retries — normally ``sim.schedule``.
        rng:
            Jitter RNG; a dedicated substream so backoff draws never
            perturb workload or failure streams.

        Returns the run-scoped :class:`ResilienceState` (breakers +
        counters), or ``None`` when the config is entirely off — in
        which case cascades take the plain path.
        """
        from repro.resilience.breaker import ResilienceState
        from repro.resilience.policy import ResilienceConfig

        config = ResilienceConfig.coerce(config)
        if config is None or not config.enabled:
            self._resilience = None
            self._res_state = None
            self._res_schedule = None
            return None
        self._resilience = config
        self._res_state = ResilienceState(rng)
        self._res_schedule = scheduler
        return self._res_state

    def resilience_stats(self) -> Dict[str, int]:
        """Aggregate resilience counters (empty when not armed)."""
        return {} if self._res_state is None else self._res_state.stats()

    def _arm_deadline(self, deadline: float, message: "_Message") -> None:
        """Time out ``message`` at ``deadline`` unless it settles first."""
        heapq.heappush(self._deadlines,
                       (deadline, next(self._deadline_seq), message))
        armed = self._armed
        if not armed or deadline < armed[0]:
            heapq.heappush(armed, deadline)
            self._res_schedule(deadline, self._deadlines_due)

    def _deadlines_due(self, now: float) -> None:
        """The armed calendar entry: time out every unsettled message due
        at it, in the order they were sent, then arm the next entry at
        the earliest unsettled deadline.

        A message that settled before its deadline leaves a stale heap
        entry, which is dropped here and never re-arms the calendar.
        Timeouts due at one instant fire in send order, from the one
        entry armed for that instant; against other calendar events at
        that instant they take that entry's place (the calendar orders
        same-time entries by insertion).
        """
        due = heapq.heappop(self._armed)
        heap = self._deadlines
        while heap and heap[0][0] <= due:
            message = heapq.heappop(heap)[2]
            request = message.owner
            if request.inflight is message:
                request.within(request.timed_out, now)
        while heap and heap[0][2].owner.inflight is not heap[0][2]:
            heapq.heappop(heap)
        if heap:
            # a fixed-step engine fires this entry at the tick after its
            # time, which may already lie past the next deadline
            nxt = max(heap[0][0], now)
            armed = self._armed
            if not armed or nxt < armed[0]:
                heapq.heappush(armed, nxt)
                self._res_schedule(nxt, self._deadlines_due)

    # ------------------------------------------------------------------
    # operation launch
    # ------------------------------------------------------------------
    def launch(
        self,
        operation: Operation,
        client: Client,
        now: float,
        application: str = "",
        on_complete: Optional[Callable[[OperationRecord], None]] = None,
    ) -> None:
        """Start an operation for ``client`` at simulation time ``now``."""
        mapping = self.placement.resolve(client.dc_name, self.rng)
        self.active_operations += 1
        request = _Request(self, operation, client, application, mapping,
                           now, on_complete)
        tracer = self.tracer
        if tracer is None:
            request.run(now)
            return
        request.ctx = tracer.start_cascade(
            operation.name, application, client.dc_name, now
        )
        # the synchronous prefix of the cascade runs inside its context
        # (the root has no parent span); jobs submitted there carry it
        # and restore it around their continuations
        request.within(request.run, now)

    # ------------------------------------------------------------------
    # message delivery primitives (shared with background jobs)
    # ------------------------------------------------------------------
    def deliver(
        self,
        src: _Resolved,
        dst: _Resolved,
        r: R,
        r_src: R,
        now: float,
        on_complete: Callable[[float], None],
        tag: str = "",
    ) -> None:
        """Run one message: origin leg -> network path -> destination leg.

        ``on_complete(t)`` fires when the message lands.  Called outside
        any operation (background replication, daemon chatter) with
        tracing enabled, the message gets its own anonymous cascade so
        background traffic shows up in traces too.
        """
        message = _Message(self, src, dst, r, r_src, tag, then=on_complete)
        tracer = self.tracer
        if tracer is None or tracer.current is not None:
            message.send(now)
            return
        message.ctx = tracer.start_cascade(tag or "background", "", src.dc,
                                           now)
        tracer.within(message.ctx, None, message.send, now)

    def path_between(self, src: _Resolved, dst: _Resolved) -> List[Agent]:
        """Network agents between two resolved endpoints.

        Cached per endpoint pair in the topology's ``path_cache``, which
        the topology empties whenever its routes change; the returned
        list is shared, so read it, never mutate it.
        """
        key = (src.dc, src.role, dst.dc, dst.role)
        cache = self.topology.path_cache
        path = cache.get(key)
        if path is None:
            path = cache[key] = self._build_path(src, dst)
        return path

    def _build_path(self, src: _Resolved, dst: _Resolved) -> List[Agent]:
        topo = self.topology
        path: List[Agent] = []
        src_dc = topo.datacenter(src.dc)
        dst_dc = topo.datacenter(dst.dc)
        # egress from the source holon to its data center switch
        if src.role in (CLIENT, DAEMON):
            path.append(src_dc.access_link)
        else:
            path.append(src_dc.tier_links[src.role])
        path.append(src_dc.switch)
        if src.dc != dst.dc:
            path.extend(topo.route(src.dc, dst.dc))
            path.append(dst_dc.switch)
        # ingress from the destination switch to the destination holon
        if dst.role in (CLIENT, DAEMON):
            path.append(dst_dc.access_link)
        else:
            path.append(dst_dc.tier_links[dst.role])
        return path

    # ------------------------------------------------------------------
    def resolved(self, holon: Server, dc: str, role: str) -> _Resolved:
        """Public constructor of resolved endpoints (background jobs)."""
        return _Resolved(holon, dc, role)


def _message_tags(name: str, n: int) -> Tuple[str, ...]:
    """The job tags of an operation's ``n`` messages: ``name[i]``."""
    return tuple(f"{name}[{i}]" for i in range(n))


class _Request:
    """One operation in flight, as data.

    Holds the operation record, the placement ``mapping`` and the
    session affinity (role -> resolved endpoint, picked on first use),
    the index of the message in flight, the trace context, and the
    resilience state: the attempt number, the in-flight message
    (``inflight``, ``None`` once that attempt settled — a message that
    lands while it is not the in-flight one is an orphan), its send time
    and the parent span its scheduled steps run under.
    """

    __slots__ = ("runner", "operation", "tags", "client", "application",
                 "mapping", "session", "record", "on_complete", "ctx",
                 "index", "inflight", "policy", "attempt", "sent", "parent")

    def __init__(
        self,
        runner: CascadeRunner,
        operation: Operation,
        client: Client,
        application: str,
        mapping: Dict[str, str],
        now: float,
        on_complete: Optional[Callable[[OperationRecord], None]],
    ) -> None:
        self.runner = runner
        self.operation = operation
        name = operation.name
        n = len(operation.messages)
        tags = runner._tags.get(name)
        if tags is None or len(tags) < n:
            tags = runner._tags[name] = _message_tags(name, n)
        self.tags = tags
        self.client = client
        self.application = application
        self.mapping = mapping
        self.session: Dict[str, _Resolved] = {}
        self.record = OperationRecord(
            operation=name,
            application=application,
            client_dc=client.dc_name,
            start=now,
            end=float("nan"),
        )
        self.on_complete = on_complete
        self.ctx = None
        self.index = 0
        self.inflight: Optional[_Message] = None
        self.policy = None
        self.attempt = 0
        self.sent = now
        self.parent: Optional[int] = None

    # ------------------------------------------------------------------
    def within(self, step: Callable[[float], None], t: float) -> None:
        """Run ``step(t)`` inside this operation's cascade context.

        Calendar entries (the launch aside: timeout firings, backoff
        retries) run outside any context; this restores it, with the
        parent span captured when the step was scheduled, so downstream
        jobs stay attributed — and parent-linked — to this cascade.
        """
        tracer = self.runner.tracer
        if tracer is None:
            step(t)
        else:
            tracer.within(self.ctx, self.parent, step, t)

    def run(self, t: float) -> None:
        """Send the current message, or finish after the last one."""
        messages = self.operation.messages
        index = self.index
        if index >= len(messages):
            self.finish(t)
            return
        spec = messages[index]
        runner = self.runner
        res = runner._resilience
        if res is not None:
            policy = res.for_message(self.application, spec.dst)
            if policy.enabled:
                self.policy = policy
                self.attempt = 0
                self.send_attempt(t)
                return
        self.policy = None
        try:
            src = self.resolve(spec.src)
            dst = self.resolve(spec.dst)
        except TierUnavailableError:
            # the tier is down: the request errors back to the client
            self.finish(t, failed=True)
            return
        message = self.inflight = _Message(
            runner, src, dst, spec.r, spec.r_src, self.tags[index], owner=self)
        message.send(t)

    def delivered(self, message: "_Message", t: float) -> None:
        """A message landed: settle it and move on to the next one."""
        runner = self.runner
        if message is not self.inflight:
            # a timed-out attempt's in-flight work finishing late: its
            # capacity was genuinely consumed but the cascade has moved on
            runner._res_state.count("orphan_completions")
            return
        self.inflight = None
        policy = self.policy
        if policy is not None and message.dst.role not in (CLIENT, DAEMON):
            runner._res_state.record(message.dst.holon.name, True, t, policy)
        self.index += 1
        self.run(t)

    def finish(self, t: float, failed: bool = False) -> None:
        runner = self.runner
        record = self.record
        record.end = t
        record.failed = failed
        runner.active_operations -= 1
        runner.records.append(record)
        if self.ctx is not None:
            runner.tracer.end_cascade(self.ctx, t, failed)
        met = runner.metrics
        if met is not None:
            met.counter("operations_total",
                        operation=record.operation,
                        application=record.application).value += 1
            if failed:
                met.counter("operations_failed_total",
                            operation=record.operation,
                            application=record.application).value += 1
            else:
                met.histogram("operation_latency_seconds",
                              operation=record.operation,
                              application=record.application,
                              ).observe(t - record.start)
        for obs in runner._observers:
            obs(record)
        if self.on_complete is not None:
            self.on_complete(record)

    # ------------------------------------------------------------------
    # endpoint resolution
    # ------------------------------------------------------------------
    def resolve(self, role: str) -> _Resolved:
        found = self.session.get(role)
        if found is None:
            client = self.client
            if role == CLIENT:
                found = _Resolved(client, client.dc_name, CLIENT)
            elif role == DAEMON:
                host = self.runner._daemon_hosts.get(client.dc_name, client)
                found = _Resolved(host, client.dc_name, DAEMON)
            else:
                dc_name = self.mapping[role]
                tier = self.runner.topology.datacenter(dc_name).tier(role)
                found = _Resolved(tier.pick_server(), dc_name, role)
            self.session[role] = found
        return found

    def resolve_resilient(self, role: str, t: float) -> _Resolved:
        if role in (CLIENT, DAEMON):
            return self.resolve(role)
        state = self.runner._res_state
        dc_name = self.mapping[role]
        found = self.session.get(role)
        if found is not None and (
            not found.holon.available or not state.allows(found.holon.name, t)
        ):
            # cached server died or tripped its breaker: fail over
            del self.session[role]
            state.count("failovers")
            found = None
        if found is None:
            tier = self.runner.topology.datacenter(dc_name).tier(role)
            srv = tier.pick_server(health=self.healthy)
            state.on_selected(srv.name, t)
            found = self.session[role] = _Resolved(srv, dc_name, role)
        return found

    def healthy(self, server: Server) -> bool:
        """The breaker's verdict on ``server`` at this attempt's time."""
        return self.runner._res_state.allows(server.name, self.sent)

    def evict(self, role: str) -> None:
        # drop session affinity so the next resolution re-picks; this is
        # what turns a timeout into a failover
        if role not in (CLIENT, DAEMON) and role in self.mapping and (
            self.session.pop(role, None) is not None
        ):
            self.runner._res_state.count("failovers")

    # ------------------------------------------------------------------
    # resilient delivery (only reached when a policy is on)
    # ------------------------------------------------------------------
    def send_attempt(self, t: float) -> None:
        """Send attempt number ``attempt`` of the current message."""
        runner = self.runner
        state = runner._res_state
        policy = self.policy
        index = self.index
        spec = self.operation.messages[index]
        self.sent = t
        try:
            src = self.resolve_resilient(spec.src, t)
            dst = self.resolve_resilient(spec.dst, t)
        except TierUnavailableError:
            # every server failed or breaker-ejected right now; back off
            # and retry rather than erroring instantly
            state.count("breaker_rejections")
            self.retry_or_abandon(t, "unavailable")
            return
        holon = dst.holon
        if self.attempt > 0:
            holon.nic.record_retry()
        if (
            policy.shed_queue_depth is not None
            and spec.dst not in (CLIENT, DAEMON)
            and holon.load() >= policy.shed_queue_depth
        ):
            # queue-depth load shedding: fail fast instead of stacking
            # more work on an overloaded destination
            state.count("shed")
            holon.nic.record_shed()
            state.record(holon.name, False, t, policy)
            tracer = runner.tracer
            if tracer is not None:
                tracer.record_marker(self.ctx, holon.name, "shed", t, t,
                                     tag=f"{self.tags[index]} shed")
            self.retry_or_abandon(t, "shed")
            return
        message = self.inflight = _Message(
            runner, src, dst, spec.r, spec.r_src, self.tags[index], owner=self)
        message.send(t)
        if policy.timeout_s is not None and self.inflight is message:
            if runner.tracer is not None:
                self.parent = runner.tracer.current_parent
            runner._arm_deadline(t + policy.timeout_s, message)

    def timed_out(self, t: float) -> None:
        """The in-flight attempt missed its deadline: settle it as a
        failure, drop its session affinity, then retry or give up."""
        runner = self.runner
        state = runner._res_state
        holon = self.inflight.dst.holon
        self.inflight = None
        index = self.index
        spec = self.operation.messages[index]
        state.count("timeouts")
        holon.nic.record_timeout()
        if spec.dst not in (CLIENT, DAEMON):
            state.record(holon.name, False, t, self.policy)
        self.evict(spec.src)
        self.evict(spec.dst)
        tracer = runner.tracer
        if tracer is not None:
            tracer.record_marker(self.ctx, holon.name, "timeout", self.sent,
                                 t, tag=f"{self.tags[index]} timeout")
        self.retry_or_abandon(t, "timeout")

    def retry_or_abandon(self, t: float, reason: str) -> None:
        runner = self.runner
        state = runner._res_state
        policy = self.policy
        n = self.attempt
        if n + 1 >= policy.max_attempts:
            state.count("abandoned")
            self.record.abandoned = True
            self.finish(t, failed=True)
            return
        state.count("retries")
        self.record.retries += 1
        delay = policy.backoff_delay(n, state.rng)
        tracer = runner.tracer
        if tracer is not None:
            index = self.index
            tracer.record_marker(
                self.ctx, self.operation.messages[index].dst, "retry", t,
                t + delay,
                tag=f"{self.tags[index]} retry#{n + 1} ({reason})",
            )
            self.parent = tracer.current_parent
        self.attempt = n + 1
        runner._res_schedule(t + delay, self.retry)

    def retry(self, t: float) -> None:
        """Backoff elapsed: send the next attempt."""
        self.within(self.send_attempt, t)


class _Message:
    """One message in flight: origin leg -> network path -> destination
    leg (eqs. 3.2-3.5), all on one job that each hop reloads.

    A message sent for an operation reports to its request
    (``owner.delivered``); a bare delivery calls ``then(t)``, closing
    first the anonymous cascade it opened, if any (``ctx``).
    """

    __slots__ = ("runner", "src", "dst", "r", "r_src", "job", "path", "hop",
                 "owner", "then", "ctx")

    def __init__(
        self,
        runner: CascadeRunner,
        src: _Resolved,
        dst: _Resolved,
        r: R,
        r_src: R,
        tag: str,
        owner: Optional[_Request] = None,
        then: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.runner = runner
        self.src = src
        self.dst = dst
        self.r = r
        self.r_src = r_src
        self.job = Job(0.0, tag=tag)
        self.path: List[Agent] = []
        self.hop = 0
        self.owner = owner
        self.then = then
        self.ctx = None

    def send(self, now: float) -> None:
        src = self.src
        dst = self.dst
        r = self.r
        if src.holon is dst.holon:
            # local call: only the destination-side work applies
            Leg(dst.holon, self.job, now, now, r.cycles, 0.0, r.mem_bytes,
                r.disk_bytes, self._landed)
            return
        self.path = self.runner.path_between(src, dst)
        r_src = self.r_src
        # origin leg: NIC serialization of the payload plus any explicit
        # origin-side work (eq. 3.3)
        Leg(src.holon, self.job, now, now, r_src.cycles,
            r.net_bits + r_src.net_bits, r_src.mem_bytes, r_src.disk_bytes,
            self._network)

    def _network(self, t: float) -> None:
        """Push the payload through each network agent in turn (eq. 3.5)."""
        bits = self.r.net_bits
        if bits <= 0 or not self.path:
            self._arrive(t)
            return
        job = self.job
        job.reuse(bits, t, self._hopped)
        self.path[0].submit(job, t)

    def _hopped(self, job: Job, t: float) -> None:
        hop = self.hop + 1
        path = self.path
        if hop < len(path):
            self.hop = hop
            job.reuse(job.demand, t, self._hopped)
            path[hop].submit(job, t)
        else:
            self._arrive(t)

    def _arrive(self, t: float) -> None:
        r = self.r
        Leg(self.dst.holon, self.job, t, t, r.cycles, r.net_bits, r.mem_bytes,
            r.disk_bytes, self._landed)

    def _landed(self, t: float) -> None:
        owner = self.owner
        if owner is not None:
            owner.delivered(self, t)
            return
        if self.ctx is not None:
            self.runner.tracer.end_cascade(self.ctx, t)
        self.then(t)
