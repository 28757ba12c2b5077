"""Cascade-linked trace spans and the ring-buffer recorder.

Every job an agent serves while a cascade context is active becomes a
:class:`Span`: which agent, when it entered the queue, when service
started, when it completed, and how much demand (R) it consumed.  Spans
are linked by a *cascade id* so one operation's hops can be reassembled
into a waterfall, mirroring how the thesis decomposes response times
across tiers and links (Figs 6-15..6-20).

The :class:`TraceRecorder` is deliberately cheap: each span, resilience
markers included, is stored as one plain tuple of the :class:`Span`
fields in field order (a :data:`SpanRow`) in a bounded ``deque``
(oldest evicted first); no ``Span`` is built while the run records.
The read API (:meth:`~TraceRecorder.spans`,
:meth:`~TraceRecorder.spans_by_cascade`, :func:`canonical_spans`)
builds ``Span`` values on demand, while the Chrome exporter and the
sharded worker's payload read the rows themselves
(:meth:`~TraceRecorder.rows`), so an exported run holds one copy of its
spans.  The sampling decision is made *once per cascade*, so a
sampled-out operation costs a single hash and nothing per hop.  With
tracing off the engine never constructs a recorder at all: agents pay
one ``is not None`` check per submit and jobs one per completion.

Cascade context propagates through the cascade machinery without
threading ids through every call: the engine is single-threaded, so the
recorder keeps a *current cascade* attribute (plus the *current parent
span id* for parent/child links).  :meth:`TraceRecorder.on_submit`
stamps each job with them at submit time, and
:meth:`TraceRecorder.on_finish` (called from ``Job.finish``) records
the span and restores the context around the job's continuation.

Distributed runs (PR 7): identifiers are *partition-independent* so the
sharded backend can merge per-worker recorders into one coherent trace.
Cascade ids derive from the client DC name (crc32 base) plus a per-DC
sequence — the same cascade gets the same id however the topology is
cut — and the sampling decision is a hash of that id, not a sequential
RNG draw, so sharded and single-process runs sample identical cascade
sets.  Span ids carry a per-shard base (:meth:`TraceRecorder.set_shard`)
so merged id spaces never collide; :func:`canonical_spans` renumbers a
span set into content order for cross-backend comparison, and
:class:`MergedTrace` is the merged, re-parented result-side view over
the rows the workers ship.
"""

from __future__ import annotations

import itertools
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

DEFAULT_CAPACITY = 65536

#: Default per-cascade probability for a bare ``trace="sampling"`` spec.
DEFAULT_SAMPLE_RATE = 0.1

_M64 = (1 << 64) - 1

#: Bit offset of the per-shard span-id base: shard ``i`` allocates span
#: ids in ``[(i + 1) << 40, (i + 2) << 40)``, so merged traces never
#: collide (an unsharded recorder allocates from 1).
_SHARD_ID_BITS = 40

#: The picklable cascade-context tuple that rides a cross-shard
#: envelope: (cascade_id, operation, application, client_dc, sampled,
#: parent_span_id).  See :meth:`TraceRecorder.export_context`.
TraceContext = Tuple[int, str, str, str, bool, Optional[int]]


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a cheap, well-dispersed 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return (x ^ (x >> 31)) & _M64


@dataclass(slots=True)
class Span:
    """One job's lifetime on one agent, linked to its cascade.

    ``enqueue`` <= ``start`` <= ``end`` in simulation seconds; ``demand``
    is the R consumed in the agent's native unit (cycles, bits, bytes).
    ``parent_id`` links to the span whose continuation submitted this
    job (``None`` for a cascade's root span); ``shard`` is the worker
    index that recorded the span (0 single-process).
    """

    cascade_id: int
    span_id: int
    agent: str
    agent_type: str
    tag: Any
    demand: float
    enqueue: float
    start: float
    end: float
    parent_id: Optional[int] = None
    shard: int = 0

    @property
    def wait(self) -> float:
        """Seconds spent queued before service began."""
        return self.start - self.enqueue

    @property
    def service(self) -> float:
        """Seconds spent in service."""
        return self.end - self.start

    @property
    def duration(self) -> float:
        """Total sojourn (queue enter to completion)."""
        return self.end - self.enqueue


#: One stored span: a plain tuple of the :class:`Span` fields in field
#: order, so ``Span(*row)`` is the span and ``row[0]`` its cascade id.
SpanRow = Tuple[int, int, str, str, Any, float, float, float, float,
                Optional[int], int]


def span_row(span: Union[Span, SpanRow]) -> SpanRow:
    """The row of a span (any object with the :class:`Span` fields); a
    row is returned unchanged."""
    if type(span) is tuple:
        return span
    return (span.cascade_id, span.span_id, span.agent, span.agent_type,
            span.tag, span.demand, span.enqueue, span.start, span.end,
            getattr(span, "parent_id", None), getattr(span, "shard", 0))


@dataclass(slots=True)
class CascadeInfo:
    """One traced operation instance: the root all its spans link to.

    A sampled-out cascade (``sampled=False``) still exists as a context
    object — it must propagate through continuations so its messages are
    not mistaken for untraced background traffic — but records no spans
    and is never committed to the ring buffer.
    """

    cascade_id: int
    operation: str
    application: str
    client_dc: str
    start: float
    end: float = float("nan")
    failed: bool = False
    sampled: bool = True
    shard: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceRecorder:
    """Bounded-memory span recorder driven by the engine.

    Parameters
    ----------
    mode:
        ``"full"`` records every cascade; ``"sampling"`` records each
        cascade independently with probability ``sample_rate``.
    sample_rate:
        Per-cascade sampling probability (only used in sampling mode).
    capacity:
        Ring-buffer size for spans and cascades; the oldest entries are
        evicted first and counted in :attr:`evicted_spans`.
    seed:
        Mixed into the per-cascade sampling hash (kept separate from
        workload RNGs so enabling tracing never perturbs simulated
        behaviour — and, being a hash rather than a sequential draw,
        the decision is identical however the run is sharded).
    """

    def __init__(
        self,
        mode: str = "full",
        sample_rate: float = 1.0,
        capacity: int = DEFAULT_CAPACITY,
        seed: int = 0,
    ) -> None:
        if mode not in ("full", "sampling"):
            raise ValueError(f"unknown trace mode {mode!r}")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {sample_rate}")
        self.mode = mode
        self.sample_rate = sample_rate if mode == "sampling" else 1.0
        self.capacity = int(capacity)
        self._rows: Deque[SpanRow] = deque(maxlen=self.capacity)
        self._cascades: Deque[CascadeInfo] = deque(maxlen=self.capacity)
        self._seed_mix = _mix64(seed)
        # cascade ids are partition-independent: crc32(client_dc) << 32
        # gives each client DC its own id block and a per-DC sequence
        # numbers the cascades launched from it — the shard owning the
        # DC launches exactly the cascades the full run would
        self._dc_seq: Dict[str, List[int]] = {}
        self._span_ids = itertools.count(1)
        self._span_base = 0
        #: worker index stamped on spans/cascades (0 single-process)
        self.shard = 0
        #: the cascade whose continuations are currently executing; the
        #: engine is single-threaded so a plain attribute suffices.
        self.current: Optional[CascadeInfo] = None
        #: span id of the job whose continuation is executing — the
        #: parent of anything submitted from inside it.
        self.current_parent: Optional[int] = None
        #: contexts adopted from other shards (by cascade id); they are
        #: never committed here — the origin shard owns the cascade row.
        self._adopted: Dict[int, CascadeInfo] = {}
        self.started_cascades = 0
        self.sampled_out = 0
        self.evicted_spans = 0

    # ------------------------------------------------------------------
    # distributed identity
    # ------------------------------------------------------------------
    def set_shard(self, shard: int) -> None:
        """Place this recorder's span ids in worker ``shard``'s id block.

        Called once per worker before any traffic runs; merged traces
        concatenate shard recorders without id collisions.
        """
        self.shard = int(shard)
        self._span_base = (self.shard + 1) << _SHARD_ID_BITS

    def _cascade_id(self, client_dc: str) -> int:
        cell = self._dc_seq.get(client_dc)
        if cell is None:
            cell = [zlib.crc32(client_dc.encode()) << 32, 0]
            self._dc_seq[client_dc] = cell
        cell[1] += 1
        return cell[0] | cell[1]

    def export_context(self) -> Optional[TraceContext]:
        """The picklable tuple for the active context (``None`` outside).

        This is what rides a cross-shard envelope; the receiving worker
        rebuilds an equivalent context with :meth:`adopt_context`.
        """
        ctx = self.current
        if ctx is None:
            return None
        return (ctx.cascade_id, ctx.operation, ctx.application,
                ctx.client_dc, ctx.sampled, self.current_parent)

    def adopt_context(self, tctx: TraceContext) -> CascadeInfo:
        """Rebuild (and cache) a context that arrived from another shard.

        The adopted :class:`CascadeInfo` is a delivery-side stand-in:
        spans recorded under it carry the origin's cascade id, but the
        cascade row itself is only ever committed by the origin shard
        (which observes the operation's start/end)."""
        ctx = self._adopted.get(tctx[0])
        if ctx is None:
            ctx = CascadeInfo(
                cascade_id=tctx[0], operation=tctx[1], application=tctx[2],
                client_dc=tctx[3], start=float("nan"), sampled=bool(tctx[4]),
                shard=self.shard,
            )
            self._adopted[tctx[0]] = ctx
        return ctx

    # ------------------------------------------------------------------
    # cascade lifecycle (driven by CascadeRunner)
    # ------------------------------------------------------------------
    def start_cascade(
        self,
        operation: str,
        application: str,
        client_dc: str,
        now: float,
    ) -> CascadeInfo:
        """Open a cascade context (possibly sampled out, see CascadeInfo)."""
        self.started_cascades += 1
        cascade_id = self._cascade_id(client_dc)
        sampled = True
        if self.sample_rate < 1.0:
            # hash-based Bernoulli: the decision depends only on the
            # (partition-independent) cascade id and the seed, never on
            # how many cascades this particular recorder saw before
            u = _mix64(cascade_id ^ self._seed_mix) / 2.0 ** 64
            if u >= self.sample_rate:
                self.sampled_out += 1
                sampled = False
        return CascadeInfo(
            cascade_id=cascade_id,
            operation=operation,
            application=application,
            client_dc=client_dc,
            start=now,
            sampled=sampled,
            shard=self.shard,
        )

    def end_cascade(self, ctx: CascadeInfo, now: float, failed: bool = False) -> None:
        """Close a cascade; sampled ones are committed to the ring buffer."""
        ctx.end = now
        ctx.failed = failed
        if ctx.sampled:
            self._cascades.append(ctx)

    def record_marker(
        self,
        ctx: Optional[CascadeInfo],
        agent: str,
        kind: str,
        start: float,
        end: float,
        tag: Any = None,
    ) -> None:
        """Record a non-service event (retry wait, timeout, shed) as a span.

        Resilience events have no Job of their own; this emits a synthetic
        span with ``agent_type="resilience"`` linked to the cascade so
        waterfalls and Chrome traces show where an operation spent time
        waiting on backoff or burned a timeout budget.
        """
        if ctx is None or not ctx.sampled:
            return
        if len(self._rows) == self.capacity:
            self.evicted_spans += 1
        self._rows.append((
            ctx.cascade_id, self._span_base + next(self._span_ids), agent,
            "resilience", tag if tag is not None else kind, 0.0, start,
            start, end,
            self.current_parent if self.current is ctx else None,
            self.shard))

    def within(self, ctx: Optional[CascadeInfo], parent: Optional[int],
               fn: Any, *args: Any) -> None:
        """Call ``fn(*args)`` with ``ctx`` as the current cascade and
        ``parent`` as the current parent span, then restore the previous
        context — how steps that run off the calendar (retries, timeouts,
        remote deliveries) rejoin the cascade that scheduled them."""
        prev, prev_parent = self.current, self.current_parent
        self.current, self.current_parent = ctx, parent
        try:
            fn(*args)
        finally:
            self.current, self.current_parent = prev, prev_parent

    # ------------------------------------------------------------------
    # the per-job hook (called from Agent.submit when a tracer is set)
    # ------------------------------------------------------------------
    def on_submit(self, agent: Any, job: Any, now: float) -> None:
        """Stamp a freshly submitted job with the current cascade.

        The stamp is the cascade context, the agent (the span's lane)
        and, for a sampled cascade, the job's span id and parent span
        id.  Jobs submitted outside any cascade context (orphans) stay
        unstamped and untraced.
        """
        ctx = self.current
        job.cascade = ctx
        if ctx is None:
            return
        job.lane = agent
        if ctx.sampled:
            # the span id is allocated at *submit* time so downstream
            # jobs (and cross-shard envelopes) can reference their
            # parent before this job completes
            job.span_id = self._span_base + next(self._span_ids)
            job.parent_id = self.current_parent
        else:
            job.span_id = None

    def on_finish(self, job: Any, t: float) -> None:
        """Record a stamped job's span and run its continuation.

        The continuation runs inside the job's cascade context, with
        this job's span as the parent: everything it submits downstream
        inherits the cascade and links to this span.  A sampled-out
        cascade records nothing, but its context must keep propagating
        so downstream messages are not mistaken for background traffic.
        """
        ctx = job.cascade
        span_id = job.span_id
        if span_id is not None:
            rows = self._rows
            if len(rows) == self.capacity:
                self.evicted_spans += 1
            enqueue = job.enqueue_time if job.enqueue_time is not None else t
            start = job.start_time if job.start_time is not None else enqueue
            lane = job.lane
            rows.append((ctx.cascade_id, span_id, lane.name, lane.agent_type,
                         job.tag, job.demand, enqueue, start, t,
                         job.parent_id, self.shard))
        inner = job.on_complete
        if inner is not None:
            prev, prev_parent = self.current, self.current_parent
            self.current, self.current_parent = ctx, span_id
            try:
                inner(job, t)
            finally:
                self.current, self.current_parent = prev, prev_parent

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def rows(self) -> Sequence[SpanRow]:
        """The stored span rows, oldest first.

        This is the recorder's own store, not a copy: read it (the
        exporters and the sharded worker's payload do), never mutate it.
        """
        return self._rows

    def spans(self) -> List[Span]:
        """All recorded spans, oldest first."""
        return [Span(*row) for row in self._rows]

    def cascades(self) -> List[CascadeInfo]:
        """All completed cascades, oldest first."""
        return list(self._cascades)

    def spans_by_cascade(self) -> Dict[int, List[Span]]:
        """Spans grouped by cascade id (each group in completion order)."""
        return _by_cascade(self._rows)

    def clear(self) -> None:
        self._rows.clear()
        self._cascades.clear()

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecorder(mode={self.mode!r}, spans={len(self._rows)}, "
            f"cascades={len(self._cascades)})"
        )


# ----------------------------------------------------------------------
# cross-backend span identity
# ----------------------------------------------------------------------
def _span_order_key(row: SpanRow) -> tuple:
    """A content-only sort key: identical span *sets* sort identically
    whatever backend produced them (ids and shards excluded)."""
    (cascade_id, _, agent, agent_type, tag, demand, enqueue, start,
     end) = row[:9]
    return (cascade_id, end, enqueue, start, agent, str(tag), agent_type,
            demand)


def _renumber(rows: Iterable[SpanRow], keep_shard: bool) -> List[SpanRow]:
    ordered = sorted(rows, key=_span_order_key)
    mapping = {row[1]: i + 1 for i, row in enumerate(ordered)}
    return [
        row[:1] + (i + 1,) + row[2:9]
        + (mapping.get(row[9]), row[10] if keep_shard else 0)
        for i, row in enumerate(ordered)
    ]


def _by_cascade(rows: Iterable[SpanRow]) -> Dict[int, List[Span]]:
    out: Dict[int, List[Span]] = {}
    for row in rows:
        out.setdefault(row[0], []).append(Span(*row))
    return out


def canonical_spans(spans: Iterable[Union[Span, SpanRow]]) -> List[Span]:
    """Renumber a span set into its canonical, backend-independent form.

    Spans are sorted by content (cascade id, times, agent, tag) and
    span/parent ids renumbered 1..n in that order with ``shard`` zeroed,
    so two runs of the same scenario — single-process and sharded, say —
    that recorded the same work compare *equal* even though their raw id
    spaces differ.  A parent recorded on another shard (or dropped by
    ring-buffer eviction) maps to ``None`` consistently on both sides
    only when the parent span itself is present; parity scenarios stay
    under the ring capacity.
    """
    return [Span(*row) for row in _renumber(map(span_row, spans),
                                            keep_shard=False)]


class MergedTrace:
    """Per-shard trace recorders folded into one result-side view.

    Quacks like :class:`TraceRecorder` for the read surface
    (:meth:`rows`, :meth:`spans`, :meth:`cascades`,
    :meth:`spans_by_cascade`, ``len()``) so ``SimulationResult`` and
    the exporters work unchanged.  Per-shard span-id bases guarantee
    the concatenated id spaces are disjoint; the merge renumbers them
    into content order (stable across runs) while preserving each
    span's ``shard`` so the Chrome exporter can lay one ``pid`` lane
    per worker and draw flow events (``ph:"s"/"f"``) on the recorded
    cross-shard hops.  ``shard_spans`` holds each shard's span rows (what
    a worker ships) or :class:`Span` values.
    """

    def __init__(
        self,
        shard_spans: Sequence[Iterable[Union[SpanRow, Span]]],
        shard_cascades: Sequence[Sequence[CascadeInfo]],
        *,
        shard_labels: Optional[Sequence[str]] = None,
        hops: Sequence[Dict[str, Any]] = (),
        mode: str = "full",
    ) -> None:
        self.mode = mode
        self.shard_labels: List[str] = list(
            shard_labels
            if shard_labels is not None
            else (f"shard {i}" for i in range(len(shard_spans))))
        self._rows = _renumber(
            (span_row(s) for spans in shard_spans for s in spans),
            keep_shard=True)
        self._cascades = sorted(
            (c for cascades in shard_cascades for c in cascades),
            key=lambda c: (c.start, c.cascade_id))
        #: cross-shard hops: dicts with cascade/src/dst/send/arrival/
        #: src_shard/dst_shard — the exporter's flow events.
        self.flows: List[Dict[str, Any]] = sorted(
            hops, key=lambda h: (h["send"], h["cascade"], h["src"], h["dst"]))

    def rows(self) -> Sequence[SpanRow]:
        return self._rows

    def spans(self) -> List[Span]:
        return [Span(*row) for row in self._rows]

    def cascades(self) -> List[CascadeInfo]:
        return list(self._cascades)

    def spans_by_cascade(self) -> Dict[int, List[Span]]:
        return _by_cascade(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MergedTrace(shards={len(self.shard_labels)}, "
            f"spans={len(self._rows)}, flows={len(self.flows)})"
        )


def make_recorder(
    trace: Union[None, str, TraceRecorder],
) -> Optional[TraceRecorder]:
    """Build a recorder from a trace-mode spec.

    Accepts ``None`` / ``"null"`` / ``"none"`` / ``"off"`` (no tracing),
    ``"full"``, ``"sampling"`` (rate ``0.1``), ``"sampling:p"`` or
    ``"sampling(p)"`` with a probability ``p``, or an existing
    :class:`TraceRecorder` (returned as-is).
    """
    if trace is None:
        return None
    if isinstance(trace, TraceRecorder):
        return trace
    if not isinstance(trace, str):
        raise ValueError(f"unknown trace spec {trace!r}")
    spec = trace.strip().lower()
    if spec in ("null", "none", "off", ""):
        return None
    if spec == "full":
        return TraceRecorder(mode="full")
    if spec.startswith("sampling"):
        rest = spec[len("sampling"):].strip()
        if rest.startswith(":"):
            rest = rest[1:]
        elif rest.startswith("(") and rest.endswith(")"):
            rest = rest[1:-1]
        elif rest == "":
            return TraceRecorder(mode="sampling",
                                 sample_rate=DEFAULT_SAMPLE_RATE)
        try:
            p = float(rest)
        except ValueError:
            raise ValueError(f"bad sampling probability in {trace!r}") from None
        return TraceRecorder(mode="sampling", sample_rate=p)
    raise ValueError(f"unknown trace spec {trace!r}")
