"""Trace and telemetry exporters.

Three output formats:

* Chrome ``trace_event`` JSON — load the file in ``chrome://tracing``
  (or Perfetto) to inspect cascades on a per-agent timeline.
* Latency-decomposition waterfalls — a per-operation breakdown across
  tiers and links, directly comparable to the thesis's response-time
  figures (Figs 6-15..6-20).
* Plain-text telemetry tables for the CLI.

Everything here is pure formatting over span rows (or duck-typed
span objects) and telemetry records; the module imports nothing from
``repro.core`` or ``repro.fluid``.

The Chrome export reads the recorder's span rows directly.  One routine
(:func:`_trace_events`) assigns pids and lanes and orders the events
for both the dict form and the file writer.  The writer turns each span
into text through its lane's ``%`` template, built once from
``json.encoder.encode_basestring_ascii`` strings, with the numbers put
in through ``%r`` (``float.__repr__`` is what ``json`` writes); a span
with any other number (NaN, infinities, numeric subclasses) and every
metadata, cascade and flow event go through the JSON encoder, so the
file is byte for byte ``json.dumps`` of the dict form.
"""

from __future__ import annotations

import contextlib
import json
import os
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.observability.trace import SpanRow, span_row

MICRO = 1e6  # trace_event timestamps are microseconds

#: Waterfall rows: (label, inflated seconds) in execution order.
WaterfallRow = Tuple[str, float]


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------
#: Events per write in ``write_chrome_trace``: enough to amortise the
#: call, few enough that one slice's text stays a few MB however long
#: the trace is.
_CHUNK_EVENTS = 1024

_NUMBERS = (int, float)


def _trace_events(
    spans: Iterable[Any],
    cascades: Iterable[Any],
    shard_labels: Optional[Sequence[str]],
    flows: Iterable[Mapping[str, Any]],
    span_event: Callable[[SpanRow, int, int], Any],
) -> Iterator[Any]:
    """Yield every trace event in document order, lazily.

    The one place that assigns pids and lanes and orders the events:
    shard metadata, cascades, spans (each lane's ``thread_name`` just
    before its first span), then flow ``s``/``f`` pairs.  Span events
    are whatever ``span_event(row, pid, tid)`` returns; all others are
    ``trace_event`` dicts.  ``spans`` may hold span rows or
    :class:`~repro.observability.trace.Span`-like objects.
    """
    lanes: Dict[Tuple[int, str], int] = {}
    pid_next_tid: Dict[int, int] = {}

    def new_pid(pid: int) -> List[Dict[str, Any]]:
        """Metadata naming ``pid`` and its cascade lane, once per pid."""
        if pid in pid_next_tid:
            return []
        pid_next_tid[pid] = 1
        if shard_labels is not None and 0 <= pid - 1 < len(shard_labels):
            label = f"shard {pid - 1}: {shard_labels[pid - 1]}"
        else:
            label = "repro simulation"
        return [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "cascades"},
            },
        ]

    if shard_labels is not None:
        for i in range(len(shard_labels)):  # every shard gets its lane,
            yield from new_pid(i + 1)       # even if its spans were sparse
    else:
        yield from new_pid(1)

    for c in cascades:
        end = c.end if c.end == c.end else c.start  # NaN-safe
        pid = getattr(c, "shard", 0) + 1
        yield from new_pid(pid)
        yield {
            "name": c.operation or "cascade",
            "cat": "cascade",
            "ph": "X",
            "ts": c.start * MICRO,
            "dur": max(end - c.start, 0.0) * MICRO,
            "pid": pid,
            "tid": 0,
            "args": {
                "cascade": c.cascade_id,
                "application": c.application,
                "client_dc": c.client_dc,
                "failed": bool(c.failed),
            },
        }

    for row in spans:
        if type(row) is not tuple:  # a Span-like object, not a row
            row = span_row(row)
        pid = row[10] + 1
        agent = row[2]
        tid = lanes.get((pid, agent))
        if tid is None:
            yield from new_pid(pid)
            tid = lanes[(pid, agent)] = pid_next_tid[pid]
            pid_next_tid[pid] += 1
            yield {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": agent},
            }
        yield span_event(row, pid, tid)

    for i, hop in enumerate(flows):
        src_pid = int(hop.get("src_shard", 0)) + 1
        dst_pid = int(hop.get("dst_shard", 0)) + 1
        yield from new_pid(src_pid)
        yield from new_pid(dst_pid)
        name = f"remote {hop['src']}->{hop['dst']}"
        args = {"cascade": hop["cascade"], "src": hop["src"],
                "dst": hop["dst"]}
        yield {
            "name": name,
            "cat": "remote",
            "ph": "s",
            "id": i + 1,
            "ts": hop["send"] * MICRO,
            "pid": src_pid,
            "tid": 0,
            "args": args,
        }
        yield {
            "name": name,
            "cat": "remote",
            "ph": "f",
            "bp": "e",
            "id": i + 1,
            "ts": hop["arrival"] * MICRO,
            "pid": dst_pid,
            "tid": 0,
            "args": args,
        }


def _span_dict(row: SpanRow, pid: int, tid: int) -> Dict[str, Any]:
    """One span's ``X`` event as a ``trace_event`` dict."""
    cascade_id, _, agent, agent_type, tag, demand, enqueue, start, end = \
        row[:9]
    return {
        "name": str(tag) if tag is not None else agent,
        "cat": agent_type,
        "ph": "X",
        "ts": start * MICRO,
        "dur": max(end - start, 0.0) * MICRO,
        "pid": pid,
        "tid": tid,
        "args": {
            "cascade": cascade_id,
            "agent": agent,
            "wait_s": start - enqueue,
            "demand": demand,
        },
    }


def _lane_template(agent: str, agent_type: str, pid: int, tid: int) -> str:
    """The JSON text of a span event on one lane: the event name as
    ``%s`` (already JSON text), its five numbers as ``%r`` (``ts``,
    ``dur``, ``cascade``, ``wait_s``, ``demand``)."""

    def text(value: str) -> str:
        return encode_basestring_ascii(value).replace("%", "%%")

    return (f'{{"name": %s, "cat": {text(agent_type)}, "ph": "X", '
            f'"ts": %r, "dur": %r, "pid": {pid}, "tid": {tid}, '
            f'"args": {{"cascade": %r, "agent": {text(agent)}, '
            f'"wait_s": %r, "demand": %r}}}}')


def _span_texts() -> Callable[[SpanRow, int, int], Any]:
    """A span-event builder for the file writer: JSON text from a lane
    template, or the event dict for the encoder.

    A template is built once per lane and category (agent, agent type,
    pid).  It formats the numbers with ``%r``, which is
    ``float.__repr__`` -- what ``json`` writes -- for exactly the finite
    ``float`` and ``int`` values; a row with any other number (NaN, an
    infinity, a numeric subclass) or a non-``str`` agent or agent type
    yields the dict instead.
    """
    templates: Dict[Tuple[str, str, int], str] = {}

    def span_text(row: SpanRow, pid: int, tid: int) -> Any:
        (cascade_id, _, agent, agent_type, tag, demand, enqueue, start, end,
         _, _) = row
        ts = start * MICRO
        dur = end - start
        dur = (0.0 if dur < 0.0 else dur) * MICRO  # max(dur, 0.0), NaN kept
        wait = start - enqueue
        if (type(ts) is float and type(dur) is float
                and type(wait) in _NUMBERS and type(demand) in _NUMBERS
                and type(cascade_id) is int and type(pid) is int
                and type(agent) is str and type(agent_type) is str):
            try:
                total = ts + dur + wait + demand
            except OverflowError:  # an int too large for a float
                return _span_dict(row, pid, tid)
            if total - total == 0.0:  # all four finite
                key = (agent, agent_type, pid)
                template = templates.get(key)
                if template is None:
                    template = templates[key] = _lane_template(
                        agent, agent_type, pid, tid)
                name = tag if type(tag) is str else (
                    agent if tag is None else str(tag))
                return template % (encode_basestring_ascii(name), ts, dur,
                                   cascade_id, wait, demand)
        return _span_dict(row, pid, tid)

    return span_text


def chrome_trace_events(
    spans: Iterable[Any],
    cascades: Iterable[Any] = (),
    shard_labels: Optional[Sequence[str]] = None,
    flows: Iterable[Mapping[str, Any]] = (),
) -> List[Dict[str, Any]]:
    """Convert spans (+ optional cascades) to ``trace_event`` dicts.

    ``spans`` holds span rows or :class:`~repro.observability.trace.Span`
    values.  Each shard becomes a process lane (``pid`` = shard + 1,
    named from ``shard_labels``; single-process traces collapse to one
    ``pid 1`` lane) and each agent its own thread lane within it (named
    via ``M`` metadata events); cascades land on a dedicated lane 0 so
    operations and their hops line up vertically.  Spans become ``X``
    complete events whose ``args`` carry the cascade id, queueing delay
    and demand.  ``flows`` are cross-shard hops (dicts with
    ``cascade``/``src``/``dst``/``send``/``arrival``/``src_shard``/
    ``dst_shard``) rendered as flow-event pairs — ``ph:"s"`` on the
    sending shard at send time, ``ph:"f"`` on the receiving shard at
    arrival — so a cascade crossing a cut draws one connected arrow.
    """
    return list(_trace_events(spans, cascades, shard_labels, flows,
                              _span_dict))


def write_chrome_trace(
    path: str,
    spans: Iterable[Any],
    cascades: Iterable[Any] = (),
    shard_labels: Optional[Sequence[str]] = None,
    flows: Iterable[Mapping[str, Any]] = (),
) -> int:
    """Write a ``chrome://tracing``-loadable JSON file; returns #events.

    The file holds exactly the bytes of ``json.dumps({"traceEvents":
    chrome_trace_events(...), "displayTimeUnit": "ms"})``, but the
    events are streamed: ``_CHUNK_EVENTS`` at a time are turned into
    text and written, so memory stays bounded by one slice rather than
    growing with the trace.  A span event's text comes from its lane's
    template (see :func:`_span_texts`), every other event's from the
    JSON encoder.  The text goes to ``<path>.tmp`` and is renamed over
    ``path`` only once complete, so a failed export leaves any previous
    trace at ``path`` untouched.
    """
    events = _trace_events(spans, cascades, shard_labels, flows,
                           _span_texts())
    encode = json.JSONEncoder().encode
    tmp = f"{os.fspath(path)}.tmp"
    n = 0
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write('{"traceEvents": [')
            while True:
                chunk = [event if type(event) is str else encode(event)
                         for event in islice(events, _CHUNK_EVENTS)]
                if not chunk:
                    break
                if n:
                    fh.write(", ")
                fh.write(", ".join(chunk))
                n += len(chunk)
            fh.write('], "displayTimeUnit": "ms"}')
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return n


# ----------------------------------------------------------------------
# latency waterfalls
# ----------------------------------------------------------------------
def resource_label(key: Sequence[str]) -> str:
    """Render a canonical resource key ``(dc, role, kind)`` for reports."""
    dc, role, kind = key
    if dc == "link":
        return f"wan:{role}"
    return f"{dc}/{role}/{kind}"


def format_waterfall(
    title: str,
    rows: Sequence[WaterfallRow],
    latency: float = 0.0,
    width: int = 28,
) -> str:
    """Render a latency waterfall: per-resource bars with running offsets.

    ``rows`` are (label, seconds) contributions in execution order;
    ``latency`` is the constant propagation term appended last.  The bar
    of each row starts where the previous one ended, so the rendering
    reads as a waterfall rather than a histogram.
    """
    all_rows: List[WaterfallRow] = list(rows)
    if latency > 0.0:
        all_rows.append(("propagation latency", latency))
    total = sum(sec for _, sec in all_rows)
    if total <= 0.0:
        return f"{title}: no contributions"
    label_w = max((len(label) for label, _ in all_rows), default=0)
    label_w = max(label_w, len("total"))
    lines = [f"{title}  (total {total:.4f} s)"]
    offset = 0.0
    for label, sec in all_rows:
        lead = int(round(width * offset / total))
        bar = int(round(width * sec / total))
        if sec > 0.0 and bar == 0:
            bar = 1
        lead = min(lead, width - bar)
        lines.append(
            f"  {label:<{label_w}} {sec:>9.4f}s {sec / total:>6.1%} "
            f"|{' ' * lead}{'#' * bar}{' ' * (width - lead - bar)}|"
        )
        offset += sec
    lines.append(f"  {'total':<{label_w}} {total:>9.4f}s {1.0:>6.1%}")
    return "\n".join(lines)


def spans_waterfall_rows(
    spans: Iterable[Any],
    cascades: Iterable[Any],
    operation: Optional[str] = None,
) -> List[WaterfallRow]:
    """Mean per-agent time contributions of traced cascades (DES side).

    Averages each agent's total sojourn seconds over the completed
    cascades of one operation (all operations when ``None``), ordered by
    first appearance within a cascade — the empirical counterpart of the
    fluid decomposition.
    """
    wanted = {
        c.cascade_id
        for c in cascades
        if (operation is None or c.operation == operation) and not c.failed
    }
    if not wanted:
        return []
    per_agent: Dict[str, float] = {}
    order: List[str] = []
    for s in spans:
        if s.cascade_id not in wanted:
            continue
        if s.agent not in per_agent:
            per_agent[s.agent] = 0.0
            order.append(s.agent)
        per_agent[s.agent] += s.duration
    n = len(wanted)
    return [(agent, per_agent[agent] / n) for agent in order]


# ----------------------------------------------------------------------
# telemetry tables
# ----------------------------------------------------------------------
def telemetry_table(telemetries: Mapping[str, Any], limit: int = 0) -> str:
    """Plain-text table of per-agent counters, busiest agents first."""
    rows = sorted(
        telemetries.values(), key=lambda t: t.busy_time, reverse=True
    )
    if limit > 0:
        rows = rows[:limit]
    name_w = max((len(t.name) for t in rows), default=4)
    name_w = max(name_w, len("agent"))
    lines = [
        f"{'agent':<{name_w}} {'type':<8} {'arriv':>8} {'compl':>8} "
        f"{'drops':>6} {'busy_s':>10} {'qlen':>5} {'q_hwm':>5} "
        f"{'retr':>5} {'tmo':>5} {'shed':>5}"
    ]
    for t in rows:
        lines.append(
            f"{t.name:<{name_w}} {t.agent_type:<8} {t.arrivals:>8d} "
            f"{t.completions:>8d} {t.drops:>6d} {t.busy_time:>10.3f} "
            f"{t.queue_length:>5d} {t.queue_hwm:>5d} "
            f"{t.retries:>5d} {t.timeouts:>5d} {t.shed:>5d}"
        )
    return "\n".join(lines)
