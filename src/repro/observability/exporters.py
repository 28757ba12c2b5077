"""Trace and telemetry exporters.

Three output formats:

* Chrome ``trace_event`` JSON — load the file in ``chrome://tracing``
  (or Perfetto) to inspect cascades on a per-agent timeline.
* Latency-decomposition waterfalls — a per-operation breakdown across
  tiers and links, directly comparable to the thesis's response-time
  figures (Figs 6-15..6-20).
* Plain-text telemetry tables for the CLI.

Everything here is pure formatting over duck-typed span/telemetry
records; the module imports nothing from ``repro.core`` or
``repro.fluid``.
"""

from __future__ import annotations

import contextlib
import json
import os
from itertools import islice
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

MICRO = 1e6  # trace_event timestamps are microseconds

#: Waterfall rows: (label, inflated seconds) in execution order.
WaterfallRow = Tuple[str, float]


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------
#: Events per C-encoder call in ``write_chrome_trace``: enough to amortise
#: the call, few enough that one slice's dicts and text stay a few MB
#: however long the trace is.
_CHUNK_EVENTS = 1024


def _iter_chrome_trace_events(
    spans: Iterable[Any],
    cascades: Iterable[Any] = (),
    shard_labels: Optional[Sequence[str]] = None,
    flows: Iterable[Mapping[str, Any]] = (),
) -> Iterator[Dict[str, Any]]:
    """Yield the ``trace_event`` dicts of ``chrome_trace_events`` lazily.

    Order: shard metadata, cascades, spans (each lane's ``thread_name``
    just before its first span), then flow ``s``/``f`` pairs.
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

    for s in spans:
        pid = getattr(s, "shard", 0) + 1
        key = (pid, s.agent)
        tid = lanes.get(key)
        if tid is None:
            yield from new_pid(pid)
            tid = lanes[key] = pid_next_tid[pid]
            pid_next_tid[pid] += 1
            yield {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": s.agent},
            }
        yield {
            "name": str(s.tag) if s.tag is not None else s.agent,
            "cat": s.agent_type,
            "ph": "X",
            "ts": s.start * MICRO,
            "dur": max(s.end - s.start, 0.0) * MICRO,
            "pid": pid,
            "tid": tid,
            "args": {
                "cascade": s.cascade_id,
                "agent": s.agent,
                "wait_s": s.wait,
                "demand": s.demand,
            },
        }

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


def chrome_trace_events(
    spans: Iterable[Any],
    cascades: Iterable[Any] = (),
    shard_labels: Optional[Sequence[str]] = None,
    flows: Iterable[Mapping[str, Any]] = (),
) -> List[Dict[str, Any]]:
    """Convert spans (+ optional cascades) to ``trace_event`` dicts.

    Each shard becomes a process lane (``pid`` = shard + 1, named from
    ``shard_labels``; single-process traces collapse to one ``pid 1``
    lane) and each agent its own thread lane within it (named via ``M``
    metadata events); cascades land on a dedicated lane 0 so operations
    and their hops line up vertically.  Spans become ``X`` complete
    events whose ``args`` carry the cascade id, queueing delay and
    demand.  ``flows`` are cross-shard hops (dicts with
    ``cascade``/``src``/``dst``/``send``/``arrival``/``src_shard``/
    ``dst_shard``) rendered as flow-event pairs — ``ph:"s"`` on the
    sending shard at send time, ``ph:"f"`` on the receiving shard at
    arrival — so a cascade crossing a cut draws one connected arrow.
    """
    return list(_iter_chrome_trace_events(
        spans, cascades, shard_labels=shard_labels, flows=flows))


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
    events are streamed: ``_CHUNK_EVENTS`` at a time are built, encoded
    by one C-encoder call and written, so memory stays bounded by one
    slice rather than growing with the trace.  The text goes to
    ``<path>.tmp`` and is renamed over ``path`` only once complete, so a
    failed export leaves any previous trace at ``path`` untouched.
    """
    events = _iter_chrome_trace_events(spans, cascades,
                                       shard_labels=shard_labels, flows=flows)
    encode = json.JSONEncoder().encode
    tmp = f"{os.fspath(path)}.tmp"
    n = 0
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write('{"traceEvents": [')
            while True:
                chunk = list(islice(events, _CHUNK_EVENTS))
                if not chunk:
                    break
                if n:
                    fh.write(", ")
                fh.write(encode(chunk)[1:-1])
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
