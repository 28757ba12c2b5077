"""Run-to-run metric regression detection (`python -m repro compare`).

Diffs two metric documents — `MetricsRegistry.write_snapshot()` JSON
or its `write_jsonl()` JSONL export — and reports per-metric relative
deltas against a tolerance.  Exit is nonzero when any *gating* metric
moved in its bad direction by more than the tolerance, so a behaviour
regression against a committed snapshot (`BENCH_metrics.json`) fails
mechanically.

Direction is inferred from the metric name: latency/wait/failure-style
metrics gate when they go *up*, throughput/completion-style metrics
gate when they go *down*, and everything else (tick counts, heap-size
gauges, sim/wall ratios) is reported as informational drift but never
gates by default.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: metric-name fragments where an increase is a regression
_HIGHER_IS_WORSE = re.compile(
    r"(latency|wait|service|sojourn|wall_s|failed|timeout|shed|retr|"
    r"reject|abandon|dropped|evict|breaker_open)")
#: metric-name fragments where a decrease is a regression
_LOWER_IS_WORSE = re.compile(
    r"(completions|operations_total|arrivals|throughput|records)")

#: default relative tolerance (10 %)
DEFAULT_TOLERANCE = 0.10


def direction_of(name: str) -> str:
    """'up' (increase regresses), 'down', or 'info' (never gates)."""
    if _HIGHER_IS_WORSE.search(name):
        return "up"
    if _LOWER_IS_WORSE.search(name):
        return "down"
    return "info"


# ----------------------------------------------------------------------
# document loading / flattening
# ----------------------------------------------------------------------
def load_document(path: str) -> Dict[str, Any]:
    """Load a metrics snapshot (JSON or JSONL)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            pass
    # JSONL: one metric object per line
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    return {"snapshot": "repro-metrics-jsonl", "lines": lines}


def flatten(doc: Any) -> Dict[str, float]:
    """Flatten a snapshot or JSONL document into ``{metric_key: value}``.

    Histograms expand to ``key:p50/p90/p99/mean/count`` rows.  Anything
    else — including a top-level JSON value that is not an object —
    raises ``ValueError``.
    """
    kind = doc.get("snapshot") if isinstance(doc, dict) else None
    if kind == "repro-metrics":
        return _flatten_snapshot(doc)
    lines = doc.get("lines") if kind == "repro-metrics-jsonl" else None
    if isinstance(lines, list) and all(isinstance(o, dict) for o in lines):
        return _flatten_jsonl(lines)
    raise ValueError(
        "unrecognized metrics document (expected a repro-metrics "
        "snapshot or JSONL export)")


def _hist_rows(key: str, hist: Dict[str, Any]) -> Dict[str, float]:
    rows: Dict[str, float] = {f"{key}:count": float(hist.get("count", 0))}
    count = hist.get("count", 0)
    if count:
        rows[f"{key}:mean"] = float(hist["sum"]) / count
        for q in ("p50", "p90", "p99"):
            if q in hist:
                rows[f"{key}:{q}"] = float(hist[q])
    return rows


def _flatten_snapshot(doc: Dict[str, Any]) -> Dict[str, float]:
    flat: Dict[str, float] = {}
    for key, value in doc.get("counters", {}).items():
        flat[key] = float(value)
    for key, value in doc.get("gauges", {}).items():
        flat[key] = float(value)
    for key, hist in doc.get("histograms", {}).items():
        flat.update(_hist_rows(key, hist))
    return flat


def _flatten_jsonl(lines: List[Dict[str, Any]]) -> Dict[str, float]:
    flat: Dict[str, float] = {}
    for obj in lines:
        kind = obj.get("type")
        if kind in ("counter", "gauge"):
            key = _join(obj["name"], obj.get("labels"))
            flat[key] = float(obj["value"])
        elif kind == "histogram":
            key = _join(obj["name"], obj.get("labels"))
            flat.update(_hist_rows(key, obj))
    return flat


def _join(name: str, labels: Optional[Dict[str, str]]) -> str:
    if not labels:
        return name
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return f"{name}{{{body}}}"


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
@dataclass
class ComparisonRow:
    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    delta: Optional[float]       # relative (candidate-baseline)/baseline
    direction: str               # up | down | info
    status: str                  # ok | regression | improved | drift | missing | new


@dataclass
class ComparisonReport:
    rows: List[ComparisonRow]
    tolerance: float
    compared: int = 0
    regressions: List[ComparisonRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.regressions

    def table(self, *, include_ok: bool = False) -> str:
        lines = [f"{'metric':<58} {'baseline':>12} {'candidate':>12} "
                 f"{'delta':>8} status"]
        for row in self.rows:
            if row.status == "ok" and not include_ok:
                continue
            base = "-" if row.baseline is None else f"{row.baseline:.6g}"
            cand = "-" if row.candidate is None else f"{row.candidate:.6g}"
            delta = "-" if row.delta is None else f"{row.delta:+.1%}"
            lines.append(f"{row.metric:<58} {base:>12} {cand:>12} "
                         f"{delta:>8} {row.status}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"compare: {verdict} ({self.compared} compared, "
            f"{len(self.regressions)} regressions, "
            f"tolerance {self.tolerance:.0%})")
        return "\n".join(lines)


def compare(
    baseline: Dict[str, float],
    candidate: Dict[str, float],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    overrides: Optional[Dict[str, float]] = None,
) -> ComparisonReport:
    """Compare flattened documents; regressions gate, drift informs.

    ``overrides`` maps a metric-name substring to a tolerance for
    matching metrics (e.g. ``{"wall_s": 0.25}`` loosens timing rows).
    """
    overrides = overrides or {}
    report = ComparisonReport(rows=[], tolerance=tolerance)
    for metric in sorted(set(baseline) | set(candidate)):
        base = baseline.get(metric)
        cand = candidate.get(metric)
        if base is None:
            report.rows.append(ComparisonRow(
                metric, None, cand, None, direction_of(metric), "new"))
            continue
        if cand is None:
            report.rows.append(ComparisonRow(
                metric, base, None, None, direction_of(metric), "missing"))
            continue
        report.compared += 1
        if base == 0.0:
            delta = 0.0 if cand == 0.0 else float("inf")
        else:
            delta = (cand - base) / abs(base)
        direction = direction_of(metric)
        tol = tolerance
        for fragment, value in overrides.items():
            if fragment in metric:
                tol = value
                break
        status = "ok"
        if direction == "up" and delta > tol:
            status = "regression"
        elif direction == "down" and delta < -tol:
            status = "regression"
        elif direction == "info" and abs(delta) > tol:
            status = "drift"
        elif direction != "info" and abs(delta) > tol:
            status = "improved"
        row = ComparisonRow(metric, base, cand, delta, direction, status)
        report.rows.append(row)
        if status == "regression":
            report.regressions.append(row)
    return report


def compare_paths(
    baseline_path: str,
    candidate_path: str,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    overrides: Optional[Dict[str, float]] = None,
) -> Tuple[ComparisonReport, int]:
    """Load, flatten, compare; returns (report, exit_code).

    Exit codes: 0 pass, 1 regression, 2 nothing comparable (disjoint
    key sets usually mean the two documents are different kinds).
    """
    baseline = flatten(load_document(baseline_path))
    candidate = flatten(load_document(candidate_path))
    report = compare(baseline, candidate, tolerance=tolerance,
                     overrides=overrides)
    if report.compared == 0:
        return report, 2
    return report, (0 if report.passed else 1)
