"""Tests for the streaming metrics pipeline: registry instruments,
OpenMetrics/JSONL export, the structured event log, SLO rules and the
run-to-run `repro compare` regression gate."""

import json
import math

import pytest

from repro.api import CheckpointOptions, ObservabilityOptions, simulate
from repro.observability.compare import (
    DEFAULT_TOLERANCE,
    compare,
    compare_paths,
    direction_of,
    flatten,
    load_document,
)
from repro.observability.events import EventLog
from repro.observability.metrics import (
    BUCKETS_PER_OCTAVE,
    Histogram,
    MetricsRegistry,
    make_registry,
    split_key,
)
from repro.observability.profiler import PHASES
from repro.observability.slo import (
    SLOChecker,
    SLORule,
    parse_slo_block,
)

from tests.test_observability import portal_scenario


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------
def test_histogram_bucketing_and_quantile_error():
    h = Histogram()
    values = [0.001 * (1.07 ** i) for i in range(300)]
    for v in values:
        h.observe(v)
    assert h.count == len(values)
    assert h.sum == pytest.approx(sum(values))
    assert h.min == pytest.approx(min(values))
    assert h.max == pytest.approx(max(values))
    # log-bucketing bounds the relative quantile error to one bucket
    # width: 2**(1/8) - 1 ≈ 9.05% above, and the estimate never goes
    # below the true quantile's bucket lower bound
    limit = 2.0 ** (1.0 / BUCKETS_PER_OCTAVE)
    rest = sorted(values)
    for q in (0.5, 0.9, 0.99):
        exact = rest[max(0, math.ceil(q * len(rest)) - 1)]
        est = h.quantile(q)
        assert exact / limit <= est <= exact * limit


def test_histogram_zero_bucket_and_empty():
    h = Histogram()
    assert h.quantile(0.5) == 0.0
    assert h.mean == 0.0
    h.observe(0.0)
    h.observe(-3.0)
    assert h.zero == 2
    assert h.buckets == {}
    assert h.quantile(0.99) == 0.0
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_merge_is_exact():
    a, b, ref = Histogram(), Histogram(), Histogram()
    for i, v in enumerate([0.5, 1.0, 2.0, 4.0, 0.0, 7.5, 0.25]):
        (a if i % 2 else b).observe(v)
        ref.observe(v)
    a.merge(b)
    assert a.count == ref.count
    assert a.sum == pytest.approx(ref.sum)
    assert a.zero == ref.zero
    assert a.buckets == ref.buckets
    assert a.quantile(0.9) == ref.quantile(0.9)


def test_histogram_serialization_roundtrip():
    h = Histogram()
    for v in (0.0, 0.1, 1.0, 10.0, 10.0, 250.0):
        h.observe(v)
    d = h.to_dict()
    assert d["p50"] >= 0.0 and d["p99"] <= d["max"] * (2 ** 0.125)
    back = Histogram.from_dict(json.loads(json.dumps(d)))
    assert back.count == h.count
    assert back.buckets == h.buckets
    assert back.quantile(0.5) == h.quantile(0.5)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_make_registry_specs():
    for off in (None, False, "null", "none", "off", ""):
        assert make_registry(off) is None
    for on in (True, "on", "full"):
        assert isinstance(make_registry(on), MetricsRegistry)
    reg = MetricsRegistry()
    assert make_registry(reg) is reg
    with pytest.raises(ValueError):
        make_registry("sometimes")


def test_registry_memoizes_and_value_of():
    reg = MetricsRegistry()
    c1 = reg.counter("ops_total", kind="read")
    c1.inc(3)
    assert reg.counter("ops_total", kind="read") is c1
    reg.counter("ops_total", kind="write").inc(4)
    assert reg.value_of("ops_total") == 7.0
    assert reg.value_of("ops_total", {"kind": "read"}) == 3.0
    assert reg.value_of("missing_total") is None
    reg.histogram("lat_seconds", op="A").observe(1.0)
    reg.histogram("lat_seconds", op="B").observe(4.0)
    # histograms merge across matching series before the quantile
    assert reg.value_of("lat_seconds", quantile=0.99) >= 4.0
    assert reg.value_of("lat_seconds", {"op": "A"}, quantile=0.5) <= 1.1


def test_split_key_roundtrip():
    reg = MetricsRegistry()
    reg.counter("x_total", a="b c", z="1")
    key = next(iter(reg._counters))
    name, labels = split_key(key)
    assert name == "x_total"
    assert labels == {"a": "b c", "z": "1"}
    assert split_key("plain") == ("plain", {})


def test_snapshot_and_jsonl_roundtrip(tmp_path):
    reg = MetricsRegistry()
    reg.counter("a_total").inc(2)
    reg.gauge("depth", agent="x").set(5.0)
    reg.histogram("lat_seconds").observe(0.5)
    snap = reg.snapshot(meta={"scenario": "t"})
    assert snap["snapshot"] == "repro-metrics"
    assert snap["meta"]["scenario"] == "t"
    assert snap["counters"]["a_total"] == 2
    path = tmp_path / "m.jsonl"
    reg.write_jsonl(path, meta={"scenario": "t"})
    lines = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert lines[0]["type"] == "meta"
    kinds = {ln["type"] for ln in lines}
    assert kinds == {"meta", "counter", "gauge", "histogram"}


def test_collect_hooks_refresh_gauges():
    reg = MetricsRegistry()
    state = {"depth": 1.0}
    reg.add_collect_hook(lambda r: r.gauge("live_depth").set(state["depth"]))
    state["depth"] = 9.0
    snap = reg.snapshot()
    assert snap["gauges"]["live_depth"] == 9.0


def test_openmetrics_exposition_format():
    reg = MetricsRegistry()
    reg.counter("ops_total", op="A").inc(3)
    reg.gauge("heap_size").set(12)
    h = reg.histogram("lat_seconds", op="A")
    for v in (0.0, 0.5, 2.0):
        h.observe(v)
    text = reg.openmetrics()
    assert text.endswith("# EOF\n")
    # counter families drop the _total suffix per OpenMetrics
    assert "# TYPE ops counter" in text
    assert "# TYPE heap_size gauge" in text
    assert "# TYPE lat_seconds histogram" in text
    assert 'ops_total{op="A"} 3' in text
    # cumulative buckets end at +Inf == count, plus _count/_sum samples
    assert 'lat_seconds_bucket{le="+Inf",op="A"} 3' in text
    assert 'lat_seconds_count{op="A"} 3' in text
    assert 'lat_seconds_sum{op="A"} 2.5' in text


def test_registry_merge_and_fingerprint():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("ops_total").inc(2)
    b.counter("ops_total").inc(3)
    b.histogram("lat_seconds").observe(1.0)
    b.counter("engine_boundaries_total").inc(50)
    a.merge(b)
    assert a.counter("ops_total").value == 5
    lines = list(a.fingerprint_lines())
    assert any(line.startswith("c|ops_total|") for line in lines)
    assert any(line.startswith("h|lat_seconds|") for line in lines)
    # engine loop mechanics never enter the checkpoint fingerprint
    assert not any("engine_" in line for line in lines)


def test_registry_to_from_dict_roundtrip():
    reg = MetricsRegistry()
    reg.counter("ops_total", op="A").inc(7)
    reg.gauge("depth").set(3.0)
    reg.histogram("lat_seconds").observe(0.25)
    back = MetricsRegistry.from_dict(json.loads(json.dumps(reg.to_dict())))
    assert list(back.fingerprint_lines()) == list(reg.fingerprint_lines())
    assert back.gauge("depth").value == 3.0


# ----------------------------------------------------------------------
# event log
# ----------------------------------------------------------------------
def test_event_log_emit_filter_and_jsonl(tmp_path):
    log = EventLog()
    log.emit("run_start", 0.0, scenario="portal")
    log.emit("alert", 12.0, rule="r1")
    assert len(log) == 2
    assert [e["kind"] for e in log.events()] == ["run_start", "alert"]
    assert log.events("alert")[0]["rule"] == "r1"
    alert = log.events("alert")[0]
    assert alert["sim_time"] == 12.0 and alert["wall_time"] > 0.0
    path = tmp_path / "events.jsonl"
    log.write_jsonl(path)
    lines = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert lines[1]["kind"] == "alert"


def test_event_log_ring_bounds_memory():
    log = EventLog(capacity=4)
    for i in range(10):
        log.emit("tick", float(i))
    assert len(log) == 4
    assert log.dropped == 6
    assert log.emitted == 10
    assert [e["sim_time"] for e in log.events()] == [6.0, 7.0, 8.0, 9.0]
    with pytest.raises(ValueError):
        EventLog(capacity=0)


# ----------------------------------------------------------------------
# SLO rules
# ----------------------------------------------------------------------
def test_slo_rule_validation():
    with pytest.raises(ValueError):
        SLORule(name="r", metric="m")  # no bound
    with pytest.raises(ValueError):
        SLORule(name="r", metric="m", max_ratio=0.1)  # ratio needs per
    with pytest.raises(ValueError):
        SLORule.from_dict({"name": "r", "metric": "m", "max": 1, "oops": 2})
    rules = parse_slo_block([{"name": "r", "metric": "m", "max": 1.0}])
    assert rules[0].name == "r"
    assert parse_slo_block(None) == []
    with pytest.raises(ValueError):
        parse_slo_block({"name": "not-a-list"})


def test_slo_rule_evaluation_bounds_and_ratio():
    reg = MetricsRegistry()
    reg.histogram("lat_seconds").observe(2.0)
    reg.counter("errors_total").inc(5)
    reg.counter("requests_total").inc(100)
    hi = SLORule(name="lat", metric="lat_seconds", quantile=0.99, max=1.0)
    assert hi.evaluate(reg)["violated"]
    lo = SLORule(name="floor", metric="requests_total", min=200.0)
    assert lo.evaluate(reg)["violated"]
    ratio = SLORule(name="err", metric="errors_total",
                    per="requests_total", max_ratio=0.01)
    row = ratio.evaluate(reg)
    assert row["violated"] and row["value"] == pytest.approx(0.05)
    # no data yet: vacuous pass, value None
    ghost = SLORule(name="g", metric="absent_total", max=1.0)
    row = ghost.evaluate(reg)
    assert row["value"] is None and not row["violated"]


def test_slo_checker_edge_triggered_alerts():
    reg = MetricsRegistry()
    events = EventLog()
    rule = SLORule(name="depth", metric="queue_depth", max=10.0)
    checker = SLOChecker([rule], reg, events)
    g = reg.gauge("queue_depth")
    g.set(5.0)
    checker.check(1.0)
    g.set(50.0)
    checker.check(2.0)
    checker.check(3.0)  # still violating: no second alert
    g.set(2.0)
    checker.check(4.0)
    assert checker.alerts == 1
    assert [e["kind"] for e in events.events()] == ["alert", "alert_cleared"]
    assert events.events("alert")[0]["sim_time"] == 2.0
    report = checker.report()
    assert report.passed and report.alerts == 1
    assert "slo: PASS" in report.table()


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def test_direction_heuristics():
    assert direction_of("operation_latency_seconds:p99") == "up"
    assert direction_of("agent_completions_total") == "down"
    assert direction_of("engine_wake_heap_size") == "info"


def test_compare_statuses_and_overrides():
    base = {"latency:p99": 1.0, "operations_total": 100.0, "heap": 10.0,
            "gone": 1.0}
    cand = {"latency:p99": 1.25, "operations_total": 97.0, "heap": 30.0,
            "fresh": 1.0}
    report = compare(base, cand)
    by = {r.metric: r.status for r in report.rows}
    assert by["latency:p99"] == "regression"    # +25% latency
    assert by["operations_total"] == "ok"       # -3% within tolerance
    assert by["heap"] == "drift"                # info direction never gates
    assert by["gone"] == "missing" and by["fresh"] == "new"
    assert not report.passed
    # a loose per-metric override swallows the latency jump
    report = compare(base, cand, overrides={"latency": 0.5})
    assert report.passed
    # a -40% throughput drop gates in the down direction
    report = compare({"operations_total": 100.0}, {"operations_total": 60.0})
    assert not report.passed
    # improvements past tolerance are labelled, not gated
    report = compare({"latency:p99": 1.0}, {"latency:p99": 0.5})
    assert report.rows[0].status == "improved" and report.passed


def test_compare_zero_baseline():
    report = compare({"failed_total": 0.0}, {"failed_total": 3.0})
    assert report.rows[0].delta == math.inf
    assert not report.passed
    report = compare({"failed_total": 0.0}, {"failed_total": 0.0})
    assert report.passed


def test_compare_paths_snapshot_regression(tmp_path):
    reg = MetricsRegistry()
    for v in (0.5, 1.0, 1.5, 2.0):
        reg.histogram("operation_latency_seconds", op="OPEN").observe(v)
    reg.counter("agent_completions_total", agent="a").inc(40)
    a = tmp_path / "base.json"
    reg.write_snapshot(a)
    # identical snapshots pass with exit code 0
    report, code = compare_paths(str(a), str(a))
    assert code == 0 and report.passed
    # inject a 20% latency regression; default 10% tolerance must gate
    doc = json.loads(a.read_text())
    hist = doc["histograms"]['operation_latency_seconds{op="OPEN"}']
    hist["sum"] *= 1.2
    for q in ("p50", "p90", "p99", "max"):
        if q in hist:
            hist[q] *= 1.2
    b = tmp_path / "cand.json"
    b.write_text(json.dumps(doc))
    report, code = compare_paths(str(a), str(b))
    assert code == 1
    assert any("operation_latency_seconds" in r.metric
               for r in report.regressions)
    assert "FAIL" in report.table()


def test_compare_snapshot_and_jsonl_flatten_alike(tmp_path):
    reg = MetricsRegistry()
    reg.counter("agent_completions_total", agent="DNA.Tapp").inc(40)
    reg.counter("agent_completions_total", agent="DNA.Tdb").inc(7)
    reg.counter("operations_failed_total").inc(2)
    reg.gauge("engine_wake_heap_size", shard="0").set(12.5)
    for v in (0.5, 1.0, 1.5, 2.0):
        reg.histogram("operation_latency_seconds", op="OPEN",
                      dc="DNA").observe(v)
    reg.histogram("queue_wait_seconds").observe(0.25)
    snapshot = tmp_path / "m.json"
    jsonl = tmp_path / "m.jsonl"
    reg.write_snapshot(snapshot)
    reg.write_jsonl(jsonl)
    flat = flatten(load_document(str(snapshot)))
    assert flat == flatten(load_document(str(jsonl)))
    assert flat['agent_completions_total{agent="DNA.Tdb"}'] == 7.0
    assert 'operation_latency_seconds{dc="DNA",op="OPEN"}:p99' in flat
    _, code = compare_paths(str(snapshot), str(jsonl))
    assert code == 0


def test_compare_disjoint_documents_exit_2(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    first, second = MetricsRegistry(), MetricsRegistry()
    first.counter("alpha_total").inc()
    second.counter("omega_total").inc()
    first.write_snapshot(a)
    second.write_snapshot(b)
    _, code = compare_paths(str(a), str(b))
    assert code == 2
    with pytest.raises(ValueError):
        flatten({"what": "ever"})


def test_cli_compare_subcommand(tmp_path, capsys):
    from repro.cli import main

    reg = MetricsRegistry()
    reg.histogram("queue_wait_seconds").observe(1.0)
    a = tmp_path / "a.json"
    reg.write_snapshot(a)
    assert main(["compare", str(a), str(a)]) == 0
    doc = json.loads(a.read_text())
    doc["histograms"]["queue_wait_seconds"]["p50"] = 1.3
    b = tmp_path / "b.json"
    b.write_text(json.dumps(doc))
    assert main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "regression" in out and "FAIL" in out
    # per-metric override
    assert main(["compare", str(a), str(b),
                 "--metric-tolerance", "queue_wait=0.5"]) == 0
    assert DEFAULT_TOLERANCE == pytest.approx(0.10)


# ----------------------------------------------------------------------
# end-to-end: metered runs
# ----------------------------------------------------------------------
def test_metrics_do_not_perturb_the_simulation():
    plain = simulate(portal_scenario(), until=90.0)
    metered = simulate(portal_scenario(), until=90.0,
                       observability=ObservabilityOptions(metrics="on"))
    assert plain.metrics is None and metered.metrics is not None
    assert len(plain.records) == len(metered.records) > 0
    for a, b in zip(plain.records, metered.records):
        assert (a.operation, a.start, a.end, a.failed) == \
               (b.operation, b.start, b.end, b.failed)


def test_unmetered_run_is_structurally_free():
    result = simulate(portal_scenario(), until=30.0)
    assert result.metrics is None and result.events is None
    session_agents = result.scenario.topology.all_agents()
    assert all(a._metrics is None for a in session_agents)
    with pytest.raises(Exception):
        result.metrics_snapshot()


def test_metered_run_instruments_hot_seams(tmp_path):
    result = simulate(portal_scenario(), until=120.0,
                      observability=ObservabilityOptions(metrics="on"))
    reg = result.metrics
    assert reg.value_of("engine_boundaries_total") > 0
    assert reg.value_of("engine_calendar_events_total") > 0
    assert reg.value_of("engine_agent_wakes_total") > 0
    assert reg.value_of("agent_arrivals_total") > 0
    assert reg.value_of("agent_completions_total") > 0
    assert reg.value_of("operations_total") == len(result.records)
    assert reg.value_of("queue_sojourn_seconds", quantile=0.99) > 0
    # gauges refresh through the collect hooks
    snap = result.metrics_snapshot()
    assert any(k.startswith("agent_utilization") for k in snap["gauges"])
    assert any(k.startswith("agent_queue_depth") for k in snap["gauges"])
    assert 0.0 <= max(
        v for k, v in snap["gauges"].items()
        if k.startswith("agent_utilization")) <= 1.0
    om = tmp_path / "metrics.om"
    result.write_openmetrics(om)
    assert om.read_text().endswith("# EOF\n")
    ev = tmp_path / "events.jsonl"
    result.write_event_log(ev)
    kinds = [json.loads(ln)["kind"] for ln in ev.read_text().splitlines()]
    assert kinds[0] == "run_start" and "run_end" in kinds


def test_metrics_agree_with_telemetry():
    # parity: the streaming counters and the end-of-run telemetry are
    # two views of the same events
    result = simulate(portal_scenario(), until=90.0,
                      observability=ObservabilityOptions(metrics="on"))
    reg = result.metrics
    for agent in result.scenario.topology.all_agents():
        if agent._metrics is None:
            continue
        t = agent.telemetry()
        assert reg.value_of("agent_arrivals_total",
                            {"agent": agent.name}) == t.arrivals, agent.name


def test_simulate_slo_block_reports_and_alerts(tmp_path):
    slo = [
        {"name": "sojourn-p99", "metric": "queue_sojourn_seconds",
         "quantile": 0.99, "max": 1e-9},
        {"name": "ops-floor", "metric": "operations_total", "min": 1.0},
    ]
    result = simulate(portal_scenario(), until=120.0,
                      observability=ObservabilityOptions(slo=slo))
    # an slo block forces the registry on even without metrics=
    assert result.metrics is not None
    report = result.slo_report()
    assert not report.passed
    by = {r["rule"]: r for r in report.rows}
    assert by["sojourn-p99"]["violated"]
    assert not by["ops-floor"]["violated"]
    assert "slo: FAIL" in report.table()
    # the violation also landed in the event log, edge-triggered
    alerts = result.events.events("alert")
    assert len(alerts) == 1
    assert alerts[0]["rule"] == "sojourn-p99"
    plain = simulate(portal_scenario(), until=30.0)
    assert plain.slo_report() is None


def test_checkpoint_resume_with_metrics(tmp_path):
    ck = tmp_path / "run.ckpt"
    straight = simulate(portal_scenario(), until=60.0,
                        observability=ObservabilityOptions(metrics="on"),
                        checkpoint=CheckpointOptions(every=25.0, path=ck))
    assert ck.exists()
    resumed = simulate(portal_scenario(), until=60.0,
                       checkpoint=CheckpointOptions(resume_from=ck))
    # the checkpoint re-arms metrics so the fingerprint verifies
    assert resumed.metrics is not None
    assert len(resumed.records) == len(straight.records)
    a = set(straight.metrics.fingerprint_lines())
    b = set(resumed.metrics.fingerprint_lines())
    assert a == b
    assert resumed.events.events("resume")


# ----------------------------------------------------------------------
# profiler phase names (regression: docs and tests once said "step")
# ----------------------------------------------------------------------
def test_profiler_phase_names_match_engine():
    assert PHASES == ("step_select", "wake", "events", "monitors")
    result = simulate(portal_scenario(), until=60.0,
                      observability=ObservabilityOptions(profile=True))
    prof = result.profile
    summary = prof.summary()
    assert set(summary) == set(PHASES)
    recorded = {p for p, n in prof.phase_calls.items() if n > 0}
    # every phase the engine recorded is a declared phase
    assert recorded <= set(PHASES)
    assert "wake" in recorded and "events" in recorded
