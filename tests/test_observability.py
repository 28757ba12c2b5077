"""Tests for repro.observability: tracing, telemetry, profiling, export."""

import json
import math
import tracemalloc

import pytest

from repro.api import (
    EngineOptions,
    ObservabilityOptions,
    Scenario,
    simulate,
)
from repro.core.engine import Simulator
from repro.core.job import Job
from repro.observability import (
    AgentTelemetry,
    TraceRecorder,
    aggregate_telemetry,
    chrome_trace_events,
    format_waterfall,
    make_recorder,
    write_chrome_trace,
)
from repro.observability import exporters
from repro.observability.trace import MergedTrace, Span
from repro.queueing import FCFSQueue
from repro.software.application import Application
from repro.software.message import CLIENT, MessageSpec
from repro.software.operation import Operation
from repro.software.resources import R
from repro.software.workload import OperationMix, WorkloadCurve
from repro.topology.network import GlobalTopology
from repro.topology.specs import DataCenterSpec, SANSpec, TierSpec


# ----------------------------------------------------------------------
# shared scenario: a small two-tier portal
# ----------------------------------------------------------------------
def portal_scenario(seed: int = 11, clients: float = 120.0) -> Scenario:
    topo = GlobalTopology(seed=7)
    topo.add_datacenter(DataCenterSpec(
        name="DNA",
        tiers=(
            TierSpec("app", n_servers=2, cores_per_server=2, memory_gb=8.0,
                     sockets=1),
            TierSpec("fs", n_servers=1, cores_per_server=2, memory_gb=8.0,
                     sockets=1, uses_san=True),
        ),
        sans=(SANSpec(servers=1, n_disks=4, drive_rpm=15000),),
    ))
    browse = Operation("BROWSE", [
        MessageSpec(CLIENT, "app", r=R.of(cycles=2e9, net_kb=16)),
        MessageSpec("app", CLIENT, r=R.of(net_kb=64)),
    ])
    fetch = Operation("FETCH", [
        MessageSpec(CLIENT, "app", r=R.of(cycles=1e9, net_kb=8)),
        MessageSpec("app", "fs", r=R.of(cycles=2e8, net_kb=8)),
        MessageSpec("fs", "app", r=R.of(net_kb=256, disk_kb=256)),
        MessageSpec("app", CLIENT, r=R.of(net_kb=256)),
    ])
    app = Application(
        name="portal",
        operations={"BROWSE": browse, "FETCH": fetch},
        mix=OperationMix({"BROWSE": 0.6, "FETCH": 0.4}),
        workloads={"DNA": WorkloadCurve([clients] * 24)},
        ops_per_client_hour=20.0,
    )
    return Scenario(name="portal", topology=topo, applications=[app],
                    seed=seed)


# ----------------------------------------------------------------------
# recorder construction
# ----------------------------------------------------------------------
def test_make_recorder_modes():
    assert make_recorder(None) is None
    assert make_recorder("null") is None
    assert make_recorder("none") is None
    assert make_recorder("off") is None
    assert make_recorder("") is None
    full = make_recorder("full")
    assert isinstance(full, TraceRecorder) and full.sample_rate == 1.0
    sampled = make_recorder("sampling:0.25")
    assert sampled.sample_rate == pytest.approx(0.25)
    assert make_recorder("sampling(0.5)").sample_rate == pytest.approx(0.5)
    rec = TraceRecorder()
    assert make_recorder(rec) is rec
    with pytest.raises(ValueError):
        make_recorder("verbose")
    with pytest.raises(ValueError):
        make_recorder("sampling:2.0")


def test_bare_sampling_spec_defaults():
    from repro.observability.trace import DEFAULT_SAMPLE_RATE

    rec = make_recorder("sampling")
    assert rec.mode == "sampling"
    assert rec.sample_rate == pytest.approx(DEFAULT_SAMPLE_RATE)


def test_null_trace_is_structurally_free():
    """trace="null" must not install a recorder at all.

    The overhead guard: with no recorder, Agent.submit pays exactly one
    ``is not None`` check, identical to a build without observability —
    so "within noise of no-trace" holds by construction, not by timing.
    """
    assert Simulator(trace="null").trace is None
    assert Simulator(trace=None).trace is None
    sim = Simulator(trace="null")
    q = sim.add_agent(FCFSQueue("q", rate=1.0))
    assert q._tracer is None


def test_tracing_does_not_perturb_results():
    """Identical seeds with and without tracing → identical records."""
    base = simulate(portal_scenario(), until=120.0)
    traced = simulate(portal_scenario(), until=120.0,
                      observability=ObservabilityOptions(trace="full"))
    assert len(base.records) == len(traced.records)
    for a, b in zip(base.records, traced.records):
        assert a.operation == b.operation
        assert a.start == pytest.approx(b.start)
        assert a.response_time == pytest.approx(b.response_time)


# ----------------------------------------------------------------------
# span-tree well-formedness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_span_tree_well_formed(seed):
    result = simulate(portal_scenario(seed=seed), until=150.0,
                      observability=ObservabilityOptions(trace="full"))
    spans = result.spans()
    cascades = {c.cascade_id: c for c in result.cascades()}
    assert spans and cascades
    for span in spans:
        assert span.cascade_id in cascades or span.cascade_id is not None
        assert span.end >= span.start >= span.enqueue
        assert span.wait >= 0.0
        assert span.service >= 0.0
        assert span.duration == pytest.approx(span.wait + span.service)
        assert span.agent
        assert span.demand >= 0.0
        casc = cascades.get(span.cascade_id)
        if casc is not None and not math.isnan(casc.end):
            assert casc.start - 1e-9 <= span.enqueue
            assert span.end <= casc.end + 1e-9
    for casc in cascades.values():
        if not math.isnan(casc.end):
            assert casc.end >= casc.start
        assert casc.operation
        assert casc.sampled


def test_operation_cascades_match_records():
    result = simulate(portal_scenario(), until=150.0,
                      observability=ObservabilityOptions(trace="full"))
    op_cascades = [c for c in result.cascades()
                   if c.operation in ("BROWSE", "FETCH")
                   and not math.isnan(c.end)]
    completed = [r for r in result.records if not r.failed]
    assert len(op_cascades) == len(completed)
    grouped = result.trace.spans_by_cascade()
    for casc in op_cascades:
        assert grouped[casc.cascade_id], "every cascade has spans"


def test_sampling_records_subset_without_perturbing():
    full = simulate(portal_scenario(), until=150.0,
                    observability=ObservabilityOptions(trace="full"))
    sampled = simulate(portal_scenario(), until=150.0,
                       observability=ObservabilityOptions(
                           trace="sampling:0.3"))
    none_sampled = simulate(portal_scenario(), until=150.0,
                            observability=ObservabilityOptions(
                                trace="sampling:0.0"))
    assert len(sampled.cascades()) < len(full.cascades())
    assert sampled.trace.sampled_out > 0
    assert len(none_sampled.cascades()) == 0
    assert len(none_sampled.spans()) == 0
    # the simulated records themselves stay identical in all three modes
    assert len(full.records) == len(sampled.records) == \
        len(none_sampled.records)


def test_ring_buffer_eviction():
    rec = TraceRecorder(mode="full", capacity=64)
    result = simulate(portal_scenario(), until=150.0,
                      observability=ObservabilityOptions(trace=rec))
    assert len(result.spans()) <= 64
    assert rec.evicted_spans > 0
    assert rec.started_cascades > 0


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
def test_agent_telemetry_consistency():
    result = simulate(portal_scenario(), until=150.0)
    tel = result.telemetry()
    assert tel, "topology agents must report telemetry"
    seen_busy = False
    for t in tel.values():
        assert isinstance(t, AgentTelemetry)
        assert t.arrivals >= t.completions >= 0
        assert t.in_flight == t.arrivals - t.completions - t.drops
        assert t.busy_time >= 0.0
        assert t.queue_hwm >= 0
        seen_busy = seen_busy or t.busy_time > 0
    assert seen_busy, "some agent must have done work"


def test_aggregate_telemetry():
    a = AgentTelemetry(name="a", agent_type="q", arrivals=3, completions=2,
                       drops=1, busy_time=1.5, queue_length=0, queue_hwm=2)
    b = AgentTelemetry(name="b", agent_type="q", arrivals=5, completions=5,
                       drops=0, busy_time=2.5, queue_length=1, queue_hwm=4)
    total = aggregate_telemetry([a, b])
    assert total.arrivals == 8
    assert total.completions == 7
    assert total.drops == 1
    assert total.busy_time == pytest.approx(4.0)
    assert total.queue_hwm == 4
    assert a.as_dict()["arrivals"] == 3


def test_queue_drop_counter():
    q = FCFSQueue("q", rate=1.0)
    q.record_drop()
    q.record_drop(2)
    assert q.telemetry().drops == 3


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def test_chrome_trace_export(tmp_path):
    result = simulate(portal_scenario(), until=120.0,
                      observability=ObservabilityOptions(trace="full"))
    path = tmp_path / "trace.json"
    n = result.write_chrome_trace(path)
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert len(events) == n > 0
    phases = {e["ph"] for e in events}
    assert phases <= {"X", "M"}
    for e in events:
        if e["ph"] == "X":
            assert e["ts"] >= 0.0
            assert e["dur"] >= 0.0
            assert e["pid"] == 1
    names = [e for e in events if e["ph"] == "M"]
    assert names, "thread-name metadata must label the agent lanes"


def test_chrome_trace_without_recorder_writes_empty_doc(tmp_path):
    # An untraced run exports a valid (empty) Chrome trace instead of
    # crashing, so `repro trace` pipelines don't need trace-mode guards.
    result = simulate(portal_scenario(), until=30.0)
    path = tmp_path / "empty-trace.json"
    n = result.write_chrome_trace(path)
    doc = json.loads(path.read_text())
    assert doc["traceEvents"] == [] or all(
        e["ph"] == "M" for e in doc["traceEvents"])
    assert n == len(doc["traceEvents"])
    assert doc["displayTimeUnit"]


def _dumped_trace(spans, cascades=(), shard_labels=None, flows=()):
    """The whole-document encoding the streamed export must reproduce."""
    events = chrome_trace_events(spans, cascades, shard_labels=shard_labels,
                                 flows=flows)
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    return json.dumps(doc).encode("utf-8")


def _synthetic_spans(n, agents=16):
    return [
        Span(cascade_id=i // 8, span_id=i + 1, agent=f"agent{i % agents}",
             agent_type="cpu", tag="OPEN" if i % 3 == 0 else None,
             demand=1.5e6 * (i % 7), enqueue=0.01 * i,
             start=0.01 * i + 0.001, end=0.01 * i + 0.0075)
        for i in range(n)
    ]


def test_chrome_trace_file_matches_whole_document_encoding(tmp_path):
    path = tmp_path / "trace.json"

    traced = simulate(portal_scenario(), until=120.0,
                      observability=ObservabilityOptions(trace="full"))
    n = traced.write_chrome_trace(path)
    expected = _dumped_trace(traced.spans(), traced.cascades())
    assert path.read_bytes() == expected
    assert n == len(json.loads(expected)["traceEvents"])

    merged, _ = _two_shard_trace()
    write_chrome_trace(path, merged.spans(), shard_labels=merged.shard_labels,
                       flows=merged.flows)
    assert path.read_bytes() == _dumped_trace(
        merged.spans(), shard_labels=merged.shard_labels, flows=merged.flows)

    untraced = simulate(portal_scenario(), until=30.0)
    untraced.write_chrome_trace(path)
    assert path.read_bytes() == _dumped_trace([])


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_chrome_trace_file_at_chunk_boundaries(tmp_path, delta):
    # one process_name + one cascade-lane name + one name per agent lane
    agents = 16
    n_events = exporters._CHUNK_EVENTS + delta
    spans = _synthetic_spans(n_events - 2 - agents, agents=agents)
    path = tmp_path / "trace.json"
    assert write_chrome_trace(path, spans) == n_events
    assert path.read_bytes() == _dumped_trace(spans)


def test_chrome_trace_failed_export_keeps_previous_file(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text("previous trace")

    def failing_spans():
        yield from _synthetic_spans(2 * exporters._CHUNK_EVENTS)
        raise RuntimeError("span source failed")

    with pytest.raises(RuntimeError, match="span source failed"):
        write_chrome_trace(path, failing_spans())
    assert path.read_text() == "previous trace"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.json"]


def test_chrome_trace_export_memory_does_not_grow_with_trace(tmp_path):
    def export_peak(n_spans):
        spans = _synthetic_spans(n_spans)
        tracemalloc.start()
        try:
            write_chrome_trace(tmp_path / "trace.json", spans)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # two slices against sixteen: a list-building export peaks ~8x higher
    chunk = exporters._CHUNK_EVENTS
    small, large = export_peak(2 * chunk), export_peak(16 * chunk)
    assert large < 1.5 * small, (small, large)


def test_waterfall_without_spans_renders_placeholder():
    text = format_waterfall("EMPTY", [], latency=0.0)
    assert "EMPTY" in text
    assert "no contributions" in text


def test_des_waterfall_renders():
    result = simulate(portal_scenario(), until=120.0,
                      observability=ObservabilityOptions(trace="full"))
    text = result.waterfall("BROWSE")
    assert "BROWSE" in text
    assert "total" in text


def test_format_waterfall_totals():
    text = format_waterfall("X", [("a", 1.0), ("b", 3.0)], latency=1.0)
    assert "total" in text
    assert "5.0000s" in text


# ----------------------------------------------------------------------
# fluid waterfall vs the response-time pipeline
# ----------------------------------------------------------------------
def test_fluid_waterfall_matches_response_pipeline():
    from repro.fluid.spans import synthesize_spans

    result = simulate("consolidation", engine=EngineOptions(mode="fluid"))
    solver = result.fluid
    app = next(a for a in result.scenario.applications if a.name == "CAD")
    for op_name in ("OPEN", "SAVE", "LOGIN"):
        rt = solver.response_time(app, op_name, "DEU", 15.0 * 3600.0)
        cascade, spans = synthesize_spans(solver, app, op_name, "DEU",
                                          15.0 * 3600.0)
        total = sum(s.duration for s in spans)
        assert total == pytest.approx(rt, rel=0.01)
        assert cascade.end - cascade.start == pytest.approx(rt, rel=0.01)


# ----------------------------------------------------------------------
# profiler
# ----------------------------------------------------------------------
def test_engine_profiler_phases():
    result = simulate(portal_scenario(), until=60.0,
                      observability=ObservabilityOptions(profile=True))
    prof = result.profile
    assert prof is not None
    assert prof.ticks > 0
    assert prof.wall_seconds > 0.0
    assert set(prof.phase_seconds) == {"events", "monitors", "step_select",
                                       "wake"}
    assert 0.0 < prof.accounted_seconds <= prof.wall_seconds * 1.5
    table = prof.table()
    assert "wake" in table
    summary = prof.summary()
    assert sum(row["share"] for row in summary.values()) == pytest.approx(1.0)


def test_profiler_absent_by_default():
    result = simulate(portal_scenario(), until=30.0)
    assert result.profile is None


def test_profiler_groups_backend_phases_separately():
    """Backend phases form their own share group (no double counting)."""
    from repro.observability.profiler import BACKEND_PHASES, EngineProfiler

    prof = EngineProfiler()
    for p, sec in zip(("step_select", "wake", "events", "monitors"),
                      (1.0, 2.0, 3.0, 4.0)):
        prof.record(p, sec)
    for p, sec in zip(BACKEND_PHASES, (2.0, 1.0, 10.0, 1.0, 4.0, 2.0)):
        prof.record(p, sec)
    summary = prof.summary()
    engine_share = sum(summary[p]["share"]
                      for p in ("step_select", "wake", "events", "monitors"))
    backend_share = sum(summary[p]["share"] for p in BACKEND_PHASES)
    assert engine_share == pytest.approx(1.0)
    assert backend_share == pytest.approx(1.0)
    assert summary["window_advance"]["share"] == pytest.approx(10.0 / 20.0)
    table = prof.table()
    assert "barrier_wait" in table


def test_profiler_dict_roundtrip():
    from repro.observability.profiler import EngineProfiler

    prof = EngineProfiler()
    prof.record("events", 1.5, calls=7)
    prof.record("barrier_wait", 0.25, calls=3)
    prof.ticks, prof.agent_ticks, prof.wall_seconds = 11, 42, 2.5
    clone = EngineProfiler.from_dict(prof.to_dict())
    assert clone.to_dict() == prof.to_dict()


def test_merged_profile_aggregates():
    from repro.observability.profiler import EngineProfiler, MergedProfile

    shards = []
    for barrier in (0.2, 0.7):
        p = EngineProfiler()
        p.record("events", 1.0, calls=5)
        p.record("barrier_wait", barrier, calls=2)
        p.ticks, p.wall_seconds = 10, 3.0 + barrier
        shards.append(p)
    merged = MergedProfile(shards, shard_labels=["DNA", "R00"])
    assert merged.phase_seconds["events"] == pytest.approx(2.0)
    assert merged.phase_calls["events"] == 10
    assert merged.ticks == 20
    assert merged.wall_seconds == pytest.approx(3.7)  # max, not sum
    assert merged.barrier_skew() == pytest.approx(0.5)
    doc = merged.to_dict()
    assert len(doc["per_shard"]) == 2
    assert doc["shard_labels"] == ["DNA", "R00"]
    assert doc["barrier_skew_s"] == pytest.approx(0.5)
    assert "DNA: " in merged.table()


# ----------------------------------------------------------------------
# distributed trace identity (PR 7)
# ----------------------------------------------------------------------
def test_parent_links_chain_through_cascade_legs():
    """Within one cascade, each leg's span links to the span that
    submitted it — the FETCH pipeline forms one root-anchored tree."""
    result = simulate(portal_scenario(), until=150.0,
                      observability=ObservabilityOptions(trace="full"))
    for cid, spans in result.trace.spans_by_cascade().items():
        ids = {s.span_id for s in spans}
        roots = [s for s in spans if s.parent_id is None]
        assert roots, f"cascade {cid} has no root span"
        for s in spans:
            assert s.parent_id is None or s.parent_id in ids
            assert s.parent_id != s.span_id


def test_cascade_ids_are_partition_independent():
    """The same client DC launch sequence yields the same cascade ids
    whatever recorder instance (or shard) produced them."""
    a, b = TraceRecorder(), TraceRecorder()
    b.set_shard(3)
    ids_a = [a.start_cascade("OP", "app", "DEU", 0.0).cascade_id
             for _ in range(4)]
    ids_b = [b.start_cascade("OP", "app", "DEU", 0.0).cascade_id
             for _ in range(4)]
    assert ids_a == ids_b
    # ...but span ids live in disjoint per-shard blocks
    sa = a._span_base + 1
    sb = b._span_base + 1
    assert sa != sb and sb == (4 << 40) + 1


def test_hash_sampling_is_order_independent():
    """Sampling decisions ride the cascade id, not the draw sequence."""
    a = TraceRecorder(mode="sampling", sample_rate=0.5)
    b = TraceRecorder(mode="sampling", sample_rate=0.5)
    decisions_a = [a.start_cascade("OP", "", "DEU", 0.0).sampled
                   for _ in range(64)]
    # b sees interleaved launches from another DC; DEU decisions match
    decisions_b = []
    for _ in range(64):
        b.start_cascade("OP", "", "FRA", 0.0)
        decisions_b.append(b.start_cascade("OP", "", "DEU", 0.0).sampled)
    assert decisions_a == decisions_b
    assert any(decisions_a) and not all(decisions_a)


def test_canonical_spans_erase_id_spaces():
    from repro.observability.trace import canonical_spans

    def spans(base, shard):
        root = Span(cascade_id=9, span_id=base + 1, agent="a",
                    agent_type="q", tag="t", demand=1.0, enqueue=0.0,
                    start=0.0, end=1.0, parent_id=None, shard=shard)
        child = Span(cascade_id=9, span_id=base + 2, agent="b",
                     agent_type="q", tag="t", demand=1.0, enqueue=1.0,
                     start=1.0, end=2.0, parent_id=base + 1, shard=shard)
        return [root, child]

    assert canonical_spans(spans(0, 0)) == canonical_spans(spans(1 << 41, 2))


def test_export_and_adopt_context_roundtrip():
    origin = TraceRecorder()
    origin.set_shard(0)
    ctx = origin.start_cascade("ctl", "app", "DNA", 1.0)
    origin.current, origin.current_parent = ctx, origin._span_base + 7
    tctx = origin.export_context()
    assert tctx == (ctx.cascade_id, "ctl", "app", "DNA", True,
                    origin._span_base + 7)
    remote = TraceRecorder()
    remote.set_shard(1)
    adopted = remote.adopt_context(tctx)
    assert adopted.cascade_id == ctx.cascade_id
    assert adopted.sampled and math.isnan(adopted.start)
    assert remote.adopt_context(tctx) is adopted  # cached by cascade id
    origin.current = None
    assert origin.export_context() is None


def _two_shard_trace():
    """Two one-span shards joined by one cross-shard hop, and that hop."""
    s0 = Span(cascade_id=5, span_id=(1 << 40) + 1, agent="a", agent_type="q",
              tag=None, demand=0.0, enqueue=0.0, start=0.0, end=1.0,
              parent_id=None, shard=0)
    s1 = Span(cascade_id=5, span_id=(2 << 40) + 1, agent="b", agent_type="q",
              tag=None, demand=0.0, enqueue=2.0, start=2.0, end=3.0,
              parent_id=(1 << 40) + 1, shard=1)
    hop = {"cascade": 5, "src": "DNA", "dst": "R00", "send": 1.0,
           "arrival": 1.08, "src_shard": 0, "dst_shard": 1}
    merged = MergedTrace([[s0], [s1]], [[], []],
                         shard_labels=["DNA", "R00"], hops=[hop])
    return merged, hop


def test_merged_trace_renumbers_and_sorts_flows():
    merged, hop = _two_shard_trace()
    spans = merged.spans()
    assert [s.span_id for s in spans] == [1, 2]
    assert spans[1].parent_id == 1  # cross-shard parent link preserved
    assert [s.shard for s in spans] == [0, 1]
    assert merged.flows == [hop]
    assert len(merged) == 2

    events = chrome_trace_events(spans, [], shard_labels=merged.shard_labels,
                                 flows=merged.flows)
    assert [(e["ph"], e["pid"], e["tid"], e["name"]) for e in events] == [
        ("M", 1, 0, "process_name"), ("M", 1, 0, "thread_name"),
        ("M", 2, 0, "process_name"), ("M", 2, 0, "thread_name"),
        ("M", 1, 1, "thread_name"), ("X", 1, 1, "a"),
        ("M", 2, 1, "thread_name"), ("X", 2, 1, "b"),
        ("s", 1, 0, "remote DNA->R00"), ("f", 2, 0, "remote DNA->R00"),
    ]


def test_direct_submit_with_recorder_context():
    """Spans emitted via the raw Agent.submit path carry the context."""
    rec = TraceRecorder()
    sim = Simulator(trace=rec)
    q = sim.add_agent(FCFSQueue("q", rate=2.0))
    ctx = rec.start_cascade("OP", "app", "DC", 0.0)
    rec.current = ctx
    done = []
    q.submit(Job(1.0, on_complete=lambda j, t: done.append(t)), 0.0)
    rec.current = None
    sim.run(5.0)
    rec.end_cascade(ctx, done[0])
    assert len(rec.spans()) == 1
    span = rec.spans()[0]
    assert span.agent == "q"
    assert span.cascade_id == ctx.cascade_id
    assert span.service == pytest.approx(0.5, abs=0.05)
