"""Tests for the sharded multiprocess backend and its partition cuts."""

import json

import pytest

from repro.api import (
    Collect,
    CheckpointOptions,
    ObservabilityOptions,
    ParallelOptions,
    Scenario,
    simulate,
)
from repro.core.errors import ConfigurationError
from repro.parallel.partition import partition_topology
from repro.studies.fleet import REGION_LATENCY_S, fleet_scenario, fleet_topology


# ----------------------------------------------------------------------
# cut quality
# ----------------------------------------------------------------------
def test_region_cut_is_balanced_and_complete():
    topo = fleet_topology(8)
    plan = partition_topology(topo, workers=4, cut="region")
    assert plan.workers == 4
    placed = [dc for shard in plan.shards for dc in shard]
    assert sorted(placed) == sorted(topo.datacenters)  # exactly once each

    weights = {
        name: sum(1 for _ in dc.agents())
        for name, dc in topo.datacenters.items()
    }
    loads = [sum(weights[dc] for dc in shard) for shard in plan.shards]
    # greedy LPT keeps every shard within one region of the heaviest
    # non-master shard; nothing degenerates to empty
    assert all(load > 0 for load in loads)
    region_load = max(weights[f"R{i:02d}"] for i in range(8))
    assert max(loads) - min(loads) <= max(region_load, weights["DNA"])


def test_holon_cut_is_one_dc_per_shard():
    topo = fleet_topology(4)
    plan = partition_topology(topo, workers=2, cut="holon")
    assert plan.workers == len(topo.datacenters)
    assert all(len(shard) == 1 for shard in plan.shards)


def test_cross_cut_edges_cover_the_window():
    """Every cross-shard edge's latency must be >= the sync window."""
    topo = fleet_topology(6)
    for cut in ("region", "holon"):
        plan = partition_topology(topo, workers=3, cut=cut)
        assert plan.cross_links, "fleet cuts must cross WAN links"
        for a, b, latency in plan.cross_links:
            assert plan.shard_of(a) != plan.shard_of(b) or cut == "holon"
            assert latency >= plan.lookahead - 1e-12
        assert plan.lookahead == pytest.approx(REGION_LATENCY_S)
        # the configured window may narrow but never exceed lookahead
        assert min(lat for _, _, lat in plan.cross_links) == pytest.approx(
            plan.lookahead)


def test_cut_validation():
    topo = fleet_topology(2)
    with pytest.raises(ConfigurationError):
        partition_topology(topo, workers=0, cut="region")
    with pytest.raises(ConfigurationError):
        partition_topology(topo, workers=2, cut="diagonal")


# ----------------------------------------------------------------------
# option groups and the scenario-JSON parallel block
# ----------------------------------------------------------------------
def test_parallel_options_coerce():
    assert ParallelOptions.coerce(3).workers == 3
    opts = ParallelOptions.coerce({"workers": 4, "cut": "holon"})
    assert (opts.workers, opts.cut, opts.window) == (4, "holon", None)
    same = ParallelOptions(workers=2)
    assert ParallelOptions.coerce(same) is same
    with pytest.raises(ConfigurationError):
        ParallelOptions.coerce(True)
    with pytest.raises(ConfigurationError):
        ParallelOptions.coerce({"wrkrs": 2})
    with pytest.raises(ConfigurationError):
        ParallelOptions(workers=0)
    with pytest.raises(ConfigurationError):
        ParallelOptions(cut="diagonal")


def test_parallel_block_roundtrips_scenario_json(tmp_path):
    sc = fleet_scenario(2)
    sc.parallel = ParallelOptions(workers=2, cut="holon", window=0.05)
    path = tmp_path / "fleet.json"
    sc.to_json(path)
    doc = json.loads(path.read_text())
    assert doc["parallel"] == {
        "workers": 2, "cut": "holon", "window": 0.05,
        "heartbeat_every": 0.5, "stall_timeout": 300.0,
        "on_stall": "event", "status_path": None,
    }
    rebuilt = Scenario.from_json(path)
    opts = ParallelOptions.coerce(rebuilt.parallel)
    assert (opts.workers, opts.cut, opts.window) == (2, "holon", 0.05)


def test_supervisor_options_validate():
    with pytest.raises(ConfigurationError, match="heartbeat_every"):
        ParallelOptions(heartbeat_every=-1.0)
    with pytest.raises(ConfigurationError, match="stall_timeout"):
        ParallelOptions(stall_timeout=0.0)
    with pytest.raises(ConfigurationError, match="on_stall"):
        ParallelOptions(on_stall="panic")
    opts = ParallelOptions.coerce(
        {"workers": 3, "heartbeat_every": 0, "stall_timeout": None,
         "on_stall": "abort", "status_path": "run.status"})
    assert (opts.heartbeat_every, opts.stall_timeout, opts.on_stall,
            opts.status_path) == (0.0, None, "abort", "run.status")


@pytest.mark.parametrize("keyword", [
    "dt", "mode", "kernel", "trace", "profile", "collect", "metrics", "slo",
    "invariants", "checkpoint_every", "checkpoint_path", "resume_from",
])
def test_flat_simulate_keywords_removed(keyword):
    """Each setting has one spelling: its field in an option group."""
    with pytest.raises(TypeError, match=keyword):
        simulate(fleet_scenario(1), until=1.0, **{keyword: None})


def test_checkpoint_group_validates_like_flat(tmp_path):
    sc = fleet_scenario(1)
    with pytest.raises(ConfigurationError):
        simulate(sc, until=1.0, checkpoint=CheckpointOptions(every=0.5))


# ----------------------------------------------------------------------
# sharded execution
# ----------------------------------------------------------------------
def test_parallel_accepts_trace_and_profile():
    """Tracing + profiling run sharded and come back merged (PR 7)."""
    result = simulate(
        fleet_scenario(2), until=1.0,
        observability=ObservabilityOptions(trace="sampling", profile=True),
        parallel=ParallelOptions(workers=2),
    )
    assert result.profile is not None
    assert len(result.profile.per_shard) == 2
    assert result.trace is not None  # merged (possibly empty) trace


def test_parallel_rejects_checkpointing_per_feature():
    sc = fleet_scenario(2)
    with pytest.raises(ConfigurationError, match="ROADMAP.*checkpoint"):
        simulate(sc, until=1.0,
                 checkpoint=CheckpointOptions(every=0.5, path="x"),
                 parallel=ParallelOptions(workers=2))


def test_parallel_rejects_resume_per_feature(tmp_path):
    sc = fleet_scenario(2)
    with pytest.raises(ConfigurationError, match="resume"):
        simulate(sc, until=1.0,
                 checkpoint=CheckpointOptions(
                     resume_from=tmp_path / "ck.json"),
                 parallel=ParallelOptions(workers=2))


def test_parallel_rejects_invariants_per_feature():
    sc = fleet_scenario(2)
    with pytest.raises(ConfigurationError, match="invariant"):
        simulate(sc, until=1.0,
                 observability=ObservabilityOptions(invariants="strict"),
                 parallel=ParallelOptions(workers=2))


def test_parallel_rejects_prebuilt_recorder():
    from repro.observability.trace import TraceRecorder

    sc = fleet_scenario(2)
    with pytest.raises(ConfigurationError, match="spec string"):
        simulate(sc, until=1.0,
                 observability=ObservabilityOptions(trace=TraceRecorder()),
                 parallel=ParallelOptions(workers=2))


def test_window_cannot_exceed_lookahead():
    sc = fleet_scenario(2)
    with pytest.raises(ConfigurationError, match="lookahead"):
        simulate(sc, until=1.0,
                 parallel=ParallelOptions(workers=2,
                                          window=REGION_LATENCY_S * 4))


def test_workers_one_is_single_process_with_report():
    result = simulate(fleet_scenario(1), until=2.0,
                      observability=ObservabilityOptions(metrics="on"),
                      parallel=ParallelOptions(workers=1))
    report = result.parallel
    assert report.workers == 1
    assert report.start_method == "none"
    assert result.metrics is not None


@pytest.mark.slow
def test_sharded_run_matches_single_process():
    from repro.verification.parity import check_sharded

    result = check_sharded(n_regions=2, until=5.0, workers=2)
    assert result.identical, result.mismatches


def test_sharded_run_without_receivers_matches_single_process():
    from repro.verification.parity import check_sharded

    result = check_sharded(n_regions=2, until=5.0, workers=2, remote=False)
    assert result.identical, result.mismatches


@pytest.mark.slow
def test_sharded_merges_metrics_and_telemetry():
    observe = ObservabilityOptions(metrics="on",
                                   collect=Collect(sample_interval=1.0))
    result = simulate(
        fleet_scenario(2), until=4.0, observability=observe,
        parallel=ParallelOptions(workers=2),
    )
    single = simulate(
        fleet_scenario(2), until=4.0, observability=observe,
    )
    assert (sorted(result.metrics.fingerprint_lines())
            == sorted(single.metrics.fingerprint_lines()))
    # merged telemetry covers every agent of the whole topology, and
    # every busy-time float is bit-exact (one drain per windowed run)
    assert result.telemetry() == single.telemetry()
    report = result.parallel
    assert report.workers == 2
    # no shard registers a remote handler, so nothing can cross the cut:
    # the run commits one window at the horizon and never waits
    assert report.windows_run == 1
    assert report.window == 4.0
    assert all(p["barrier_wait"] == 0.0 for p in report.shard_phases)
    assert len(report.shard_walls) == 2


def _slow_window_setup(session):
    import time

    from repro.studies.fleet import fleet_setup

    fleet_setup(session)
    session.sim.schedule(1.0, lambda now: time.sleep(1.5))


def test_run_without_barriers_outlasts_the_receive_timeout(monkeypatch):
    """The wedge timeout bounds one barrier wait; a run without
    barriers waits for its results as long as its workers live."""
    import repro.parallel.sharded as sharded

    monkeypatch.setattr(sharded, "_RECV_TIMEOUT_S", 0.5)
    sc = fleet_scenario(2)
    sc = type(sc)(**{**sc.__dict__, "setup": _slow_window_setup})
    result = simulate(sc, until=2.0, parallel=ParallelOptions(workers=2))
    assert result.parallel.windows_run == 1


def test_sharded_run_with_receivers_keeps_lookahead_windows():
    from repro.verification.parity import sharded_fleet_scenario

    report = simulate(sharded_fleet_scenario(2), until=4.0,
                      parallel=ParallelOptions(workers=2)).parallel
    assert report.windows_run == 50  # 4.0s / 0.08s lookahead
    assert report.lookahead == pytest.approx(REGION_LATENCY_S)
    assert report.envelopes > 0


def test_windowed_shard_records_one_engine_run():
    """Each shard's windowed run is one engine run: the run counter
    merges to the worker count and the run gauges span the horizon,
    not just the last window."""
    from repro.verification.parity import sharded_fleet_scenario

    result = simulate(sharded_fleet_scenario(4), until=10.0,
                      observability=ObservabilityOptions(metrics="on"),
                      parallel=ParallelOptions(workers=2))
    gauges = result.metrics.to_dict()["gauges"]
    assert result.metrics.counter("engine_runs_total").value == 2
    assert gauges["engine_run_sim_seconds"] == 10.0
    # the run wall includes every window's compute plus the barrier waits
    last = result.parallel.shard_phases[-1]
    assert gauges["engine_run_wall_seconds"] > last["window_advance"]


def test_scenario_parallel_block_drives_simulate():
    """A parallel: block in the scenario JSON selects the backend."""
    sc = fleet_scenario(1)
    sc.parallel = {"workers": 1}
    result = simulate(sc, until=1.0)
    assert result.parallel is not None and result.parallel.workers == 1


# ----------------------------------------------------------------------
# distributed observability (PR 7)
# ----------------------------------------------------------------------
def _traced_sharded_result(until=10.0, n_regions=2, workers=2, **popts):
    from repro.verification.parity import sharded_fleet_scenario

    return simulate(
        sharded_fleet_scenario(n_regions), until=until,
        observability=ObservabilityOptions(trace="full", profile=True),
        parallel=ParallelOptions(workers=workers, **popts),
    )


def test_cross_shard_cascade_is_one_trace():
    """A cascade crossing the cut keeps one id, with correct links."""
    result = _traced_sharded_result()
    spans = result.spans()
    assert spans, "traced sharded run recorded no spans"
    # the ctl cascades span the master and a region shard
    by_cascade = {}
    for s in spans:
        by_cascade.setdefault(s.cascade_id, set()).add(s.shard)
    crossing = [cid for cid, shards in by_cascade.items() if len(shards) > 1]
    assert crossing, "no cascade recorded spans on more than one shard"
    # parent/child links resolve within the merged trace: every non-root
    # span's parent exists (renumbering keeps referential integrity)
    ids = {s.span_id for s in spans}
    assert all(s.parent_id in ids for s in spans if s.parent_id is not None)
    # flow events were recorded for the sampled cross-shard hops
    assert result.trace.flows
    hop = result.trace.flows[0]
    assert hop["src_shard"] != hop["dst_shard"]
    assert hop["arrival"] >= hop["send"] + REGION_LATENCY_S - 1e-9


@pytest.mark.slow
def test_cross_shard_trace_matches_single_process():
    from repro.observability.trace import canonical_spans
    from repro.verification.parity import sharded_fleet_scenario

    sharded = _traced_sharded_result(until=4.0)
    single = simulate(
        sharded_fleet_scenario(2), until=4.0,
        observability=ObservabilityOptions(trace="full", profile=True),
    )
    assert canonical_spans(sharded.spans()) == canonical_spans(single.spans())
    assert (sorted(c.cascade_id for c in sharded.cascades())
            == sorted(c.cascade_id for c in single.cascades()))


def test_merged_chrome_trace_has_shard_lanes_and_flows(tmp_path):
    result = _traced_sharded_result()
    path = tmp_path / "merged.json"
    assert result.write_chrome_trace(path) > 0
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    lanes = {e["args"]["name"]: e["pid"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert len(lanes) == 2 and all(n.startswith("shard ") for n in lanes)
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert starts and len(starts) == len(finishes)
    by_id = {e["id"]: e for e in starts}
    assert all(f["pid"] != by_id[f["id"]]["pid"] for f in finishes)


def test_report_carries_backend_phases():
    result = _traced_sharded_result()
    report = result.parallel
    assert len(report.shard_phases) == 2
    for phases in report.shard_phases:
        assert set(phases) == {"prepare", "handshake", "window_advance",
                               "envelope_exchange", "barrier_wait",
                               "collect"}
        assert all(v >= 0.0 for v in phases.values())
        # a worker's phases do not overlap and lie inside the run
        assert sum(phases.values()) <= report.wall_s
    assert set(report.coordinator_phases) == {"start", "results", "merge"}
    assert all(v >= 0.0 for v in report.coordinator_phases.values())
    assert sum(report.coordinator_phases.values()) <= report.wall_s
    doc = report.to_dict()
    assert doc["shard_phases"] == [dict(p) for p in report.shard_phases]
    assert doc["coordinator_phases"] == report.coordinator_phases
    # the merged profile carries the same phases plus barrier skew
    merged = result.profile
    assert merged.barrier_skew() >= 0.0
    assert merged.phase_seconds["barrier_wait"] == pytest.approx(
        sum(p["barrier_wait"] for p in report.shard_phases))


def test_supervisor_lifecycle_events_in_result():
    result = _traced_sharded_result(until=1.0)
    kinds = [e["kind"] for e in result.events.events()]
    assert kinds.count("shard_started") == 2
    assert kinds.count("shard_finished") == 2
    assert "window_committed" in kinds


def test_status_file_and_top(tmp_path, capsys):
    from repro.cli import main

    status = tmp_path / "run.status"
    result = _traced_sharded_result(until=1.0, status_path=status)
    assert result.parallel.workers == 2
    doc = json.loads(status.read_text())
    assert doc["state"] == "finished"
    assert doc["watermark"] == pytest.approx(1.0)
    assert len(doc["shards"]) == 2
    assert all(s["state"] == "finished" for s in doc["shards"])
    assert main(["top", str(status), "--once"]) == 0
    out = capsys.readouterr().out
    assert "[finished]" in out and "DNA" in out


def _exploding_setup(session):
    from repro.verification.parity import _sharded_fleet_setup

    _sharded_fleet_setup(session)
    if not session.owns("DNA"):  # blow up a region shard mid-run
        session.sim.schedule(
            0.5, lambda now: (_ for _ in ()).throw(RuntimeError("boom")))


def test_worker_failure_is_structured():
    from repro.core.errors import WorkerError
    from repro.verification.parity import sharded_fleet_scenario

    sc = sharded_fleet_scenario(2)
    sc = type(sc)(**{**sc.__dict__, "setup": _exploding_setup})
    with pytest.raises(WorkerError) as err:
        simulate(sc, until=3.0, parallel=ParallelOptions(workers=2))
    assert err.value.shard >= 0
    assert err.value.dcs and "DNA" not in err.value.dcs
    assert "boom" in err.value.details  # full worker traceback aboard


_FAILING_PAYLOAD = """
import json, os, sys, threading

from repro.api import ParallelOptions, simulate
from repro.core.errors import WorkerError
from repro.software.cascade import OperationRecord
from repro.studies.fleet import fleet_scenario, fleet_setup


def setup(session):
    fleet_setup(session)
    if session.owns("R00"):
        if sys.argv[1] == "unpicklable":
            session.runner.records.append(OperationRecord(
                "OPEN", threading.Lock(), "R00", 0.0, 0.0))
        else:
            os._exit(0)


sc = fleet_scenario(2)
sc = type(sc)(**{**sc.__dict__, "setup": setup})
try:
    simulate(sc, until=2.0, parallel=ParallelOptions(workers=2))
except WorkerError as exc:
    print(json.dumps({"dcs": list(exc.dcs), "message": str(exc)}))
"""


@pytest.mark.parametrize("failure,message", [
    ("unpicklable", "cannot pickle"),
    ("silent-exit", "exited without shipping a result"),
])
def test_worker_that_ships_no_result_fails_the_run(failure, message):
    """A shard whose result cannot be pickled, or that exits 0 without
    one, fails the run naming the shard instead of hanging the
    coordinator (run in a subprocess so a regression times out)."""
    import os
    import signal
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.Popen(
        [sys.executable, "-c", _FAILING_PAYLOAD, failure], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the workers too
        proc.communicate()
        pytest.fail(f"{failure}: the coordinator hung")
    assert proc.returncode == 0, err
    report = json.loads(out.strip().splitlines()[-1])
    assert "R00" in report["dcs"]
    assert message in report["message"]


def _short_hop_setup(session):
    from repro.verification.parity import _sharded_fleet_setup

    _sharded_fleet_setup(session)
    if session.owns("DNA"):  # a cross-shard send faster than the window
        session.sim.schedule(0.5, lambda now: session.remote.send(
            "DNA", "R00", {}, latency_s=REGION_LATENCY_S / 2))


def test_remote_send_below_window_is_rejected():
    """The conservative guarantee: a cross-shard message may not arrive
    inside the window it was sent in, so the send itself raises."""
    from repro.core.errors import WorkerError
    from repro.verification.parity import sharded_fleet_scenario

    sc = sharded_fleet_scenario(2)
    sc = type(sc)(**{**sc.__dict__, "setup": _short_hop_setup})
    with pytest.raises(WorkerError) as err:
        simulate(sc, until=3.0, parallel=ParallelOptions(workers=2))
    assert "DNA" in err.value.dcs
    assert "synchronization window" in err.value.details


def _send_to_foreign(session, now):
    if session.owns("DNA"):
        session.remote.send("DNA", "R00", {}, latency_s=REGION_LATENCY_S,
                            now=now)


def _setup_send_in_setup(session):
    from repro.studies.fleet import fleet_setup

    fleet_setup(session)
    _send_to_foreign(session, 0.0)


def _setup_send_mid_run(session):
    from repro.studies.fleet import fleet_setup

    fleet_setup(session)
    session.sim.schedule(0.5, lambda now: _send_to_foreign(session, now))


@pytest.mark.parametrize("setup", [_setup_send_in_setup,
                                   _setup_send_mid_run])
def test_send_to_data_center_without_handler_fails_at_send(setup):
    """With no receiver registered anywhere, a cross-shard send fails on
    the sending shard with the single-process delivery error."""
    from repro.core.errors import WorkerError

    sc = fleet_scenario(2)
    sc = type(sc)(**{**sc.__dict__, "setup": setup})
    with pytest.raises(WorkerError) as err:
        simulate(sc, until=2.0, parallel=ParallelOptions(workers=2))
    assert "DNA" in err.value.dcs
    assert ("no remote handler registered for data center 'R00'"
            in err.value.details)


def _late_handler_setup(session):
    from repro.studies.fleet import fleet_setup

    fleet_setup(session)
    if session.owns("R00"):
        session.sim.schedule(0.5, lambda now: session.remote.on_message(
            "R00", lambda payload, t: None))


def test_handler_registered_after_handshake_is_refused():
    from repro.core.errors import WorkerError

    sc = fleet_scenario(2)
    sc = type(sc)(**{**sc.__dict__, "setup": _late_handler_setup})
    with pytest.raises(WorkerError) as err:
        simulate(sc, until=2.0, parallel=ParallelOptions(workers=2))
    assert "R00" in err.value.dcs
    assert "on_message('R00')" in err.value.details
    assert "setup hook" in err.value.details
