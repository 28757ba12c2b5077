"""Tests for crash-safe checkpoint/resume (repro.core.checkpoint)."""

import json

import pytest

from repro.api import (
    CheckpointOptions,
    Collect,
    EngineOptions,
    ObservabilityOptions,
    Scenario,
    simulate,
)
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    read_checkpoint,
    state_fingerprint,
    write_checkpoint,
)
from repro.core.errors import CheckpointError, ConfigurationError
from repro.software.application import Application
from repro.software.message import CLIENT, MessageSpec
from repro.software.operation import Operation
from repro.software.resources import R
from repro.software.workload import OperationMix, WorkloadCurve
from repro.topology.network import GlobalTopology

from tests.conftest import small_dc_spec


def portal_scenario(seed: int = 5) -> Scenario:
    topo = GlobalTopology(seed=3)
    topo.add_datacenter(small_dc_spec("DNA"))
    op = Operation("OP", [
        MessageSpec(CLIENT, "app", r=R.of(cycles=1e9, net_kb=16)),
        MessageSpec("app", "db", r=R.of(cycles=4e8, net_kb=8)),
        MessageSpec("db", "app", r=R.of(net_kb=16)),
        MessageSpec("app", CLIENT, r=R.of(net_kb=32)),
    ])
    app = Application(
        name="portal",
        operations={"OP": op},
        mix=OperationMix({"OP": 1.0}),
        workloads={"DNA": WorkloadCurve([60.0] * 24)},
        ops_per_client_hour=30.0,
    )
    return Scenario(name="portal", topology=topo, applications=[app],
                    seed=seed)


def result_key(result):
    return (
        [(r.operation, r.start, r.end, r.failed) for r in result.records],
        result.series("cpu.DNA.app"),
        result.series("cpu.DNA.db"),
    )


# ----------------------------------------------------------------------
# document round-trip and validation
# ----------------------------------------------------------------------
def test_checkpoint_document_roundtrip(tmp_path):
    scn = portal_scenario()
    session = scn.prepare(collect=Collect(5.0))
    session._until = 30.0
    session.run(10.0)
    path = tmp_path / "ck.json"
    session.checkpoint(path)
    doc = read_checkpoint(path)
    assert doc["version"] == CHECKPOINT_VERSION
    assert doc["time"] == session.sim.now
    assert doc["scenario"]["name"] == "portal"
    assert doc["scenario"]["seed"] == 5
    assert doc["until"] == 30.0
    assert doc["fingerprint"]["hash"] == state_fingerprint(session)["hash"]


def test_read_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint"):
        read_checkpoint(tmp_path / "absent.json")


def test_read_checkpoint_rejects_non_json(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("not json {")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        read_checkpoint(p)


def test_read_checkpoint_rejects_foreign_document(tmp_path):
    p = tmp_path / "other.json"
    p.write_text(json.dumps({"hello": 1}))
    with pytest.raises(CheckpointError, match="not a checkpoint document"):
        read_checkpoint(p)


def test_read_checkpoint_rejects_version_mismatch(tmp_path):
    scn = portal_scenario()
    session = scn.prepare()
    p = tmp_path / "ck.json"
    write_checkpoint(p, session, {})
    doc = json.loads(p.read_text())
    doc["version"] = CHECKPOINT_VERSION + 1
    p.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="version"):
        read_checkpoint(p)


def test_write_checkpoint_leaves_no_tmp_file(tmp_path):
    scn = portal_scenario()
    session = scn.prepare()
    p = tmp_path / "ck.json"
    write_checkpoint(p, session, {})
    assert p.exists()
    assert not (tmp_path / "ck.json.tmp").exists()


def test_checkpoint_every_requires_path():
    with pytest.raises(ConfigurationError, match="CheckpointOptions.path"):
        simulate(portal_scenario(), until=10.0,
                 checkpoint=CheckpointOptions(every=5.0))


def test_arm_checkpoints_validates_cadence(tmp_path):
    session = portal_scenario().prepare()
    with pytest.raises(ConfigurationError):
        session.arm_checkpoints(0.0, tmp_path / "ck.json")


# ----------------------------------------------------------------------
# fingerprint sensitivity
# ----------------------------------------------------------------------
def test_fingerprint_is_deterministic_across_sessions():
    a = portal_scenario().prepare(collect=Collect(5.0))
    b = portal_scenario().prepare(collect=Collect(5.0))
    a.run(20.0)
    b.run(20.0)
    assert state_fingerprint(a)["hash"] == state_fingerprint(b)["hash"]


def test_fingerprint_changes_with_seed():
    a = portal_scenario(seed=5).prepare()
    b = portal_scenario(seed=6).prepare()
    a.run(20.0)
    b.run(20.0)
    assert state_fingerprint(a)["hash"] != state_fingerprint(b)["hash"]


# ----------------------------------------------------------------------
# resume
# ----------------------------------------------------------------------
def test_interrupted_then_resumed_equals_uninterrupted(tmp_path):
    """The acceptance criterion: kill at T, resume, get the same run."""
    ck = tmp_path / "ck.json"
    ref_ck = tmp_path / "ref.json"

    # the uninterrupted reference (same checkpoint cadence: the monitor
    # takes part in adaptive step selection)
    observe = ObservabilityOptions(collect=Collect(sample_interval=5.0))
    full = simulate(portal_scenario(), until=90.0, observability=observe,
                    checkpoint=CheckpointOptions(every=30.0, path=ref_ck))

    # an "interrupted" run: dies at t=45 with its last checkpoint at 30
    scn = portal_scenario()
    session = scn.prepare(collect=Collect(sample_interval=5.0))
    session._until = 90.0
    session.arm_checkpoints(30.0, ck)
    session._workloads_started = True
    session._start_workloads(90.0)
    session.sim.run(45.0)
    assert read_checkpoint(ck)["time"] == pytest.approx(30.0)

    resumed = simulate(portal_scenario(),
                       checkpoint=CheckpointOptions(resume_from=ck),
                       observability=observe)
    assert resumed.until == 90.0  # horizon recovered from the checkpoint
    assert result_key(resumed) == result_key(full)  # bit-exact


def test_resume_to_a_later_horizon_continues_like_a_fresh_run(tmp_path):
    """A finished run's checkpoint continued past the horizon it was
    written under: the replay draws arrivals up to the recorded horizon
    (so the fingerprint matches), then the arrivals continue exactly as
    a fresh run to the later horizon draws them."""
    observe = ObservabilityOptions(collect=Collect(sample_interval=5.0))
    ck = tmp_path / "ck.json"
    simulate(portal_scenario(), until=30.0, observability=observe,
             checkpoint=CheckpointOptions(every=10.0, path=ck))
    assert read_checkpoint(ck)["time"] == pytest.approx(30.0)
    fresh = simulate(portal_scenario(), until=60.0, observability=observe,
                     checkpoint=CheckpointOptions(
                         every=10.0, path=tmp_path / "ref.json"))
    resumed = simulate(portal_scenario(), until=60.0, observability=observe,
                       checkpoint=CheckpointOptions(resume_from=ck))
    assert resumed.until == 60.0
    assert any(r.start > 30.0 for r in resumed.records)
    assert result_key(resumed) == result_key(fresh)


def test_resume_rejects_wrong_scenario(tmp_path):
    ck = tmp_path / "ck.json"
    simulate(portal_scenario(), until=30.0,
             checkpoint=CheckpointOptions(every=10.0, path=ck))
    with pytest.raises(CheckpointError, match="checkpoint is for scenario"):
        simulate(portal_scenario(seed=99),
                 checkpoint=CheckpointOptions(resume_from=ck))


def test_resume_rejects_horizon_before_checkpoint(tmp_path):
    ck = tmp_path / "ck.json"
    simulate(portal_scenario(), until=30.0,
             checkpoint=CheckpointOptions(every=10.0, path=ck))
    with pytest.raises(CheckpointError, match="before the checkpoint"):
        simulate(portal_scenario(), until=5.0,
                 checkpoint=CheckpointOptions(resume_from=ck))


def test_resume_detects_state_drift(tmp_path):
    ck = tmp_path / "ck.json"
    simulate(portal_scenario(), until=30.0,
             checkpoint=CheckpointOptions(every=10.0, path=ck))
    doc = json.loads(ck.read_text())
    doc["fingerprint"]["hash"] = "0" * 64  # simulate code/config drift
    ck.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="does not match"):
        simulate(portal_scenario(), until=60.0,
                 checkpoint=CheckpointOptions(resume_from=ck))


def _interrupted(tmp_path, mode="event", kernel="scalar", collect=None):
    """A run toward t=60 that dies at t=45, its last checkpoint at 40."""
    ck = tmp_path / "ck.json"
    session = portal_scenario().prepare(mode=mode, kernel=kernel,
                                        collect=collect)
    session._until = 60.0
    session.arm_checkpoints(10.0, ck)
    session._drive_workloads(60.0)
    session.sim.run(45.0)
    return ck


@pytest.mark.parametrize("mode", ["event", "adaptive"])
@pytest.mark.parametrize("invariants", ["strict", "full"])
def test_resume_keeps_the_invariant_checker(tmp_path, mode, invariants):
    """The replayed and continued run is checked like a fresh one."""
    ck = _interrupted(tmp_path, mode)
    resumed = simulate(
        portal_scenario(),
        observability=ObservabilityOptions(invariants=invariants),
        checkpoint=CheckpointOptions(resume_from=ck))
    report = resumed.invariant_report()
    assert report is not None
    assert report["ok"], report["violations"]
    assert report["boundaries"] > 0
    assert resumed.mode == mode  # the checkpoint's mode
    assert resumed.until == 60.0


@pytest.mark.parametrize("engine", [
    EngineOptions(mode="adaptive"),
    EngineOptions(dt=0.05),
])
def test_resume_rejects_an_engine_unlike_the_checkpoint(tmp_path, engine):
    """An explicit engine= must match the checkpoint's mode and dt."""
    ck = _interrupted(tmp_path)
    with pytest.raises(CheckpointError, match="checkpoint was written in"):
        simulate(portal_scenario(), engine=engine,
                 checkpoint=CheckpointOptions(resume_from=ck))
    same = simulate(portal_scenario(),
                    engine=EngineOptions(mode="event", dt=0.01),
                    checkpoint=CheckpointOptions(resume_from=ck))
    assert same.until == 60.0


@pytest.mark.parametrize("written, asked", [("scalar", "vector"),
                                            ("vector", "scalar")])
def test_resume_rejects_a_kernel_unlike_the_checkpoint(tmp_path, written,
                                                      asked):
    ck = _interrupted(tmp_path, kernel=written)
    assert read_checkpoint(ck)["kernel"] == written
    with pytest.raises(CheckpointError, match=f"kernel={written!r}"):
        simulate(portal_scenario(), engine=EngineOptions(kernel=asked),
                 checkpoint=CheckpointOptions(resume_from=ck))


def test_vector_kernel_killed_and_resumed_equals_uninterrupted(tmp_path):
    """Kill a vector-kernel run at t=45, resume from its t=40 checkpoint:
    records and every agent's busy time equal an uninterrupted vector
    run with the same checkpoint cadence (each checkpoint syncs the
    stations, which splits their busy-time sums)."""
    collect = Collect(sample_interval=5.0)
    observe = ObservabilityOptions(collect=collect)
    ck = _interrupted(tmp_path, kernel="vector", collect=collect)
    full = simulate(portal_scenario(), until=60.0,
                    engine=EngineOptions(kernel="vector"),
                    observability=observe,
                    checkpoint=CheckpointOptions(
                        every=10.0, path=tmp_path / "ref.json"))
    resumed = simulate(portal_scenario(), observability=observe,
                       checkpoint=CheckpointOptions(resume_from=ck))
    assert resumed.session._kernel == "vector"  # the checkpoint's kernel
    assert resumed.until == 60.0
    assert any(r.start > 40.0 for r in resumed.records)
    assert result_key(resumed) == result_key(full)

    def busy(result):
        return {name: tel.busy_time.hex()
                for name, tel in result.telemetry().items()}

    assert busy(resumed) == busy(full)
