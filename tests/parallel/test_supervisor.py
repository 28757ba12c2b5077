"""Unit tests for the live run supervisor (heartbeats, stalls, status)."""

import json
import queue

import pytest

from repro.core.errors import WorkerStalled
from repro.parallel.supervisor import RunSupervisor, ShardProgress, rss_kb


class FakeClock:
    def __init__(self, t: float = 100.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


def _supervisor(**kw):
    clock = kw.pop("clock", FakeClock())
    sup = RunSupervisor(
        [("DNA",), ("R00", "R01")], until=10.0, scenario="t",
        window=0.08, clock=clock, **kw)
    return sup, clock


def test_heartbeat_updates_progress():
    sup, _ = _supervisor()
    sup.note_started(0)
    sup.note_started(1)
    sup.note_heartbeat({"shard": 1, "watermark": 2.4, "records": 7,
                        "sent": 3, "pending": 11, "rss_kb": 4096})
    row = sup.shards[1]
    assert (row.watermark, row.records, row.sent, row.pending, row.rss_kb) \
        == (2.4, 7, 3, 11, 4096)
    assert sup.watermark() == 0.0  # fleet watermark is the slowest shard
    sup.note_heartbeat({"shard": 99, "watermark": 9.0})  # ignored, no crash
    sup.note_heartbeat({"shard": 0, "watermark": 1.0})
    assert sup.watermark() == 1.0


def test_window_barrier_advances_every_shard():
    sup, _ = _supervisor()
    sup.note_started(0)
    sup.note_started(1)
    sup.note_window(0.08)
    assert all(p.watermark == 0.08 for p in sup.shards)
    assert sup.windows_run == 1
    kinds = [e["kind"] for e in sup.events.events()]
    assert kinds == ["shard_started", "shard_started", "window_committed"]


def test_stall_detection_flags_and_recovers():
    sup, clock = _supervisor(stall_timeout=30.0)
    sup.note_started(0)
    sup.note_started(1)
    clock.t += 29.0
    sup.check_stalls(clock.t)
    assert all(p.state == "running" for p in sup.shards)
    clock.t += 2.0
    sup.check_stalls(clock.t)
    assert all(p.state == "stalled" for p in sup.shards)
    stalls = sup.events.events("worker_stalled")
    assert len(stalls) == 2 and stalls[0]["stalled_s"] >= 30.0
    # a later watermark advance un-stalls
    sup.note_window(0.08)
    assert all(p.state == "running" for p in sup.shards)
    # ...and the stall timer restarts from the advance
    clock.t += 29.0
    sup.check_stalls(clock.t)
    assert all(p.state == "running" for p in sup.shards)


def test_stall_abort_raises_worker_stalled():
    sup, clock = _supervisor(stall_timeout=30.0, on_stall="abort")
    sup.note_started(0)
    sup.note_started(1)
    clock.t += 31.0
    with pytest.raises(WorkerStalled) as err:
        sup.check_stalls(clock.t)
    assert err.value.shard == 0
    assert err.value.dcs == ("DNA",)
    assert sup.state == "error"


class FakeHeartbeats:
    """A heartbeat sideband the test fills by hand."""

    def __init__(self) -> None:
        self.frames = []

    def get_nowait(self):
        if not self.frames:
            raise queue.Empty
        return self.frames.pop(0)


def test_collapsed_run_advances_through_heartbeats():
    """A run with no barrier still shows progress, and still stalls,
    through the heartbeats sent at its local window ends."""
    beats = FakeHeartbeats()
    sup, clock = _supervisor(stall_timeout=30.0, heartbeats=beats)
    sup.note_started(0)
    sup.note_started(1)
    sup.note_collapsed()
    assert sup.progress()["window"] == 10.0
    clock.t += 20.0
    beats.frames = [{"shard": 0, "watermark": 4.0},
                    {"shard": 1, "watermark": 3.2}]
    sup.poll()
    assert [p.watermark for p in sup.shards] == [4.0, 3.2]
    clock.t += 29.0
    sup.poll()
    assert all(p.state == "running" for p in sup.shards)
    beats.frames = [{"shard": 0, "watermark": 8.0}]
    clock.t += 2.0
    sup.poll()
    assert [p.state for p in sup.shards] == ["running", "stalled"]


def test_collapsed_run_without_heartbeats_never_stalls():
    """With heartbeats off a collapsed run has no progress signal, so a
    long run must not be mistaken for a stall."""
    sup, clock = _supervisor(stall_timeout=30.0, on_stall="abort")
    sup.note_started(0)
    sup.note_started(1)
    sup.note_collapsed()
    clock.t += 3600.0
    sup.poll()
    assert all(p.state == "running" for p in sup.shards)
    assert sup.events.events("worker_stalled") == []


def test_stalls_only_flagged_once():
    sup, clock = _supervisor(stall_timeout=30.0)
    sup.note_started(0)
    sup.note_started(1)
    clock.t += 31.0
    sup.check_stalls(clock.t)
    clock.t += 31.0
    sup.check_stalls(clock.t)
    assert len(sup.events.events("worker_stalled")) == 2  # one per shard


def test_error_note_is_structured():
    sup, _ = _supervisor()
    sup.note_started(0)
    sup.note_error(1, "Traceback ...\nRuntimeError: boom")
    assert sup.state == "error"
    assert sup.shards[1].state == "error"
    ev = sup.events.events("worker_error")[0]
    assert ev["shard"] == 1
    assert ev["dcs"] == ["R00", "R01"]
    assert ev["error"] == "RuntimeError: boom"
    assert "Traceback" in ev["details"]


def test_status_file_is_atomic_json(tmp_path):
    path = tmp_path / "run.status"
    sup, clock = _supervisor(status_path=str(path))
    sup.note_started(0)
    doc = json.loads(path.read_text())
    assert doc["state"] == "running" and doc["workers"] == 2
    # throttled: an immediate rewrite is skipped...
    sup.shards[0].records = 5
    sup.write_status()
    assert json.loads(path.read_text())["shards"][0]["records"] == 0
    # ...a forced one is not
    sup.write_status(force=True)
    assert json.loads(path.read_text())["shards"][0]["records"] == 5
    assert not path.with_suffix(".status.tmp").exists()
    sup.finish()
    assert json.loads(path.read_text())["state"] == "finished"


def test_progress_document_shape():
    sup, _ = _supervisor()
    sup.note_started(0)
    doc = sup.progress()
    assert doc["until"] == 10.0 and doc["window"] == 0.08
    assert len(doc["shards"]) == 2
    assert doc["shards"][0]["dcs"] == ["DNA"]
    assert doc["shards"][0]["age_s"] == 0.0


def test_shard_progress_to_dict_age():
    p = ShardProgress(0, ("DNA",))
    assert "age_s" not in p.to_dict(5.0)  # never advanced: no age
    p.last_advance = 3.0
    assert p.to_dict(5.0)["age_s"] == 2.0


def test_rss_kb_positive_on_posix():
    assert rss_kb() > 0
