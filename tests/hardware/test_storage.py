"""Unit tests for disk, RAID and SAN agents."""

import pytest

from repro.core import Simulator, Job
from repro.hardware import Disk, RAID, SAN
from repro.hardware.storage import COMMIT_ROWS, StripedStorage
from repro.verification.storage import as_reference


def test_disk_two_stage_service():
    sim = Simulator(dt=0.001)
    disk = sim.add_agent(Disk("d", controller_bps=1e9, drive_bps=1e8))
    done = []
    disk.submit(Job(1e8, on_complete=lambda j, t: done.append(t)), 0.0)
    sim.run(5.0)
    # 0.1 s controller + 1.0 s drive
    assert done[0] == pytest.approx(1.1, abs=0.02)


def test_disk_cache_hit_bypasses_drive():
    sim = Simulator(dt=0.001)
    disk = sim.add_agent(Disk("d", controller_bps=1e9, drive_bps=1e8,
                              cache_hit_rate=1.0, seed=1))
    done = []
    disk.submit(Job(1e8, on_complete=lambda j, t: done.append(t)), 0.0)
    sim.run(5.0)
    assert done[0] == pytest.approx(0.1, abs=0.02)
    assert disk.cache_hits == 1


def test_raid_stripes_across_disks():
    sim = Simulator(dt=0.001)
    raid = sim.add_agent(RAID("r", n_disks=4, array_controller_bps=1e9,
                              controller_bps=1e9, drive_bps=1e8, seed=1))
    done = []
    raid.submit(Job(4e8, on_complete=lambda j, t: done.append(t)), 0.0)
    sim.run(10.0)
    # dacc 0.4 + per-disk 1e8: dcc 0.1 + hdd 1.0
    assert done[0] == pytest.approx(1.5, abs=0.05)


def test_raid_array_cache_hit_bypasses_forkjoin():
    sim = Simulator(dt=0.001)
    raid = sim.add_agent(RAID("r", n_disks=4, array_controller_bps=1e9,
                              controller_bps=1e9, drive_bps=1e8,
                              array_cache_hit_rate=1.0, seed=1))
    done = []
    raid.submit(Job(4e8, on_complete=lambda j, t: done.append(t)), 0.0)
    sim.run(10.0)
    assert done[0] == pytest.approx(0.4, abs=0.05)
    assert all(d.queue_length() == 0 for d in raid.disks)


def test_san_full_chain():
    sim = Simulator(dt=0.001)
    san = sim.add_agent(SAN("s", n_disks=2, fc_switch_bps=1e9,
                            array_controller_bps=1e9, fc_loop_bps=1e9,
                            controller_bps=1e9, drive_bps=1e8, seed=1))
    done = []
    san.submit(Job(2e8, on_complete=lambda j, t: done.append(t)), 0.0)
    sim.run(10.0)
    # fcsw 0.2 + dacc 0.2 + fcal 0.2 + per-disk (dcc 0.1 + hdd 1.0)
    assert done[0] == pytest.approx(1.7, abs=0.05)


def test_san_cache_hit_skips_loop_and_disks():
    sim = Simulator(dt=0.001)
    san = sim.add_agent(SAN("s", n_disks=2, fc_switch_bps=1e9,
                            array_controller_bps=1e9, fc_loop_bps=1e9,
                            controller_bps=1e9, drive_bps=1e8,
                            array_cache_hit_rate=1.0, seed=1))
    done = []
    san.submit(Job(2e8, on_complete=lambda j, t: done.append(t)), 0.0)
    sim.run(10.0)
    assert done[0] == pytest.approx(0.4, abs=0.05)


def test_storage_validation():
    with pytest.raises(ValueError):
        RAID("r", n_disks=0, array_controller_bps=1, controller_bps=1,
             drive_bps=1)
    with pytest.raises(ValueError):
        SAN("s", n_disks=0, fc_switch_bps=1, array_controller_bps=1,
            fc_loop_bps=1, controller_bps=1, drive_bps=1)
    with pytest.raises(ValueError):
        Disk("d", controller_bps=1e9, drive_bps=1e8, cache_hit_rate=2.0)


def test_raid_utilization_normalized_by_disks():
    sim = Simulator(dt=0.001)
    raid = sim.add_agent(RAID("r", n_disks=2, array_controller_bps=1e10,
                              controller_bps=1e10, drive_bps=1e8, seed=1))
    raid.submit(Job(2e8), 0.0)  # 1 s of drive work per disk
    sim.run(2.0)
    assert raid.sample(2.0)["utilization"] == pytest.approx(0.5, abs=0.05)


# ----------------------------------------------------------------------
# uniform SAN with cold caches: commit cadence and draws
# ----------------------------------------------------------------------
N_REQUESTS = 100


def _cold_san():
    """A 20-disk SAN whose array and disk caches never hit."""
    return SAN("s", n_disks=20, fc_switch_bps=4e9, array_controller_bps=2e9,
               fc_loop_bps=4e9, controller_bps=3e8, drive_bps=1e8, seed=5)


def _one_at_a_time(san):
    """Requests that each find the SAN drained: every one of them
    empties it again before the next arrives."""
    sim = Simulator()
    sim.add_agent(san)
    done = []
    for i in range(N_REQUESTS):
        sim.schedule(0.1 * i, lambda now, i=i: san.submit(
            Job(1e7 * (1 + i % 3), on_complete=lambda j, t: done.append(t)),
            now))
    sim.run(0.1 * N_REQUESTS)
    return done


def test_uniform_san_commits_once_per_commit_rows_admissions(monkeypatch):
    commits = []
    commit = StripedStorage._commit

    def counted(self, t, cut):
        commits.append(t)
        commit(self, t, cut)

    monkeypatch.setattr(StripedStorage, "_commit", counted)
    san = _cold_san()
    done = _one_at_a_time(san)
    assert len(done) == N_REQUESTS
    assert san._uniform
    # no drain commits: the rows fold only every COMMIT_ROWS admissions
    assert 0 < len(commits) <= N_REQUESTS // COMMIT_ROWS
    # folding in batches changes no float: the event-by-event reference
    # SAN agrees on every stage's busy time and count
    ref = as_reference(_cold_san())
    assert _one_at_a_time(ref) == done
    assert san._busy_seconds().hex() == ref._busy_seconds().hex()
    for disk, ref_disk in zip(san.disks, ref.disks):
        for q, rq in ((disk.dcc, ref_disk.dcc), (disk.hdd, ref_disk.hdd)):
            assert (q.busy_time.hex(), q.completed_count) == (
                rq.busy_time.hex(), rq.completed_count)
        assert disk.completed_count == N_REQUESTS


def test_cold_caches_draw_nothing_and_count_every_miss():
    san = _cold_san()
    states = [san._rng.getstate()] + [d._rng.getstate() for d in san.disks]
    _one_at_a_time(san)
    assert states == ([san._rng.getstate()]
                      + [d._rng.getstate() for d in san.disks])
    assert (san.cache_hits, san.cache_misses) == (0, N_REQUESTS)
    for disk in san.disks:
        # one miss per stripe
        assert (disk.cache_hits, disk.cache_misses) == (0, N_REQUESTS)
