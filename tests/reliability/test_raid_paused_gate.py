"""RAID paused-gate and in-flight requeue semantics.

Targets the degraded-array contract: a failed member disk holds exactly
its own stripe branch (the paused gate), a crash re-queues in-service
stripe work instead of dropping it, and both behaviors are identical
under the event kernel.  The strict invariant checker rides along so a
regression in the ledger shows up as a conservation violation, not just
as a wrong completion time.
"""

import pytest

from repro.core import Job, Simulator
from repro.hardware import RAID
from repro.verification import InvariantChecker
from repro.verification.storage import as_reference


def _raid(sim, n_disks=2, reference=False):
    raid = RAID("r", n_disks=n_disks, array_controller_bps=1e9,
                controller_bps=1e9, drive_bps=1e8, seed=1)
    if reference:
        as_reference(raid)
    sim.add_agent(raid)
    return raid


def test_paused_member_holds_only_its_own_stripe():
    sim = Simulator(dt=0.01, invariants=InvariantChecker(mode="strict"))
    raid = _raid(sim)
    sim.add_monitor(0.5, lambda now: None)
    done = []
    raid.submit(Job(4e8, on_complete=lambda j, t: done.append(t)), 0.0)
    # fail disk0 while its stripe is in flight (stripe of 2e8 bytes per
    # branch at 1e8 B/s drive speed needs ~2 s on the hdd stage)
    sim.schedule(0.5, lambda t: raid.disks[0].fail(crash=False, now=t))
    sim.run(6.0)
    # the healthy branch finished its half of the stripe...
    assert raid.disks[1].completed_count == 1
    # ...but the join is held open by the failed branch
    assert not done
    assert raid.queue_length() > 0
    raid.disks[0].repair(sim.now)
    sim.run(12.0)
    assert len(done) == 1
    assert raid.completed_count == 1
    assert raid.queue_length() == 0
    assert sim.invariants.ok


def test_crash_requeues_in_service_stripe_progress():
    """Checked on the event-by-event reference path, whose drive holds
    the stripe as a job, and on the closed-form schedule, which must
    reach the same completion and busy time."""
    outcomes = []
    for reference in (True, False):
        sim = Simulator(dt=0.01, invariants=InvariantChecker(mode="strict"))
        raid = _raid(sim, reference=reference)
        sim.add_monitor(0.5, lambda now: None)
        done = []
        raid.submit(Job(4e8, on_complete=lambda j, t: done.append(t)), 0.0)
        sim.run(1.5)  # both branches mid-service
        disk = raid.disks[0]
        hdd = disk.hdd
        if reference:
            assert hdd.in_service, "stripe should be in service on the drive"
        assert disk.queue_length() == 1
        disk.fail(crash=True, now=sim.now)
        # crash semantics: in-service work re-queued with progress reset
        if reference:
            assert not hdd.in_service
            assert hdd.queue_length() == 1
        assert disk.queue_length() == 1
        sim.run(4.0)
        assert not done  # held while the member is down
        disk.repair(sim.now)
        sim.run(12.0)
        # the restarted branch pays its full service again, nothing lost
        assert len(done) == 1
        assert done[0] >= 4.0 + 2.0  # outage end + full branch service
        assert sim.invariants.ok
        outcomes.append((done, raid._busy_seconds().hex()))
    assert outcomes[0] == outcomes[1]


def test_paused_gate_is_mode_invariant():
    def completion(mode):
        sim = Simulator(dt=0.01, mode=mode)
        raid = _raid(sim)
        done = []
        raid.submit(Job(4e8, on_complete=lambda j, t: done.append(t)), 0.0)
        sim.schedule(0.5, lambda t: raid.disks[0].fail(crash=False, now=t))
        sim.schedule(5.0, lambda t: raid.disks[0].repair(t))
        sim.run(20.0)
        assert len(done) == 1
        return done[0]

    adaptive, event = completion("adaptive"), completion("event")
    # the outage pushes the held branch past the repair instant, and the
    # completion time must not depend on the stepping mode
    assert adaptive > 5.0
    assert event == adaptive


def test_queued_stripe_behind_outage_survives():
    """A second request queued during the outage completes after it."""
    sim = Simulator(dt=0.01, invariants=InvariantChecker(mode="strict"))
    raid = _raid(sim)
    sim.add_monitor(0.5, lambda now: None)
    done = []
    raid.disks[0].fail(crash=False, now=0.0)
    raid.submit(Job(2e8, on_complete=lambda j, t: done.append("a")), 0.1)
    raid.submit(Job(2e8, on_complete=lambda j, t: done.append("b")), 0.2)
    sim.run(3.0)
    assert not done
    raid.disks[0].repair(sim.now)
    sim.run(10.0)
    assert done == ["a", "b"]  # FIFO preserved across the outage
    assert sim.invariants.ok
