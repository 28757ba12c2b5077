"""Closed-form storage schedules against the event-by-event reference.

A SAN or RAID plans a request's whole stage chain at admission
(:mod:`repro.hardware.storage`); the reference path
(:mod:`repro.verification.storage`) runs every stage as its own event.
Under either kernel the two must agree exactly: completion order and
times, ``busy_time`` to the bit (the whole composite and every stage),
and ``queue_hwm``.

The three failure cases were divergences of the vector kernel's former
closed form, found with a 4-disk SAN and 40 MB requests: a member-disk
crash it ignored, a whole-SAN crash after which it replayed stages that
had already finished, and two joins tied at one instant that it fired
in admission order instead of station order.
"""

import random

import pytest

from repro.core import Job, Simulator
from repro.hardware import Disk, RAID, SAN
from repro.queueing.soa import vectorize_agents
from repro.verification.storage import as_reference

PATHS = ("closed-scalar", "closed-vector")


def _san():
    # 40 MB requests: 0.1 s per front stage, 0.05 s per stripe at each
    # disk controller and 0.1 s at each drive
    return SAN("s", n_disks=4, fc_switch_bps=400e6,
               array_controller_bps=400e6, fc_loop_bps=400e6,
               controller_bps=200e6, drive_bps=100e6, seed=1)


def _raid():
    return RAID("r", n_disks=3, array_controller_bps=400e6,
                controller_bps=300e6, drive_bps=150e6,
                array_cache_hit_rate=0.3, disk_cache_hit_rate=0.4, seed=7)


def _drive(path, build, arrivals, events=(), mode="event", until=10.0,
           demand=40e6, monitor=None):
    """Run one composite through ``arrivals`` (times) and failure
    ``events`` (``(t, fn(agent, t))``); returns everything observable."""
    sim = Simulator(dt=0.01, mode=mode)
    agent = build()
    if path == "reference":
        as_reference(agent)
    if path == "closed-vector":
        vectorize_agents(sim, [agent], name="t")
    else:
        sim.add_agent(agent)
    done = []
    for i, t in enumerate(arrivals):
        sim.schedule(t, lambda now, i=i: agent.submit(
            Job(demand, on_complete=lambda _j, tc, i=i: done.append((i, tc))),
            now))
    for t, fn in events:
        sim.schedule(t, lambda now, fn=fn: fn(agent, now))
    depth = []
    if monitor is not None:
        sim.add_monitor(monitor, lambda now: depth.append(
            (agent.queue_length(),
             [d.queue_length() for d in agent.disks])))
    sim.run(until)
    stages = [q.busy_time.hex() for q in agent._stages()]
    stages += [q.busy_time.hex() for d in agent.disks for q in (d.dcc, d.hdd)]
    counters = [(d.completed_count, d.cache_hits, d.cache_misses)
                for d in agent.disks]
    return {
        "done": done,
        "busy": agent._busy_seconds().hex(),
        "stages": stages,
        "hwm": agent.queue_hwm,
        "completed": agent.completed_count,
        "disks": counters,
        "depth": depth,
    }


def _assert_matches_reference(build, arrivals, events=(), **kw):
    ref = _drive("reference", build, arrivals, events, **kw)
    for path in PATHS:
        got = _drive(path, build, arrivals, events, **kw)
        assert got == ref, (path, got, ref)
    return ref


def test_member_disk_crash_holds_its_stripes_until_repair():
    """(a) Disk 2 down from 0.1 s to 1.0 s holds every stripe it owes."""
    ref = _assert_matches_reference(
        _san, [0.0, 0.3, 0.6, 0.9],
        [(0.1, lambda a, t: a.disks[2].fail(crash=True, now=t)),
         (1.0, lambda a, t: a.disks[2].repair(t))])
    assert [round(t, 9) for _, t in ref["done"]] == [1.15, 1.25, 1.35, 1.45]


def test_whole_san_crash_replays_only_interrupted_stages():
    """(b) A whole-SAN crash restarts the spans in service, nothing that
    had already finished."""
    ref = _assert_matches_reference(
        _san, [0.0, 0.3, 0.6, 0.9, 1.2],
        [(0.35, lambda a, t: a.fail(crash=True, now=t)),
         (0.9, lambda a, t: a.repair(t))])
    # five requests of 0.9 s stage work each, plus the lost 0.05 s the
    # switch had served of request 1 when the crash hit
    assert float.fromhex(ref["busy"]) == pytest.approx(4.55)


def test_joins_tied_at_one_instant_fire_in_station_order():
    """(c) Under a pause, requests 1 and 3 both finish at 1.1 s: request
    3 is an array-cache hit, finishing at the controller, a lower
    station than the drives that finish request 1, so it fires first."""
    def build():
        return SAN("s", n_disks=4, fc_switch_bps=400e6,
                   array_controller_bps=400e6, fc_loop_bps=400e6,
                   controller_bps=200e6, drive_bps=100e6,
                   array_cache_hit_rate=0.5, seed=1)

    ref = _assert_matches_reference(
        build, [0.0, 0.1, 0.2, 0.35],
        [(0.35, lambda a, t: a.fail(crash=False, now=t)),
         (0.9, lambda a, t: a.repair(t))])
    order = [i for i, _ in ref["done"]]
    assert order.index(3) < order.index(1)
    assert dict(ref["done"])[1] == dict(ref["done"])[3]


@pytest.mark.parametrize("mode", ["event", "adaptive"])
def test_raid_with_cache_hits_and_crash_matches_reference(mode):
    _assert_matches_reference(
        _raid, [0.01 * i for i in range(8)],
        [(0.05, lambda a, t: a.fail(crash=True, now=t)),
         (0.2, lambda a, t: a.repair(t)),
         (0.25, lambda a, t: a.disks[1].fail(crash=False, now=t)),
         (0.4, lambda a, t: a.disks[1].repair(t))],
        mode=mode, demand=8e6, monitor=0.013)


def test_member_failed_inside_array_outage_comes_back():
    """A member crashed while its SAN's outage has paused it, and
    repaired before the SAN, resumes at its own repair; every request
    completes once the SAN is back."""
    ref = _assert_matches_reference(
        _san, [0.0, 0.3],
        [(0.35, lambda a, t: a.fail(crash=False, now=t)),
         (0.4, lambda a, t: a.disks[0].fail(crash=True, now=t)),
         (0.5, lambda a, t: a.disks[0].repair(t)),
         (0.6, lambda a, t: a.repair(t))])
    assert [i for i, _ in ref["done"]] == [0, 1]


def test_sync_cuts_and_depth_match_reference():
    """Monitor syncs split busy pieces mid-span; queue depth counts the
    stage jobs held (1 before the fan-out, then unfinished stripes)."""
    ref = _assert_matches_reference(
        _san, [0.0, 0.02, 0.04, 0.5, 0.51], monitor=0.037)
    assert max(d for d, _ in ref["depth"]) > 4


# ----------------------------------------------------------------------
# a RAID burst with per-disk cache draws (successors of the former
# vector-kernel array tests, now checked against the reference path)
# ----------------------------------------------------------------------
def _raid2():
    return RAID("r", n_disks=2, array_controller_bps=400e6,
                controller_bps=300e6, drive_bps=150e6,
                array_cache_hit_rate=0.0, disk_cache_hit_rate=0.5, seed=7)


BURST = [0.01 * i for i in range(6)]


def _outage(crash):
    return [(0.05, lambda a, t: a.fail(crash=crash, now=t)),
            (0.2, lambda a, t: a.repair(t))]


def test_raid_completes_all_and_conserves_draws():
    ref = _assert_matches_reference(_raid2, BURST, demand=8e6)
    assert len(ref["done"]) == 6
    # every request misses the array cache and fans out to both disks:
    # one draw and one stripe completion per disk per request
    for completed, hits, misses in ref["disks"]:
        assert completed == 6
        assert hits + misses == 6


def test_raid_crash_replay_reuses_cache_draws():
    """A crash restarts interrupted stripes without redrawing the
    per-disk hit streams."""
    base = _assert_matches_reference(_raid2, BURST, demand=8e6)
    crashed = _assert_matches_reference(_raid2, BURST, _outage(True),
                                        demand=8e6)
    assert len(crashed["done"]) == len(base["done"])
    assert ([d[1:] for d in crashed["disks"]]
            == [d[1:] for d in base["disks"]])


def test_raid_pause_conserves_busy():
    """A non-crash outage loses and repeats no service: total busy time
    matches the uninterrupted run."""
    base = _assert_matches_reference(_raid2, BURST, demand=8e6)
    paused = _assert_matches_reference(_raid2, BURST, _outage(False),
                                       demand=8e6)
    assert len(paused["done"]) == 6
    assert float.fromhex(paused["busy"]) == pytest.approx(
        float.fromhex(base["busy"]), rel=1e-9)


def test_raid_event_adaptive_parity_under_crash():
    runs = [_drive("closed-scalar", _raid2, BURST[:4], _outage(True),
                   mode=mode, demand=8e6) for mode in ("event", "adaptive")]
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# seeded random sweep: composites, arrivals, nested failures, monitors
# ----------------------------------------------------------------------
def _random_case(seed):
    """A random Disk/RAID/SAN, arrival burst and failure schedule."""
    r = random.Random(seed)
    kind = r.choice(["disk", "raid", "san"])
    agent_seed = r.randrange(1000)
    array_hit = r.choice([0.0, 0.0, 0.3])
    disk_hit = r.choice([0.0, 0.0, 0.4])
    n = 0 if kind == "disk" else r.choice([1, 2, 3, 4])
    if kind == "disk":
        build = lambda: Disk("d", controller_bps=2e8, drive_bps=1e8,  # noqa: E731
                             cache_hit_rate=disk_hit, seed=agent_seed)
    elif kind == "raid":
        build = lambda: RAID(  # noqa: E731
            "r", n_disks=n, array_controller_bps=4e8, controller_bps=3e8,
            drive_bps=1.5e8, array_cache_hit_rate=array_hit,
            disk_cache_hit_rate=disk_hit, seed=agent_seed)
    else:
        build = lambda: SAN(  # noqa: E731
            "s", n_disks=n, fc_switch_bps=4e8, array_controller_bps=4e8,
            fc_loop_bps=4e8, controller_bps=2e8, drive_bps=1e8,
            array_cache_hit_rate=array_hit, disk_cache_hit_rate=disk_hit,
            seed=agent_seed)
    # times on coarse and fine grids, so stage events meet failures and
    # each other at exact instants as well as at arbitrary ones
    arrivals = sorted(
        (round(r.uniform(0, 3), r.choice([1, 2, 9])),
         r.choice([0.0, 1e6, 8e6, 4e7]), r.choice([0.0, 0.0, 0.05]))
        for _ in range(r.randint(1, 12)))
    events = []
    for _ in range(r.randint(0, 3)):
        t0 = round(r.uniform(0, 3), r.choice([1, 2, 9]))
        t1 = t0 + round(r.uniform(0.01, 1.5), 2)
        crash = r.random() < 0.5
        # a member may fail while its array's outage has paused it (the
        # failure injector does this); an array already down is not
        # failed again (a server fails only while it is up)
        if n and r.random() < 0.5:
            target = lambda a, k=r.randrange(n): a.disks[k]  # noqa: E731
            again = True
        else:
            target = lambda a: a  # noqa: E731
            again = False
        events.append((t0, lambda a, t, g=target, c=crash, m=again: (
            None if g(a).paused and not m else g(a).fail(crash=c, now=t))))
        events.append((t1, lambda a, t, g=target: (
            g(a).repair(t) if g(a).paused else None)))
    return (build, arrivals, events, r.choice([None, 0.037, 0.1]),
            r.choice(["event", "adaptive"]))


def _stations(agent):
    """Every stage of a Disk, RAID or SAN, in path order."""
    front = agent._stages() if isinstance(agent, RAID) else []
    disks = agent.disks if isinstance(agent, RAID) else [agent]
    return front + [q for d in disks for q in (d.dcc, d.hdd)]


def _drive_random(path, build, arrivals, events, monitor, mode):
    sim = Simulator(dt=0.01, mode=mode)
    agent = build()
    if path == "reference":
        as_reference(agent)
    if path == "closed-vector":
        vectorize_agents(sim, [agent], name="t")
    else:
        sim.add_agent(agent)
    done = []
    for i, (t, d, nb) in enumerate(arrivals):
        sim.schedule(t, lambda now, i=i, d=d, nb=nb: agent.submit(
            Job(d, on_complete=lambda _j, tc, i=i: done.append((i, tc)),
                not_before=now + nb), now))
    for t, fn in events:
        sim.schedule(t, lambda now, fn=fn: fn(agent, now))
    depth = []
    if monitor is not None:
        sim.add_monitor(monitor, lambda now: depth.append(
            agent.queue_length()))
    sim.run(20.0)
    disks = getattr(agent, "disks", [])
    return (done, agent._busy_seconds().hex(), agent.queue_hwm, depth,
            [q.busy_time.hex() for q in _stations(agent)],
            [(d.completed_count, d.cache_hits, d.cache_misses)
             for d in disks])


#: 60 seeds, plus seeds that caught a member repaired inside its array's
#: outage, joins chained through zero-demand stages, joins waiting on a
#: stage's repair, and a timestamp guard met at a busy stage
SWEEP_SEEDS = list(range(60)) + [417, 600, 815, 1081, 2705]

#: Known gap (5 of the first 3,000 seeds): zero-demand chains and stripes
#: of one request finishing within the 1e-9 guard of another stage event
#: make the reference fire tied joins in another order (seed 2829 also
#: reports one join at an earlier stripe's finish, 4e-16 s sooner).
#: Strict, so a change that closes or moves the gap is seen.
TIE_ORDER_GAP = [
    pytest.param(seed, marks=pytest.mark.xfail(
        strict=True, reason="tied joins within the guard fire in another "
        "order than the reference's per-station pass"))
    for seed in (692, 1008, 2358, 2611, 2829)
]


@pytest.mark.parametrize("seed", SWEEP_SEEDS + TIE_ORDER_GAP)
def test_random_schedules_match_reference(seed):
    case = _random_case(seed)
    ref = _drive_random("reference", *case)
    for path in PATHS:
        assert _drive_random(path, *case) == ref, (seed, path)
