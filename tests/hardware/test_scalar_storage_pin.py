"""Exact pin of the scalar storage path: FCFS stations under CPU
composites and the closed-form SAN schedules, with a server crash and a
SAN disk failure mid-run.

The perfbench digest leaves busy-time floats and ``queue_hwm`` out, and
the ch. 5 metrics baseline has no ``queue_hwm`` rows, so this test is
the tier-1 gate that a change to the scalar queueing or composite
bookkeeping keeps every one of them bit-identical.  The per-tick queue
depth of every storage composite must also equal the event-by-event
reference path's (:mod:`repro.verification.storage`), whose stations
hold the stage jobs the closed form only counts.
"""

import hashlib
import random

from repro.api import Scenario
from repro.hardware.composite import CompositeAgent
from repro.hardware.storage import StripedStorage
from repro.queueing.fcfs import FCFSQueue
from repro.software.placement import SingleMasterPlacement
from repro.studies.consolidation import MASTER
from repro.studies.fleet import fleet_topology
from repro.verification.storage import use_reference_storage

SEED = 42
HORIZON_S = 5.0

#: SHA-256 of ``_fingerprint`` for this run, produced at commit 2071d57,
#: the implementation before arrivals at idle stations were admitted in
#: one step and before composite depth was kept as a counter.
EXPECTED = "59e64b1aaf785e86e8d8b104a49aada3f33253e16a4051a17bb1cf85eb40e366"


def _seeded_legs(session) -> None:
    """Replication-leg chains on every server, one ``random.Random`` per
    server seeded from SEED and the server's index (the perfbench fleet
    workload's demand)."""
    sim = session.sim
    servers = [s for dc in session.scenario.topology.datacenters.values()
               for tier in dc.tiers.values() for s in tier.servers]

    def chain(server, r: random.Random) -> None:
        def leg(now: float) -> None:
            server.process_leg(
                now,
                cycles=0.02 * server.cpu.frequency_hz,
                net_bits=r.uniform(20.0, 60.0) * 1e9,
                mem_bytes=64e6,
                disk_bytes=r.uniform(10.0, 50.0) * 1e6,
                on_complete=lambda t: sim.schedule(t + r.uniform(0.1, 0.4),
                                                   leg),
            )

        sim.schedule(r.uniform(0.0, 2.0), leg)

    for i, server in enumerate(servers):
        chain(server, random.Random(SEED * 1_000_003 + i))


def _leaf_depth(agent) -> int:
    """Jobs held by the leaf FCFS stations below ``agent``."""
    if isinstance(agent, FCFSQueue):
        return len(agent.waiting) + len(agent.in_service)
    return sum(_leaf_depth(child) for child in agent._children)


def _fingerprint(result) -> str:
    h = hashlib.sha256()
    for name, t in sorted(result.telemetry().items()):
        extras = sorted((k, v.hex()) for k, v in t.extras.items())
        h.update(f"{name}|{t.arrivals}|{t.completions}|{t.drops}|"
                 f"{t.busy_time.hex()}|{t.queue_length}|{t.queue_hwm}|"
                 f"{extras}\n".encode())
    for r in sorted(result.records, key=lambda r: (r.start, r.end)):
        h.update(f"{r.start.hex()}|{r.end.hex()}|{r.operation}|"
                 f"{r.failed}|{r.retries}\n".encode())
    return h.hexdigest()


def _run(reference: bool):
    """The pinned run; returns its result, the failed disk and the
    per-tick queue depth of every storage composite."""
    topology = fleet_topology(8, seed=SEED)
    region = topology.datacenters["R00"]
    server = region.tiers["fs"].servers[0]
    if reference:
        use_reference_storage(topology)
    disk = region.sans[0].disks[3]
    scenario = Scenario(
        name="storage-pin",
        topology=topology,
        placement=SingleMasterPlacement(MASTER, local_fs=True),
        seed=SEED,
        setup=_seeded_legs,
    )
    session = scenario.prepare(kernel="scalar")
    sim = session.sim
    sim.schedule(1.5, lambda t: server.fail(crash=True, now=t))
    sim.schedule(2.0, lambda t: disk.fail(crash=True, now=t))
    sim.schedule(2.5, lambda t: server.repair(t))
    sim.schedule(3.0, lambda t: disk.repair(t))

    composites = [a for a in sim.agents if isinstance(a, CompositeAgent)]
    storage = [a for a in sim.agents if isinstance(a, StripedStorage)]
    depths = []

    def check_depth(now: float) -> None:
        # a CPU's counter equals the jobs its socket stations hold
        for agent in composites:
            assert agent.queue_length() == _leaf_depth(agent), (agent.name,
                                                                now)
        depths.append([a.queue_length() for a in storage])

    sim.add_monitor(0.05, check_depth)
    return session.run(HORIZON_S), disk, depths


def test_scalar_storage_path_is_pinned_and_depth_is_exact():
    result, disk, depths = _run(reference=False)
    ref_result, _ref_disk, ref_depths = _run(reference=True)

    assert len(depths) >= 99
    assert max(map(sum, depths)) > 0  # the depth check saw jobs in flight
    assert depths == ref_depths
    assert disk.completed_count > 0 and not disk.paused
    assert _fingerprint(result) == EXPECTED
    assert _fingerprint(ref_result) == EXPECTED
