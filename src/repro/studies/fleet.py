"""The consolidation-fleet reference scenario (ROADMAP perf target).

The chapter 6 consolidated master platform scaled out to a global fleet
of regional file-serving sites under a steady background-replication
load: long NIC-dominated pulls with a small CPU/SAN tail on every
server.  This is the *many mostly-idle agents* regime — hundreds of
agents hold in-flight work, each with rare events — used by the
``fleet-vector`` and ``fleet-sharded`` perfbench workloads, the
partition-scaling benchmark and the sharded-execution parity tests.

All traffic is server-local, so any data-center cut of the topology has
no cross-shard cascades; the WAN links exist (155 Mbps, 80 ms to every
region) and their propagation latency is the conservative lookahead the
sharded backend synchronizes on.
"""

from __future__ import annotations

import random

from repro.software.placement import SingleMasterPlacement
from repro.studies.consolidation import MASTER
from repro.topology.network import GlobalTopology
from repro.topology.specs import (
    DataCenterSpec,
    LinkSpec,
    SANSpec,
    TierSpec,
)

#: WAN latency from the master to every regional site (seconds); the
#: sharded backend's conservative window cannot exceed this.
REGION_LATENCY_S = 0.08


def fleet_topology(n_regions: int, seed: int = 42) -> GlobalTopology:
    """The chapter 6 master DC plus ``n_regions`` regional serving sites."""
    topo = GlobalTopology(seed=seed)
    topo.add_datacenter(DataCenterSpec(
        name=MASTER,
        tiers=(
            TierSpec("app", n_servers=8, cores_per_server=8,
                     memory_gb=32.0, sockets=2),
            TierSpec("db", n_servers=2, cores_per_server=64,
                     memory_gb=64.0, sockets=4, uses_san=True),
            TierSpec("idx", n_servers=3, cores_per_server=16,
                     memory_gb=64.0, sockets=2),
            TierSpec("fs", n_servers=2, cores_per_server=8, memory_gb=32.0,
                     sockets=2, uses_san=True, nic_gbps=10.0),
        ),
        sans=(SANSpec(1, 20, 15000), SANSpec(1, 20, 15000)),
        switch_gbps=10.0,
        tier_link=LinkSpec(10.0, 0.2),
    ))
    for i in range(n_regions):
        name = f"R{i:02d}"
        topo.add_datacenter(DataCenterSpec(
            name=name,
            tiers=(TierSpec("fs", n_servers=4, cores_per_server=8,
                            memory_gb=32.0, sockets=2, uses_san=True,
                            nic_gbps=10.0),),
            sans=(SANSpec(1, 20, 15000),),
            switch_gbps=10.0,
            tier_link=LinkSpec(10.0, 0.2),
        ))
        topo.connect(MASTER, name,
                     LinkSpec(0.155, REGION_LATENCY_S * 1000.0,
                              allocated_fraction=0.2))
    return topo


def fleet_setup(session) -> None:
    """Steady replication pulls on every server of the fleet.

    Each server runs a self-sustaining chain of legs sized like the
    chapter 6 SR/IB background: a long NIC serialization, a light CPU
    touch and a small SAN write, then a short think gap.  Demands come
    from per-server ``random.Random`` streams seeded by the server's
    *global* index, so the workload is identical across stepping modes
    — and across shard boundaries: a sharded session (``session.owns``)
    drives only the servers it registered while preserving every
    server's global seed.
    """
    sim = session.sim
    topo = session.scenario.topology
    servers = []
    for dc_name, dc in topo.datacenters.items():
        for tier in dc.tiers.values():
            servers.extend((dc_name, s) for s in tier.servers)

    def chain(server, r: random.Random) -> None:
        def leg(now: float) -> None:
            server.process_leg(
                now,
                cycles=0.02 * server.cpu.frequency_hz,
                net_bits=r.uniform(20.0, 60.0) * 1e9,
                mem_bytes=64e6,
                disk_bytes=r.uniform(10.0, 50.0) * 1e6,
                on_complete=lambda t: sim.schedule(
                    t + r.uniform(0.1, 0.4), leg),
            )

        sim.schedule(r.uniform(0.0, 2.0), leg)

    for i, (dc_name, server) in enumerate(servers):
        if not session.owns(dc_name):
            continue
        chain(server, random.Random(1000 + i))


def fleet_scenario(n_regions: int, seed: int = 42):
    """A ready-to-``simulate`` consolidation-fleet scenario."""
    from repro.api import Scenario

    return Scenario(
        name="consolidation-fleet",
        topology=fleet_topology(n_regions, seed=seed),
        placement=SingleMasterPlacement(MASTER, local_fs=True),
        seed=seed,
        setup=fleet_setup,
    )
