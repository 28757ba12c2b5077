"""Tests for cascade path construction and daemon endpoints."""

import pytest

from repro.core import Simulator
from repro.software.cascade import CascadeRunner
from repro.software.client import Client
from repro.software.message import CLIENT, DAEMON, MessageSpec
from repro.software.operation import Operation
from repro.software.placement import SingleMasterPlacement
from repro.software.resources import R
from repro.topology.specs import LinkSpec

from repro.topology.network import GlobalTopology
from tests.conftest import small_dc_spec


@pytest.fixture
def world():
    topo = GlobalTopology(seed=1)
    topo.add_datacenter(small_dc_spec("DNA"))
    topo.add_datacenter(small_dc_spec("DEU"))
    topo.connect("DNA", "DEU", LinkSpec(0.155, 50.0))
    sim = Simulator(dt=0.01)
    for dc in topo.datacenters.values():
        sim.add_holon(dc)
    for link in topo.links.values():
        sim.add_agent(link)
    runner = CascadeRunner(topo, SingleMasterPlacement("DNA", local_fs=True),
                           seed=3)
    return topo, sim, runner


def test_path_client_to_tier_same_dc(world):
    topo, sim, runner = world
    client = Client("c", "DNA")
    src = runner.resolved(client, "DNA", "client")
    tier = topo.datacenter("DNA").tier("app")
    dst = runner.resolved(tier.servers[0], "DNA", "app")
    path = runner.path_between(src, dst)
    types = [a.agent_type for a in path]
    assert types == ["link", "switch", "link"]
    assert path[0] is topo.datacenter("DNA").access_link


def test_path_crosses_wan_between_dcs(world):
    topo, sim, runner = world
    client = Client("c", "DEU")
    src = runner.resolved(client, "DEU", "client")
    tier = topo.datacenter("DNA").tier("app")
    dst = runner.resolved(tier.servers[0], "DNA", "app")
    path = runner.path_between(src, dst)
    names = [a.name for a in path]
    assert "LDNA-DEU" in names
    # both switches appear, in order
    assert names.index("DEU.sw") < names.index("LDNA-DEU") < names.index("DNA.sw")


def test_tier_to_tier_path_uses_tier_links(world):
    topo, sim, runner = world
    dna = topo.datacenter("DNA")
    src = runner.resolved(dna.tier("app").servers[0], "DNA", "app")
    dst = runner.resolved(dna.tier("db").servers[0], "DNA", "db")
    path = runner.path_between(src, dst)
    assert path[0] is dna.tier_links["app"]
    assert path[-1] is dna.tier_links["db"]


def test_daemon_endpoint_resolves_to_registered_host(world):
    topo, sim, runner = world
    host = Client("daemon-host", "DNA", seed=9)
    sim.add_holon(host)
    runner.set_daemon_host("DNA", host)
    client = Client("c", "DNA", seed=2)
    sim.add_holon(client)
    op = Operation("BG", [
        MessageSpec(DAEMON, "db", r=R.of(cycles=3e9, net_kb=8)),
        MessageSpec("db", DAEMON, r=R.of(net_kb=8)),
    ], initiator=DAEMON)
    runner.launch(op, client, 0.0)
    sim.run(10.0)
    assert len(runner.records) == 1
    # the daemon host's NIC carried the exchange
    assert host.nic.completed_count > 0


def test_daemon_without_host_falls_back_to_client(world):
    topo, sim, runner = world
    client = Client("c", "DNA", seed=2)
    sim.add_holon(client)
    op = Operation("BG", [
        MessageSpec(DAEMON, "db", r=R.of(cycles=1e9, net_kb=8)),
        MessageSpec("db", DAEMON),
    ], initiator=DAEMON)
    runner.launch(op, client, 0.0)
    sim.run(10.0)
    assert runner.records[0].response_time > 0


def test_same_server_message_skips_network(world):
    topo, sim, runner = world
    client = Client("c", "DNA", seed=2)
    sim.add_holon(client)
    # app -> app within one operation resolves to the same session server
    op = Operation("LOCAL", [
        MessageSpec(CLIENT, "app", r=R.of(cycles=1e8, net_kb=8)),
        MessageSpec("app", "app", r=R.of(cycles=1e8, net_kb=1e6)),
        MessageSpec("app", CLIENT, r=R.of(net_kb=8)),
    ])
    before = topo.datacenter("DNA").switch.completed_count
    runner.launch(op, client, 0.0)
    sim.run(10.0)
    # the huge self-message payload never hit the switch: only the two
    # client legs did
    after = topo.datacenter("DNA").switch.completed_count
    assert after - before == 2


def test_cached_routes_and_paths_follow_link_failure_and_repair(monkeypatch):
    """A route resolved before a link fails is not reused after it, and
    restoring the link brings the primary back: ``fail_link`` and
    ``restore_link`` drop both the topology's resolved WAN links and the
    runner's endpoint paths, while an unchanged topology resolves each
    route once rather than on every message."""
    topo = GlobalTopology(seed=1)
    for name in ("DNA", "DEU"):
        topo.add_datacenter(small_dc_spec(name))
    primary = topo.connect("DNA", "DEU", LinkSpec(0.155, 10.0))
    backup = topo.connect("DNA", "DEU", LinkSpec(0.045, 30.0), secondary=True)
    runner = CascadeRunner(topo, SingleMasterPlacement("DNA", local_fs=False),
                           seed=3)
    src = runner.resolved(Client("c", "DEU"), "DEU", "client")
    dst = runner.resolved(topo.datacenter("DNA").tier("app").servers[0],
                          "DNA", "app")
    scans = []
    usable_links = GlobalTopology._usable_links

    def counted(self):
        scans.append(1)
        return usable_links(self)

    monkeypatch.setattr(GlobalTopology, "_usable_links", counted)

    before = runner.path_between(src, dst)
    assert primary in before and backup not in before
    assert runner.path_between(src, dst) is before
    resolved = len(scans)
    for _ in range(3):
        assert topo.route("DEU", "DNA") == [primary]
    assert len(scans) == resolved

    topo.fail_link("DNA", "DEU")
    during = runner.path_between(src, dst)
    assert backup in during and primary not in during
    assert topo.route("DEU", "DNA") == [backup]

    topo.restore_link("DNA", "DEU", now=5.0)
    assert primary in runner.path_between(src, dst)
    assert topo.route("DEU", "DNA") == [primary]
