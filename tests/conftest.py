"""Shared fixtures for the GDISim test suite."""

from __future__ import annotations

import os
import random
import zlib

import pytest

from repro.core import Simulator
from repro.software.canonical import CanonicalCostModel
from repro.software.client import Client
from repro.topology.network import GlobalTopology
from repro.topology.specs import DataCenterSpec, LinkSpec, SANSpec, TierSpec

try:  # hypothesis ships with the dev toolchain but stays optional
    from hypothesis import settings as _hyp_settings
except ImportError:  # pragma: no cover - dev installs always have it
    _hyp_settings = None
else:
    # "fast" keeps PR feedback quick and deterministic (a fixed example
    # set, so a red run is a bug, not bad luck); the nightly CI job
    # exports HYPOTHESIS_PROFILE=deep for the wide random sweep.
    # Per-test @settings decorators still override the profile where a
    # test needs more.
    _hyp_settings.register_profile("fast", max_examples=25, deadline=None,
                                   derandomize=True)
    _hyp_settings.register_profile("deep", max_examples=300, deadline=None)
    _hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))


@pytest.fixture
def rng(request) -> random.Random:
    """Deterministic per-test RNG stream.

    Seeded from the test's node id, so every test gets its own stable
    stream regardless of execution order or ``-k`` selection — without
    each test hand-picking a magic seed constant.
    """
    return random.Random(zlib.crc32(request.node.nodeid.encode()))


@pytest.fixture
def sim() -> Simulator:
    """A fresh adaptive-stepping simulator with a 10 ms tick."""
    return Simulator(dt=0.01, mode="adaptive")


@pytest.fixture
def fixed_sim() -> Simulator:
    """A fixed-stepping simulator (the thesis's literal loop)."""
    return Simulator(dt=0.01, mode="fixed")


def small_dc_spec(name: str = "DNA") -> DataCenterSpec:
    """A compact four-tier data center used across tests."""
    return DataCenterSpec(
        name=name,
        tiers=(
            TierSpec("app", n_servers=2, cores_per_server=2, memory_gb=8.0,
                     sockets=1),
            TierSpec("db", n_servers=1, cores_per_server=4, memory_gb=16.0,
                     sockets=1, uses_san=True),
            TierSpec("fs", n_servers=1, cores_per_server=2, memory_gb=8.0,
                     sockets=1, uses_san=True, nic_gbps=10.0),
            TierSpec("idx", n_servers=1, cores_per_server=2, memory_gb=8.0,
                     sockets=1),
        ),
        sans=(SANSpec(1, 4, 15000), SANSpec(1, 4, 15000)),
        switch_gbps=10.0,
        tier_link=LinkSpec(10.0, 0.2),
    )


@pytest.fixture
def single_dc_topology() -> GlobalTopology:
    """One small data center, everything placed locally."""
    topo = GlobalTopology(seed=1)
    topo.add_datacenter(small_dc_spec("DNA"))
    return topo


@pytest.fixture
def two_dc_topology() -> GlobalTopology:
    """Two data centers joined by a WAN link (50 ms, 155 Mbps)."""
    topo = GlobalTopology(seed=1)
    topo.add_datacenter(small_dc_spec("DNA"))
    topo.add_datacenter(small_dc_spec("DEU"))
    topo.connect("DNA", "DEU", LinkSpec(0.155, 50.0))
    return topo


@pytest.fixture
def local_mapping() -> dict:
    return {"app": "DNA", "db": "DNA", "fs": "DNA", "idx": "DNA"}


@pytest.fixture
def na_client() -> Client:
    return Client("test-client", "DNA", seed=5)


@pytest.fixture
def cost_model(single_dc_topology) -> CanonicalCostModel:
    return CanonicalCostModel(single_dc_topology)
