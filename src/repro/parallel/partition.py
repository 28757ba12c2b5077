"""Topology cuts for sharded execution (thesis section 9.3.1).

The thesis's final future-work direction is scaling the simulator
*across machines*.  The natural partition boundary is the data center:
intra-DC interactions are dense and fine-grained, while inter-DC
interactions cross WAN links whose propagation latency (tens to
hundreds of milliseconds) dwarfs the simulation tick.  That latency is
exploitable *lookahead* in the classic conservative sense: a message
sent from shard A at time ``t`` cannot affect shard B before
``t + L_AB``, so every shard can safely simulate a window of
``min(L)`` seconds with no synchronization at all.

:func:`partition_topology` computes the *cut*: which data centers land
in which shard.  The only supported cut axes are the natural ones —
``"region"`` (balance whole DCs across ``workers`` shards by agent
weight) and ``"holon"`` (one DC per shard) — because DC boundaries are
exactly where all interactions cross high-latency WAN links.  The
resulting :class:`PartitionPlan` carries the cross-cut links and the
lookahead ``min(L)`` they imply; the sharded execution backend
(:mod:`repro.parallel.sharded`) turns the plan into worker processes
and runs the conservative windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class PartitionPlan:
    """A cut of the topology's data centers into shards.

    ``shards`` holds the DC names per shard (insertion-ordered);
    ``cross_links`` the (a, b, latency_s) edges whose endpoints landed
    in different shards.  The smallest cross-cut latency is the
    conservative *lookahead*: the largest synchronization window that
    still guarantees no envelope can arrive inside the window it was
    sent in.
    """

    cut: str
    shards: Tuple[Tuple[str, ...], ...]
    cross_links: Tuple[Tuple[str, str, float], ...] = ()

    @property
    def workers(self) -> int:
        return len(self.shards)

    @property
    def lookahead(self) -> float:
        """min(L) over cross-cut links; ``inf`` when the cut severs
        nothing (shards never need to synchronize before the horizon)."""
        if not self.cross_links:
            return float("inf")
        return min(latency for _, _, latency in self.cross_links)

    def shard_of(self, dc_name: str) -> int:
        for idx, shard in enumerate(self.shards):
            if dc_name in shard:
                return idx
        raise KeyError(f"data center {dc_name!r} not in any shard")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cut": self.cut,
            "shards": [list(s) for s in self.shards],
            "cross_links": [list(e) for e in self.cross_links],
            "lookahead_s": (None if not self.cross_links
                            else self.lookahead),
        }


def _dc_weight(dc) -> int:
    """Balance weight of one DC holon: its agent count (servers, SANs,
    switches...), which tracks per-window event volume for the fleet
    workloads far better than DC count alone."""
    return sum(1 for _ in dc.agents())


def partition_topology(topology, workers: int = 2,
                       cut: str = "region") -> PartitionPlan:
    """Cut a :class:`~repro.topology.network.GlobalTopology` into shards.

    ``cut="region"`` distributes whole data centers across ``workers``
    shards with a deterministic greedy longest-processing-time pass
    (heaviest DC first, into the currently lightest shard), so shards
    are balanced by agent count.  ``cut="holon"`` pins one DC per shard
    — the finest cut the model allows, since intra-DC interactions are
    zero-latency and must never cross a shard boundary.

    Cross-shard edges are read off the topology's primary and secondary
    WAN links; their smallest propagation latency becomes the plan's
    lookahead.
    """
    names = list(topology.datacenters)
    if not names:
        raise ConfigurationError("cannot partition an empty topology")
    if cut == "holon":
        shards = tuple((n,) for n in names)
    elif cut == "region":
        if workers < 1:
            raise ConfigurationError("need at least one worker")
        workers = min(workers, len(names))
        weights = {n: _dc_weight(topology.datacenter(n)) for n in names}
        loads = [0] * workers
        assignment: List[List[str]] = [[] for _ in range(workers)]
        for name in sorted(names, key=lambda n: (-weights[n], n)):
            target = min(range(workers), key=lambda i: (loads[i], i))
            assignment[target].append(name)
            loads[target] += weights[name]
        shards = tuple(tuple(s) for s in assignment)
    else:
        raise ConfigurationError(
            f"unknown cut {cut!r} (choose 'region' or 'holon')")

    shard_of = {n: i for i, shard in enumerate(shards) for n in shard}
    cross = []
    for links in (topology.links, topology._secondary):
        for (a, b), link in links.items():
            if shard_of[a] != shard_of[b]:
                cross.append((a, b, link.latency_s))
    return PartitionPlan(cut=cut, shards=shards,
                         cross_links=tuple(sorted(cross)))
