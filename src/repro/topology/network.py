"""Global topology: data centers interconnected by wide-area links.

The global topology (section 3.2.1) records the connectivity links
between data centers across continents, including latency and bandwidth,
along with secondary links reserved for failure scenarios.  Routing uses
fewest-hop paths over the primary-link graph; secondary links only carry
traffic when a primary on the path has failed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.agent import Agent
from repro.hardware.link import NetworkLink
from repro.topology.datacenter import DataCenter
from repro.topology.specs import DataCenterSpec, LinkSpec


class GlobalTopology:
    """The full simulated infrastructure: data centers plus WAN links."""

    def __init__(self, seed: int | None = None) -> None:
        self._seed = seed
        self.datacenters: Dict[str, DataCenter] = {}
        self.links: Dict[Tuple[str, str], NetworkLink] = {}
        self._secondary: Dict[Tuple[str, str], NetworkLink] = {}
        self._failed: set[Tuple[str, str]] = set()
        # resolved WAN link lists per (src, dst); valid until a link or
        # data center is added, failed or restored
        self._route_cache: Dict[Tuple[str, str], List[NetworkLink]] = {}
        #: whole endpoint-to-endpoint agent paths, filled by the cascade
        #: runner and emptied together with the route cache
        self.path_cache: Dict[tuple, List[Agent]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_datacenter(self, spec: DataCenterSpec) -> DataCenter:
        """Build and register a data center from its spec."""
        if spec.name in self.datacenters:
            raise ValueError(f"duplicate data center {spec.name!r}")
        dc = DataCenter(
            spec,
            seed=None if self._seed is None else self._seed + len(self.datacenters),
        )
        self.datacenters[spec.name] = dc
        self._routes_changed()
        return dc

    def connect(
        self, a: str, b: str, spec: LinkSpec, secondary: bool = False
    ) -> NetworkLink:
        """Create a bidirectional WAN link between data centers a and b."""
        for name in (a, b):
            if name not in self.datacenters:
                raise KeyError(f"unknown data center {name!r}")
        key = self._key(a, b)
        link = NetworkLink(
            f"L{a}-{b}",
            bandwidth_bps=spec.bandwidth_bps(),
            latency_s=spec.latency_s(),
            max_connections=spec.max_connections,
            allocated_fraction=spec.allocated_fraction,
        )
        if secondary:
            self._secondary[key] = link
        else:
            self.links[key] = link
        self._routes_changed()
        return link

    def _routes_changed(self) -> None:
        """Drop every cached route and endpoint path."""
        self._route_cache.clear()
        self.path_cache.clear()

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def fail_link(
        self, a: str, b: str, pause_agent: bool = False,
        now: float | None = None,
    ) -> None:
        """Mark the primary link a--b as failed (traffic uses secondaries).

        With ``pause_agent`` the link's agent is also paused, so bits
        already in flight on it stall until repair — the hang the
        resilience layer's timeouts are designed to rescue.  Default off
        to preserve the historical "re-route only" semantics.
        """
        key = self._key(a, b)
        if key not in self.links:
            raise KeyError(f"no primary link between {a!r} and {b!r}")
        self._failed.add(key)
        if pause_agent:
            self.links[key].fail(crash=False, now=now)
        self._routes_changed()

    def restore_link(self, a: str, b: str, now: float = 0.0) -> None:
        """Bring a failed primary link back into service."""
        key = self._key(a, b)
        self._failed.discard(key)
        link = self.links.get(key)
        if link is not None and link.paused:
            link.repair(now)
        self._routes_changed()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _usable_links(self) -> Dict[Tuple[str, str], NetworkLink]:
        usable = {k: v for k, v in self.links.items() if k not in self._failed}
        for k, v in self._secondary.items():
            # secondary links participate only while some primary is down
            if self._failed:
                usable.setdefault(k, v)
        return usable

    def route(self, src: str, dst: str) -> List[NetworkLink]:
        """Fewest-hop sequence of WAN links from src to dst."""
        if src == dst:
            return []
        links = self._route_cache.get((src, dst))
        if links is None:
            path = self._bfs(src, dst)
            usable = self._usable_links()
            links = [usable[self._key(a, b)] for a, b in zip(path, path[1:])]
            self._route_cache[(src, dst)] = links
        return list(links)

    def _bfs(self, src: str, dst: str) -> List[str]:
        usable = self._usable_links()
        adj: Dict[str, List[str]] = {}
        for (a, b) in usable:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        frontier = [src]
        parents: Dict[str, Optional[str]] = {src: None}
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                for nb in adj.get(node, ()):
                    if nb not in parents:
                        parents[nb] = node
                        nxt.append(nb)
            if dst in parents:
                break
            frontier = nxt
        if dst not in parents:
            raise KeyError(f"no route from {src!r} to {dst!r}")
        path = [dst]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # agent enumeration
    # ------------------------------------------------------------------
    def all_agents(self) -> List[Agent]:
        """Every agent in the infrastructure (for engine registration)."""
        agents: List[Agent] = []
        for dc in self.datacenters.values():
            agents.extend(dc.agents())
        agents.extend(self.links.values())
        agents.extend(self._secondary.values())
        return agents

    def datacenter(self, name: str) -> DataCenter:
        try:
            return self.datacenters[name]
        except KeyError:
            raise KeyError(
                f"unknown data center {name!r}; available: "
                f"{sorted(self.datacenters)}"
            ) from None

    def link_between(self, a: str, b: str) -> NetworkLink:
        """The primary link between two adjacent data centers."""
        return self.links[self._key(a, b)]
