"""Restoration points and what-if branches (thesis section 9.3.2).

Long simulations should not restart from scratch to explore a variant;
the thesis proposes restoration points and branching.  Cascades in
flight are plain request and message objects, but the calendar still
holds closures (workload arrivals, failure injection, background
processes), so byte-level snapshots are fragile; instead this module
provides *deterministic-replay* branching: a scenario is a pure
builder function from a :class:`ScenarioSpec` (seed + parameters) to a
ready-to-run world, and a branch replays the shared prefix before
diverging.  Because the engine is deterministic for a fixed seed
(guaranteed by the ordered active set and seeded RNGs), the replayed
prefix is bit-identical — the practical equivalent of a restoration
point in a pure-Python setting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generic, List, TypeVar

W = TypeVar("W")  # the world type produced by the builder


@dataclass(frozen=True)
class ScenarioSpec:
    """Identity of one deterministic run: a seed plus free parameters."""

    seed: int = 42
    params: tuple = ()  # hashable (name, value) pairs

    def with_params(self, **overrides: Any) -> "ScenarioSpec":
        merged = dict(self.params)
        merged.update(overrides)
        return ScenarioSpec(seed=self.seed, params=tuple(sorted(merged.items())))

    def get(self, name: str, default: Any = None) -> Any:
        return dict(self.params).get(name, default)


@dataclass
class BranchResult(Generic[W]):
    """Outcome of one branch: its spec, world, and measured values."""

    name: str
    spec: ScenarioSpec
    world: W
    metrics: Dict[str, float]
    wall_seconds: float


class ScenarioRunner(Generic[W]):
    """Runs branches of a scenario from a common restoration point.

    Parameters
    ----------
    builder:
        ``builder(spec) -> world``; must construct everything (topology,
        engine, workloads) from the spec alone — no hidden state.
    advance:
        ``advance(world, until)``; runs the world's engine.
    measure:
        ``measure(world) -> dict of scalar metrics``.
    """

    def __init__(
        self,
        builder: Callable[[ScenarioSpec], W],
        advance: Callable[[W, float], None],
        measure: Callable[[W], Dict[str, float]],
    ) -> None:
        self.builder = builder
        self.advance = advance
        self.measure = measure

    def run(self, spec: ScenarioSpec, until: float, name: str = "baseline"
            ) -> BranchResult[W]:
        """Run one branch to ``until`` and measure it."""
        t0 = time.perf_counter()
        world = self.builder(spec)
        self.advance(world, until)
        return BranchResult(
            name=name,
            spec=spec,
            world=world,
            metrics=self.measure(world),
            wall_seconds=time.perf_counter() - t0,
        )

    def branch(
        self,
        base_spec: ScenarioSpec,
        restore_at: float,
        until: float,
        variants: Dict[str, Dict[str, Any]],
        mutate: Callable[[W, Dict[str, Any], float], None],
    ) -> Dict[str, BranchResult[W]]:
        """Explore variants diverging at a restoration point.

        Each variant replays the common prefix (deterministically
        identical to the baseline up to ``restore_at``), applies its
        ``mutate(world, overrides, now)`` at the restoration point, and
        continues to ``until``.  A ``"baseline"`` branch with no
        mutation is always included.
        """
        if restore_at >= until:
            raise ValueError("the restoration point must precede the horizon")
        out: Dict[str, BranchResult[W]] = {}
        for name, overrides in {"baseline": {}, **variants}.items():
            t0 = time.perf_counter()
            world = self.builder(base_spec)
            self.advance(world, restore_at)  # shared, replayed prefix
            if overrides:
                mutate(world, overrides, restore_at)
            self.advance(world, until)
            out[name] = BranchResult(
                name=name,
                spec=base_spec.with_params(**overrides) if overrides else base_spec,
                world=world,
                metrics=self.measure(world),
                wall_seconds=time.perf_counter() - t0,
            )
        return out

    @staticmethod
    def compare(results: Dict[str, "BranchResult[W]"], metric: str
                ) -> List[tuple]:
        """(branch, value, delta-vs-baseline) rows for one metric."""
        if "baseline" not in results:
            raise KeyError("no baseline branch to compare against")
        base = results["baseline"].metrics[metric]
        rows = []
        for name, res in results.items():
            v = res.metrics[metric]
            rows.append((name, v, v - base))
        return rows
