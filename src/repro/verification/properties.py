"""Hypothesis strategies for the property-based verification harness.

Strategies generate the simulator's input space — Kendall strings,
R-vectors, queueing stations, Poisson-ish workload bursts and message
cascades — and the test suite drives them through the
:class:`~repro.verification.invariants.InvariantChecker` as the
property: *no generated input may violate a conservation law*.

This module imports :mod:`hypothesis` lazily so ``repro.verification``
stays importable in runtimes without the test toolchain (the CLI and
the oracle harness have no hypothesis dependency).
"""

from __future__ import annotations

from typing import Any, List, Tuple

try:  # pragma: no cover - exercised implicitly by every import
    from hypothesis import strategies as st
except ImportError as _exc:  # pragma: no cover - CI always has hypothesis
    st = None
    _HYPOTHESIS_ERROR = _exc
else:
    _HYPOTHESIS_ERROR = None

from repro.queueing.kendall import KendallSpec
from repro.software.message import CLIENT, TIER_ROLES, MessageSpec
from repro.software.operation import Operation
from repro.software.resources import R


def _require_hypothesis() -> None:
    if st is None:  # pragma: no cover
        raise ImportError(
            "repro.verification.properties needs the 'hypothesis' package"
        ) from _HYPOTHESIS_ERROR


# ----------------------------------------------------------------------
# Kendall notation
# ----------------------------------------------------------------------
def kendall_specs() -> Any:
    """Valid :class:`KendallSpec` instances (str() must round-trip)."""
    _require_hypothesis()
    processes = st.sampled_from(("M", "D", "G", "GI", "E", "H"))
    maybe_int = st.one_of(st.none(), st.integers(1, 64))
    return st.builds(
        KendallSpec,
        arrival=processes,
        service=processes,
        servers=st.integers(1, 64),
        capacity=maybe_int,
        population=maybe_int,
        discipline=st.sampled_from(("FCFS", "LCFS", "PS", "SIRO", "RR")),
        discipline_cap=st.one_of(st.none(), st.integers(1, 32)),
        multiplicity=st.integers(1, 8),
    ).filter(
        # population without capacity is unrenderable in A/B/C/K/N order
        lambda s: not (s.population is not None and s.capacity is None)
    )


def kendall_strings() -> Any:
    """Parseable Kendall strings, including whitespace variation."""
    _require_hypothesis()

    def render(spec_pad: Tuple[KendallSpec, bool]) -> str:
        spec, spaced = spec_pad
        text = str(spec)
        return text.replace(" ", "  ") if spaced else text.replace(" ", "")

    return st.tuples(kendall_specs(), st.booleans()).map(render)


# ----------------------------------------------------------------------
# R-vectors and messages
# ----------------------------------------------------------------------
def r_vectors(max_cycles: float = 1e9, max_bits: float = 1e8,
              max_bytes: float = 1e8) -> Any:
    """Non-negative resource vectors within simulator-realistic bounds."""
    _require_hypothesis()
    nonneg = lambda hi: st.floats(  # noqa: E731 - local shorthand
        min_value=0.0, max_value=hi, allow_nan=False, allow_infinity=False)
    return st.builds(
        R,
        cycles=nonneg(max_cycles),
        net_bits=nonneg(max_bits),
        mem_bytes=nonneg(max_bytes),
        disk_bytes=nonneg(max_bytes),
    )


def message_specs() -> Any:
    """Messages between the client and tier roles, with small R costs."""
    _require_hypothesis()
    roles = st.sampled_from((CLIENT,) + TIER_ROLES)
    small_r = r_vectors(max_cycles=5e7, max_bits=2e6, max_bytes=2e6)
    return st.builds(
        MessageSpec, src=roles, dst=roles, r=small_r, r_src=small_r,
    ).filter(lambda m: m.src != m.dst)


def operations(max_messages: int = 5) -> Any:
    """Small client-initiated cascades over the four-tier roles."""
    _require_hypothesis()
    return st.builds(
        Operation,
        name=st.sampled_from(("OP_A", "OP_B", "OP_C")),
        messages=st.lists(message_specs(), min_size=1,
                          max_size=max_messages),
        initiator=st.just(CLIENT),
    )


# ----------------------------------------------------------------------
# workloads and stations
# ----------------------------------------------------------------------
def workload_bursts(max_jobs: int = 40, horizon: float = 50.0,
                    max_demand: float = 4.0) -> Any:
    """Sorted ``(arrival_time, demand)`` pairs within a short horizon."""
    _require_hypothesis()
    pair = st.tuples(
        st.floats(min_value=0.0, max_value=horizon, allow_nan=False,
                  allow_infinity=False),
        st.floats(min_value=0.0, max_value=max_demand, allow_nan=False,
                  allow_infinity=False),
    )
    return st.lists(pair, min_size=1, max_size=max_jobs).map(sorted)


def station_factories() -> Any:
    """Factories for submit-fed leaf stations (fresh agent per example)."""
    _require_hypothesis()
    from repro.queueing.fcfs import FCFSQueue
    from repro.queueing.ps import PSQueue

    def fcfs(servers: int) -> Any:
        return lambda: FCFSQueue("prop.fcfs", rate=1.0, servers=servers)

    def ps(k: Any, latency: float) -> Any:
        return lambda: PSQueue("prop.ps", rate=1.0, k=k, latency=latency)

    return st.one_of(
        st.integers(1, 4).map(fcfs),
        st.tuples(
            st.one_of(st.none(), st.integers(1, 4)),
            st.sampled_from((0.0, 0.01)),
        ).map(lambda t: ps(*t)),
    )


def scenario_shapes() -> Any:
    """Small end-to-end scenario shapes: operations plus launch times.

    Kept structural (no topology objects) so shrinking stays fast; the
    test binds a shape to the shared single-DC topology fixture.
    """
    _require_hypothesis()
    return st.tuples(
        st.lists(operations(), min_size=1, max_size=3),
        st.lists(st.floats(min_value=0.0, max_value=30.0,
                           allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=6).map(sorted),
    )


# ----------------------------------------------------------------------
# scalar vs batched kernel lockstep
# ----------------------------------------------------------------------
def drive_station(
    factory: Any,
    bursts: List[Tuple[float, float]],
    *,
    kernel: str = "scalar",
    mode: str = "event",
) -> Tuple[List[Tuple[int, float]], float]:
    """Drive a fresh station through one arrival/demand sequence.

    Builds the station from ``factory``, registers it either as its own
    scalar engine agent or behind the batched substrate
    (``kernel="vector"``), submits one job per ``(arrival, demand)``
    burst and runs to drain.  Returns ``(completions, busy_time)``
    where ``completions`` lists ``(arrival_index, completion_time)`` in
    completion order — the observable the lockstep property compares,
    bit for bit, between the kernels and the reference station.

    This is the runner half of the property harness: it has no
    hypothesis dependency, so targeted regressions can replay a failing
    sequence directly.
    """
    from repro.core.engine import Simulator
    from repro.core.job import Job

    station = factory()
    sim = Simulator(dt=0.01, mode=mode)
    if kernel == "vector":
        from repro.queueing.soa import vectorize_agents

        vectorize_agents(sim, [station], name="prop")
    else:
        sim.add_agent(station)
    completions: List[Tuple[int, float]] = []
    for i, (t, d) in enumerate(bursts):
        def fire(now: float, i: int = i, d: float = d) -> None:
            station.submit(
                Job(d, on_complete=lambda _j, tc, i=i:
                    completions.append((i, tc))),
                now,
            )
        sim.schedule(t, fire)
    last = max(t for t, _ in bursts)
    total = sum(d for _, d in bursts)
    sim.run(last + total / station.rate + 10.0)
    return completions, station.busy_time


def kernel_lockstep(
    factory: Any,
    bursts: List[Tuple[float, float]],
    *,
    mode: str = "event",
) -> Tuple[Tuple[List[Tuple[int, float]], float],
           Tuple[List[Tuple[int, float]], float]]:
    """Run the same sequence under both kernels (fresh station each)."""
    return (
        drive_station(factory, bursts, kernel="scalar", mode=mode),
        drive_station(factory, bursts, kernel="vector", mode=mode),
    )


__all__ = [
    "kendall_specs",
    "kendall_strings",
    "r_vectors",
    "message_specs",
    "operations",
    "workload_bursts",
    "station_factories",
    "scenario_shapes",
    "drive_station",
    "kernel_lockstep",
]
