"""Capacity planning: size an application tier against an SLA.

One of the simulator's stated applications (thesis Fig 1-1): given a
workload forecast and a response-time SLA, find the smallest app-tier
server count that keeps the tier below a utilization ceiling and the
95th-percentile response time under the SLA.  Uses the fluid solver for
the sweep and confirms the chosen design point with a discrete-event
run, both through the :func:`repro.simulate` facade.

Run:  python examples/capacity_planning.py
"""

from __future__ import annotations

from repro import (
    Application,
    DataCenterSpec,
    EngineOptions,
    GlobalTopology,
    MessageSpec,
    Operation,
    OperationMix,
    R,
    Scenario,
    SingleMasterPlacement,
    TierSpec,
    WorkloadCurve,
    simulate,
)

SLA_SECONDS = 4.0
UTILIZATION_CEILING = 0.70
PEAK_CLIENTS = 2400.0


def build_topology(app_servers: int) -> GlobalTopology:
    topo = GlobalTopology(seed=3)
    topo.add_datacenter(DataCenterSpec(
        name="DNA",
        tiers=(TierSpec("app", n_servers=app_servers, cores_per_server=4,
                        memory_gb=16.0),),
    ))
    return topo


def build_application(curve: WorkloadCurve | None = None) -> Application:
    op = Operation("QUERY", [
        MessageSpec("client", "app", r=R.of(cycles=7.5e9, net_kb=32)),
        MessageSpec("app", "client", r=R.of(net_kb=128)),
    ])
    if curve is None:
        curve = WorkloadCurve.business_hours(
            peak=PEAK_CLIENTS, start_hour=13.0, end_hour=22.0)
    return Application(
        name="analytics",
        operations={"QUERY": op},
        mix=OperationMix({"QUERY": 1.0}),
        workloads={"DNA": curve},
        ops_per_client_hour=10.0,
    )


def design_point(app_servers: int,
                 curve: WorkloadCurve | None = None) -> Scenario:
    return Scenario(
        name=f"analytics-{app_servers}",
        topology=build_topology(app_servers),
        applications=[build_application(curve)],
        placement=SingleMasterPlacement("DNA", local_fs=False),
        seed=5,
    )


def sweep() -> int:
    """Fluid sweep over tier sizes; returns the smallest passing size."""
    print(f"SLA: {SLA_SECONDS:.1f} s response, tier under "
          f"{100 * UTILIZATION_CEILING:.0f} % at the "
          f"{PEAK_CLIENTS:.0f}-client peak\n")
    print(f"{'servers':>8} {'peak util':>10} {'peak resp (s)':>14}  verdict")
    chosen = None
    for n in range(2, 13):
        result = simulate(design_point(n),
                          engine=EngineOptions(mode="fluid"))
        solver = result.fluid
        app = result.scenario.applications[0]
        peak_util = max(solver.tier_cpu_utilization("DNA", "app", h * 3600.0)
                        for h in range(24))
        peak_resp = max(solver.response_time(app, "QUERY", "DNA", h * 3600.0)
                        for h in range(24))
        ok = peak_util <= UTILIZATION_CEILING and peak_resp <= SLA_SECONDS
        print(f"{n:>8} {100 * peak_util:>9.1f}% {peak_resp:>14.2f}  "
              f"{'PASS' if ok else 'fail'}")
        if ok and chosen is None:
            chosen = n
    if chosen is None:
        raise SystemExit("no size in range met the SLA")
    return chosen


def confirm_with_des(app_servers: int) -> None:
    """Drive the chosen design point with the DES at the peak hour."""
    peak_curve = WorkloadCurve([PEAK_CLIENTS] * 24)
    result = simulate(design_point(app_servers, peak_curve), until=600.0)
    times = sorted(r.response_time for r in result.records)
    p95 = times[int(0.95 * len(times))]
    print(f"\nDES confirmation with {app_servers} servers at sustained peak: "
          f"{len(times)} queries, mean "
          f"{sum(times) / len(times):.2f} s, p95 {p95:.2f} s "
          f"({'within' if p95 <= SLA_SECONDS else 'OVER'} SLA)")


def main() -> None:
    chosen = sweep()
    print(f"\n-> smallest passing tier: {chosen} servers")
    confirm_with_des(chosen)


if __name__ == "__main__":
    main()
