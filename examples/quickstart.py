"""Quickstart: simulate a small data center serving a custom application.

Builds a two-tier data center, defines a toy "document portal"
application as a message cascade and runs it through the unified
:func:`repro.simulate` facade — the simulator's primary estimation loop
(thesis section 3.2.1) in three calls: build a topology, build an
application, ``simulate()``.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    Application,
    Collect,
    DataCenterSpec,
    GlobalTopology,
    MessageSpec,
    ObservabilityOptions,
    Operation,
    OperationMix,
    R,
    SANSpec,
    Scenario,
    TierSpec,
    WorkloadCurve,
    simulate,
)


def build_infrastructure() -> GlobalTopology:
    """One data center: a 2-server app tier and a SAN-backed file tier."""
    topo = GlobalTopology(seed=7)
    topo.add_datacenter(DataCenterSpec(
        name="DNA",
        tiers=(
            TierSpec("app", n_servers=2, cores_per_server=4, memory_gb=16.0),
            TierSpec("fs", n_servers=1, cores_per_server=4, memory_gb=16.0,
                     uses_san=True, nic_gbps=10.0),
        ),
        sans=(SANSpec(servers=1, n_disks=8, drive_rpm=15000),),
    ))
    return topo


def build_application() -> Application:
    """A two-operation portal: BROWSE (metadata) and FETCH (file body)."""
    browse = Operation("BROWSE", [
        MessageSpec("client", "app", r=R.of(cycles=6e9, net_kb=16)),
        MessageSpec("app", "client", r=R.of(net_kb=64)),
    ])
    fetch = Operation("FETCH", [
        MessageSpec("client", "app", r=R.of(cycles=1.5e9, net_kb=8)),
        MessageSpec("app", "client", r=R.of(net_kb=16)),
        MessageSpec("client", "fs", r=R.of(net_kb=8)),
        MessageSpec("fs", "client",
                    r=R.of(cycles=3e8, net_kb=20 * 1024, disk_kb=20 * 1024),
                    r_src=R.of(disk_kb=20 * 1024)),
    ])
    return Application(
        name="portal",
        operations={"BROWSE": browse, "FETCH": fetch},
        mix=OperationMix({"BROWSE": 0.7, "FETCH": 0.3}),
        workloads={"DNA": WorkloadCurve([300.0] * 24)},  # constant population
        ops_per_client_hour=12.0,
    )


def main() -> None:
    scenario = Scenario(
        name="portal",
        topology=build_infrastructure(),
        applications=[build_application()],
        seed=11,
    )

    until = 600.0  # ten simulated minutes
    app = scenario.applications[0]
    print(f"simulating {until:.0f} s of portal traffic "
          f"({app.workloads['DNA'].hourly[0]:.0f} logged clients)...")
    result = simulate(scenario, until=until,
                      observability=ObservabilityOptions(
                          collect=Collect(sample_interval=10.0)))

    print(f"\noperations completed: {len(result.records)}")
    stats = result.response_stats()
    for name in sorted(app.operations):
        if name in stats:
            row = stats[name]
            print(f"  {name:8s} n={row['n']:4.0f}  "
                  f"mean response {row['mean']:6.2f} s  "
                  f"max {row['max']:6.2f} s")
    cpu = [v for _, v in result.series("cpu.DNA.app")]
    print(f"\napp-tier CPU utilization: mean {100 * sum(cpu) / len(cpu):.1f} %  "
          f"peak {100 * max(cpu):.1f} %")


if __name__ == "__main__":
    main()
