"""Reproduce the chapter 6 consolidation study end to end.

Builds the six-data-center consolidated Data Serving Platform of the
Fortune 500 case study — CAD/VIS/PDM workloads, data growth,
synchronization & replication and index-build daemons — and prints the
operator-facing report: tier utilizations, WAN link occupancy,
background-process effectiveness and client experience.

Run:  python examples/consolidation_study.py
"""

from __future__ import annotations

from repro import EngineOptions, simulate
from repro.api import fluid_waterfall
from repro.metrics.report import format_table


def main() -> None:
    print("building the consolidated infrastructure "
          "(6 DCs, master = DNA, transit hub AS1)...")
    result = simulate("consolidation", engine=EngineOptions(mode="fluid"))
    study = result.study

    # 1. computation (Fig 6-12 / 6-13)
    curves = study.dna_cpu_curves()
    rows = []
    for tier, curve in curves.items():
        peak_h = max(range(24), key=lambda h: curve[h])
        rows.append([f"T{tier}", f"{100 * curve[peak_h]:.1f}%", f"{peak_h}:00"])
    rows.append(["DAUS Tfs", f"{100 * max(study.daus_fs_curve()):.1f}%", "-"])
    print("\n" + format_table(["tier", "peak CPU", "peak hour (GMT)"], rows,
                              title="Computation performance (Fig 6-12/6-13)"))

    # 2. network (Table 6.1)
    table = study.link_utilization_table()
    rows = [[k, f"{100 * v:.0f}%"] for k, v in sorted(table.items())]
    print("\n" + format_table(
        ["link", "mean util 12:00-16:00"], rows,
        title="WAN occupancy of the 20% allocation (Table 6.1)"))

    # 3. background processes (Fig 6-14)
    day = study.background_day()
    print(f"\nBackground processes (Fig 6-14):")
    print(f"  R_SR^max  (max stale window)       : "
          f"{day.max_staleness() / 60:.1f} min")
    print(f"  R_IB^max  (max unsearchable window): "
          f"{day.max_unsearchable() / 60:.1f} min")

    # 4. client experience (Figs 6-15..6-20, Table 6.2)
    latency = study.latency_impact_table("DAUS")
    rows = [[op, f"{m['R_NA']:.1f}", f"{m['R_remote']:.1f}",
             f"{m['S']:.0f}", f"{m['delta_pct']:.0f}%"]
            for op, m in latency.items()]
    print("\n" + format_table(
        ["CAD operation", "R @DNA (s)", "R @DAUS (s)", "round trips",
         "latency penalty"],
        rows, title="Client experience: latency impact in DAUS (Table 6.2)"))

    # 5. where does the time go? (repro.observability waterfall)
    print("\n" + fluid_waterfall(result, "CAD", "OPEN", "DAUS", hour=15.0))

    verdict = "PASS" if max(max(c) for c in curves.values()) < 0.9 else "AT RISK"
    print(f"\nConsolidation verdict: {verdict} — the six-DC design absorbs "
          "the worldwide peak without saturating any tier, and background "
          "jobs keep files fresh within acceptable windows.")


if __name__ == "__main__":
    main()
