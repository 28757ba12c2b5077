"""Background-job optimization: tune the SYNCHREP interval and compare
single- vs multiple-master designs (chapters 6/7).

Sweeps the synchronization interval dT_SR against the maximum stale
window R_SR^max (too-frequent jobs load the network; infrequent jobs
serve stale files — thesis section 6.3.3), then quantifies the
multiple-master improvement of chapter 7.

Run:  python examples/background_job_tuning.py
"""

from __future__ import annotations

from repro import EngineOptions, simulate
from repro.background.indexbuild import IndexBuildConfig
from repro.background.synchrep import SynchRepConfig
from repro.fluid.background import BackgroundSolver
from repro.metrics.report import format_table
from repro.studies.consolidation import MASTER, ConsolidationStudy


def sweep_sr_interval(study: ConsolidationStudy) -> None:
    rows = []
    for minutes in (5, 10, 15, 30, 60):
        solver = BackgroundSolver(
            study.fluid, study.growth,
            sr_configs=[SynchRepConfig(master=MASTER,
                                       interval_s=minutes * 60.0)],
            ib_configs=[IndexBuildConfig(master=MASTER)],
        )
        day = solver.solve_day(MASTER)
        longest = max(r.duration for r in day.sr_runs) / 60.0
        rows.append([f"{minutes} min", f"{longest:.1f} min",
                     f"{day.max_staleness() / 60:.1f} min"])
    print(format_table(
        ["dT_SR", "longest run", "R_SR^max (stale window)"], rows,
        title="SYNCHREP interval sweep (consolidated infrastructure)"))
    print("-> short intervals keep files fresh but the cycles overlap under "
          "load;\n   long intervals idle the network but serve stale files "
          "for an hour.\n")


def compare_designs() -> None:
    fluid = EngineOptions(mode="fluid")
    ch6 = simulate("consolidation", engine=fluid).study
    ch7 = simulate("multimaster", engine=fluid).study
    day6 = ch6.background_day()
    day7 = ch7.background_day("DNA")
    rows = [
        ["R_SR^max", f"{day6.max_staleness() / 60:.1f} min",
         f"{day7.max_staleness() / 60:.1f} min"],
        ["R_IB^max", f"{day6.max_unsearchable() / 60:.1f} min",
         f"{day7.max_unsearchable() / 60:.1f} min"],
    ]
    curves6 = ch6.pull_push_curves()
    n = len(next(iter(curves6.values())))
    peak6 = max(sum(s[i] for s in curves6.values()) for i in range(n))
    peak7 = ch7.peak_cycle_volume("DNA")
    rows.append(["DNA peak MB/cycle", f"{peak6:.0f}", f"{peak7:.0f}"])
    print(format_table(
        ["metric", "single master (ch.6)", "multiple masters (ch.7)"],
        rows, title="Design comparison: data ownership pays off"))
    print("-> splitting ownership by access locality (Table 7.2) cuts the "
          "master's\n   transfer volume roughly in half and shrinks both "
          "service windows,\n   at the cost of eventual (not timeline) "
          "consistency for the search index.")


def main() -> None:
    study = simulate("consolidation",
                     engine=EngineOptions(mode="fluid")).study
    sweep_sr_interval(study)
    compare_designs()


if __name__ == "__main__":
    main()
