"""Command-line interface: ``python -m repro <command>``.

Gives operators the thesis's headline evaluations without writing code:

* ``validate``      — a chapter 5 experiment, physical vs simulated
* ``consolidation`` — the chapter 6 consolidated-platform report
* ``multimaster``   — the chapter 7 multiple-master comparison
* ``attack``        — the DoS / admission-control evaluation (Fig 1-1 #7)
* ``resilience-drill`` — MTBF sweep: policies off vs timeouts/retries/failover
* ``trace``         — latency waterfalls + Chrome trace export
* ``compare``       — diff two metric snapshots, nonzero exit on regression
* ``export``        — write a case-study scenario as a JSON document
* ``info``          — library and model inventory
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.metrics.report import format_table
from repro.metrics.viz import hourly_chart


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"GDISim reproduction v{__version__}")
    print("Herrero-Lopez, 'Large-Scale Simulator for Global Data "
          "Infrastructure Optimization' (MIT, 2011)")
    rows = [
        ["repro.core", "discrete time loop, agents/holons, branches"],
        ["repro.queueing", "FCFS / PSk / fork-join + closed forms"],
        ["repro.hardware", "CPU, memory, NIC, switch, link, RAID, SAN"],
        ["repro.topology", "servers, tiers, data centers, WAN routing"],
        ["repro.software", "R arrays, cascades, CAD/VIS/PDM, workloads"],
        ["repro.background", "SYNCHREP, INDEXBUILD, ownership, catalog"],
        ["repro.parallel", "ports, scatter-gather, H-Dispatch, sharding"],
        ["repro.fluid", "analytic 24h solver for the case studies"],
        ["repro.reliability", "failure injection, availability metrics"],
        ["repro.resilience", "timeouts/retries, breakers, health failover"],
        ["repro.validation", "chapter 5 experiments, RMSE pipeline"],
        ["repro.studies", "chapters 6/7 + attack protection"],
        ["repro.baselines", "MDCSim / Urgaonkar comparators"],
        ["repro.observability", "cascade tracing, telemetry, profiling"],
        ["repro.api", "simulate() facade over scenarios"],
    ]
    print(format_table(["package", "contents"], rows))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validation import EXPERIMENTS, run_experiment
    from repro.validation.experiments import rmse_table

    spec = EXPERIMENTS[args.experiment - 1]
    print(f"running {spec.label} ({args.until:.0f}s horizon) on both "
          "systems...")
    kw = dict(until=args.until, launch_until=args.until * 0.92,
              steady_window=(min(300.0, args.until * 0.3),
                             args.until * 0.9))
    phys = run_experiment(spec, physical=True, **kw)
    sim = run_experiment(spec, physical=False,
                         metrics="on" if args.metrics_out else None, **kw)
    rows = []
    for tier in ("app", "db", "fs", "idx"):
        p, s = phys.steady_cpu_stats(tier), sim.steady_cpu_stats(tier)
        rows.append([f"T{tier}", f"{100 * p.mean:.1f}%", f"{100 * s.mean:.1f}%"])
    rows.append(["#clients", f"{phys.steady_client_stats().mean:.1f}",
                 f"{sim.steady_client_stats().mean:.1f}"])
    print(format_table(["measurement", "physical", "simulated"], rows,
                       title="steady-state comparison"))
    table = rmse_table({spec.name: {"physical": phys, "simulated": sim}})
    print("\nRMSE: " + "  ".join(
        f"{k}={v:.1f}%" for k, v in table[spec.name].items()))
    if args.metrics_out:
        sim.metrics.write_snapshot(args.metrics_out, meta={
            "scenario": spec.name, "until": args.until})
        print(f"wrote the simulated run's metrics to {args.metrics_out}")
    return 0


def _cmd_consolidation(args: argparse.Namespace) -> int:
    from repro.studies.consolidation import ConsolidationStudy

    study = ConsolidationStudy()
    curves = study.dna_cpu_curves()
    print(hourly_chart(
        [(f"T{tier}", values) for tier, values in curves.items()],
        title="DNA tier CPU utilization through the day (Fig 6-12)",
        as_percent=True,
    ))
    print()
    table = study.link_utilization_table()
    print(format_table(
        ["link", "util 12:00-16:00"],
        [[k, f"{100 * v:.0f}%"] for k, v in sorted(table.items())],
        title="WAN occupancy of the 20% allocation (Table 6.1)"))
    day = study.background_day()
    print(f"\nR_SR^max = {day.max_staleness() / 60:.1f} min, "
          f"R_IB^max = {day.max_unsearchable() / 60:.1f} min (Fig 6-14)")

    from repro.studies.requirements import verify_consolidation

    report = verify_consolidation(study)
    print("\n" + format_table(
        ["requirement", "measured", "bound", "verdict"], report.rows(),
        title="section 6.3.3 platform requirements"))
    print("\noverall: " + ("PASS" if report.passed else "FAIL"))
    return 0 if report.passed else 1


def _cmd_multimaster(args: argparse.Namespace) -> int:
    from repro.studies.consolidation import ConsolidationStudy
    from repro.studies.multimaster import MultiMasterStudy

    ch6, ch7 = ConsolidationStudy(), MultiMasterStudy()
    day6, day7 = ch6.background_day(), ch7.background_day("DNA")
    curves6 = ch6.pull_push_curves()
    n = len(next(iter(curves6.values())))
    peak6 = max(sum(s[i] for s in curves6.values()) for i in range(n))
    rows = [
        ["R_SR^max", f"{day6.max_staleness() / 60:.1f} min",
         f"{day7.max_staleness() / 60:.1f} min"],
        ["R_IB^max", f"{day6.max_unsearchable() / 60:.1f} min",
         f"{day7.max_unsearchable() / 60:.1f} min"],
        ["DNA peak MB/cycle", f"{peak6:.0f}",
         f"{ch7.peak_cycle_volume('DNA'):.0f}"],
    ]
    print(format_table(
        ["metric", "single master (ch.6)", "multi master (ch.7)"], rows,
        title="data-ownership optimization (chapter 7)"))
    peaks = ch7.cpu_peaks()
    print(format_table(
        ["master", "Tapp peak", "Tdb peak"],
        [[dc, f"{100 * p['app']:.0f}%", f"{100 * p['db']:.0f}%"]
         for dc, p in peaks.items()],
        title="per-master CPU peaks (section 7.4.1)"))
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.studies.attack import FloodScenario

    scenario = FloodScenario(flood_rate=args.flood_rate)
    outcomes = scenario.evaluate()
    rows = [[name, f"{o.legit_before:.2f}s", f"{o.legit_during:.2f}s",
             f"{100 * o.peak_app_utilization:.0f}%",
             f"{o.flood_dropped}/{o.flood_requests}"]
            for name, o in outcomes.items()]
    print(format_table(
        ["branch", "R before", "R during", "peak Tapp", "flood dropped"],
        rows, title=f"flood at {scenario.flood_rate:.0f} req/s vs "
                    f"{scenario.admission_rate:.0f} req/s admission control"))
    return 0


def _cmd_resilience_drill(args: argparse.Namespace) -> int:
    from repro.studies.degraded import DegradedStudy

    mtbf_values = tuple(args.mtbf) if args.mtbf else None
    study = DegradedStudy(horizon=args.until)
    outcomes = study.sweep(mtbf_values)
    rows = []
    for o in outcomes:
        res = o.resilience
        extra = (f"{res.get('retries', 0)}/{res.get('timeouts', 0)}"
                 f"/{res.get('shed', 0)}" if res else "-")
        rows.append([
            f"{o.mtbf_s:.0f}s", o.policy, str(o.operations),
            f"{100 * o.availability:.1f}%", f"{o.goodput_per_s:.2f}/s",
            f"{o.p99_s:.2f}s", str(o.stuck), str(o.server_failures), extra,
        ])
    print(format_table(
        ["MTBF", "policy", "ops", "avail", "goodput", "P99", "stuck",
         "crashes", "retr/tmo/shed"],
        rows,
        title=f"degraded-mode sweep ({args.until:.0f}s horizon, "
              f"MTTR {study.mttr_s:.0f}s)"))
    resilient = [o for o in outcomes if o.policy == "resilient"]
    if any(o.stuck for o in resilient):
        print("\nFAIL: resilient cells left cascades in flight")
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.api import EngineOptions, fluid_waterfall, simulate
    from repro.fluid.spans import synthesize_spans
    from repro.observability.exporters import write_chrome_trace
    from repro.software.workload import HOUR

    if args.des:
        return _cmd_trace_des(args)

    res = simulate(args.study, engine=EngineOptions(mode="fluid"))
    apps = {a.name: a for a in res.scenario.applications}
    if args.app not in apps:
        print(f"repro trace: error: unknown application {args.app!r}; "
              f"available: {', '.join(sorted(apps))}", file=sys.stderr)
        return 2
    app = apps[args.app]
    if args.operation and args.operation not in app.operations:
        print(f"repro trace: error: application {app.name!r} has no "
              f"operation {args.operation!r}; available: "
              f"{', '.join(sorted(app.operations))}", file=sys.stderr)
        return 2
    op_names = ([args.operation] if args.operation
                else [n for n in app.operations
                      if app.mix.fraction(n) > 0])
    cascades, spans = [], []
    origin = 0.0
    for op_name in op_names:
        print(fluid_waterfall(res, app.name, op_name, args.client_dc,
                              hour=args.hour))
        print()
        cascade, chain = synthesize_spans(
            res.fluid, app, op_name, args.client_dc, args.hour * HOUR,
            origin=origin)
        cascades.append(cascade)
        spans.extend(chain)
        origin = cascade.end + 1.0
        rt = res.fluid.response_time(app, op_name, args.client_dc,
                                     args.hour * HOUR)
        total = sum(s.duration for s in chain)
        if abs(total - rt) > 0.01 * rt:
            print(f"WARNING: waterfall total {total:.4f}s deviates from "
                  f"response-time pipeline {rt:.4f}s")
            return 1
    n = write_chrome_trace(args.out, spans, cascades)
    print(f"wrote {n} Chrome trace events ({len(cascades)} operations) "
          f"to {args.out} — open in chrome://tracing or ui.perfetto.dev")
    return 0


def _cmd_trace_des(args: argparse.Namespace) -> int:
    """DES capture: run a scaled-down scenario with full tracing."""
    from repro.api import ObservabilityOptions, Scenario, simulate
    from repro.observability.exporters import telemetry_table

    scenario = Scenario.from_spec(args.study)
    scenario.scale = args.scale
    res = simulate(scenario, until=args.des,
                   observability=ObservabilityOptions(trace="full"))
    print(f"{len(res.records)} operations, {len(res.spans())} spans, "
          f"{len(res.cascades())} traced cascades at scale {args.scale}")
    ops = sorted({c.operation for c in res.cascades()})
    for op_name in ops if not args.operation else [args.operation]:
        print()
        print(res.waterfall(op_name))
    n = res.write_chrome_trace(args.out)
    print(f"\nwrote {n} Chrome trace events to {args.out}")
    tel = {name: t for name, t in res.telemetry().items() if t.arrivals > 0}
    print()
    print(telemetry_table(tel, limit=12))
    return 0


def _parse_metric_tolerances(specs, prog: str):
    """Parse repeated ``FRAGMENT=FLOAT`` overrides; None on bad input."""
    overrides = {}
    for spec in specs or ():
        fragment, _, value = spec.partition("=")
        if not fragment or not value:
            print(f"{prog}: error: --metric-tolerance expects "
                  f"FRAGMENT=FLOAT, got {spec!r}", file=sys.stderr)
            return None
        try:
            tolerance = float(value)
        except ValueError:
            tolerance = float("nan")
        # NaN compares false with every delta and would turn the gate off
        if not tolerance >= 0.0:
            print(f"{prog}: error: bad tolerance in {spec!r} (expects a "
                  "non-negative number)", file=sys.stderr)
            return None
        overrides[fragment] = tolerance
    return overrides


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.observability.compare import compare_paths

    overrides = _parse_metric_tolerances(args.metric_tolerance,
                                         "repro compare")
    if overrides is None:
        return 2
    if not args.tolerance >= 0.0:  # negative or NaN, as above
        print(f"repro compare: error: bad --tolerance {args.tolerance!r} "
              "(expects a non-negative number)", file=sys.stderr)
        return 2
    try:
        report, code = compare_paths(
            args.baseline, args.candidate,
            tolerance=args.tolerance, overrides=overrides,
        )
    except (OSError, ValueError) as exc:
        print(f"repro compare: error: {exc}", file=sys.stderr)
        return 2
    print(report.table(include_ok=args.verbose))
    if code == 2:
        print("repro compare: error: no comparable metrics between the "
              "two documents (different kinds?)", file=sys.stderr)
    return code


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from repro.verification import run_sweeps

    overrides = _parse_metric_tolerances(args.metric_tolerance,
                                         "repro verify")
    if overrides is None:
        return 2
    replications = args.replications
    horizon = args.horizon
    if args.quick:
        replications = min(replications, 3)
        horizon = min(horizon, 300.0)
    report = run_sweeps(
        replications=replications, horizon=horizon,
        base_seed=args.seed, rate_fault=args.rate_fault,
        kernel=args.kernel, tolerance_overrides=overrides,
    )
    print(report.table())
    if args.verbose:
        print()
        print(report.comparison.table(include_ok=True))
    code = report.exit_code
    document = report.to_document()
    if not args.no_parallel:
        from repro.verification.oracles import run_case_parallel

        outcome = run_case_parallel(
            args.parallel_case, workers=args.parallel_workers,
            replications=replications, horizon=horizon,
            base_seed=args.seed, rate_fault=args.rate_fault,
            kernel=args.kernel,
        )
        document["parallel_oracle"] = outcome.to_row()
        verdict = "ok" if outcome.passed else "FAIL"
        merged = outcome.metrics.counter(
            "oracle_replications_total", case=args.parallel_case).value
        print(f"parallel-oracle {args.parallel_case:<16} "
              f"workers={outcome.workers} merged_reps={merged:g} "
              f"sharded==serial gate: {verdict}")
        if not outcome.passed:
            code = 1
    if args.parity:
        from repro.verification import (
            check_sharded,
            check_storage,
            check_windows,
        )

        results = check_windows(kernel=args.kernel)
        document["parity"] = [r.to_row() for r in results]
        for r in results:
            verdict = "ok" if r.identical else "FAIL"
            print(f"parity {r.scenario:<24} until={r.until:g} "
                  f"records={r.records} event==adaptive: {verdict}")
            if not r.identical:
                print(f"  mismatched: {', '.join(r.mismatches)}")
                code = 1
        for remote, key in ((True, "parity_sharded"),
                            (False, "parity_sharded_no_receivers")):
            sharded = check_sharded(
                n_regions=2 if args.quick else 4,
                until=6.0 if args.quick else 10.0,
                kernel=args.kernel, remote=remote,
            )
            document[key] = sharded.to_row()
            verdict = "ok" if sharded.identical else "FAIL"
            print(f"parity {sharded.scenario:<24} until={sharded.until:g} "
                  f"sharded==single-process: {verdict}")
            if not sharded.identical:
                print(f"  mismatched: {', '.join(sharded.mismatches)}")
                code = 1
        storage = check_storage(n_regions=2 if args.quick else 4,
                                until=6.0 if args.quick else 10.0,
                                kernel=args.kernel)
        document["parity_storage"] = storage.to_row()
        verdict = "ok" if storage.identical else "FAIL"
        print(f"parity {storage.scenario:<24} until={storage.until:g} "
              f"closed-form==reference storage: {verdict}")
        if not storage.identical:
            print(f"  mismatched: {', '.join(storage.mismatches[:5])}")
            code = 1
    if args.invariants:
        from repro.api import (
            Collect,
            EngineOptions,
            ObservabilityOptions,
            simulate,
        )
        from repro.core.errors import InvariantViolation

        try:
            result = simulate(
                "consolidation", until=args.invariant_until,
                engine=EngineOptions(kernel=args.kernel),
                observability=ObservabilityOptions(
                    invariants="strict",
                    collect=Collect(sample_interval=6.0)),
            )
            inv = result.invariant_report()
            document["invariants"] = inv
            print(f"invariants consolidation until="
                  f"{args.invariant_until:g}: "
                  f"{inv['boundaries']} boundaries checked, ok")
        except InvariantViolation as exc:
            document["invariants"] = {"ok": False, "error": str(exc)}
            print(f"invariants: VIOLATION: {exc}", file=sys.stderr)
            code = 1
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
        print(f"wrote verification report to {args.report}")
    return code


def _format_top(doc: dict) -> str:
    """Render one frame of the live sharded-run view."""
    until = float(doc.get("until", 0.0)) or 1.0
    watermark = float(doc.get("watermark", 0.0))
    pct = min(watermark / until, 1.0)
    header = (f"{doc.get('scenario', '?')}  [{doc.get('state', '?')}]  "
              f"t={watermark:.2f}/{until:g}s ({pct:.0%})  "
              f"windows={doc.get('windows_run', 0)}  "
              f"workers={doc.get('workers', 0)}")
    lines = [header,
             f"{'shard':>5} {'state':<9} {'watermark':>10} {'records':>8} "
             f"{'sent':>6} {'pending':>8} {'rss_mb':>7} {'age_s':>6}  dcs"]
    for row in doc.get("shards", []):
        age = row.get("age_s")
        lines.append(
            f"{row.get('shard', '?'):>5} {row.get('state', '?'):<9} "
            f"{row.get('watermark', 0.0):>10.2f} "
            f"{row.get('records', 0):>8d} {row.get('sent', 0):>6d} "
            f"{row.get('pending', 0):>8d} "
            f"{row.get('rss_kb', 0) / 1024.0:>7.1f} "
            f"{(f'{age:.0f}' if age is not None else '-'):>6}  "
            f"{','.join(row.get('dcs', []))}")
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live per-shard progress view over a supervisor status file.

    The file is the atomically-rewritten JSON that
    ``ParallelOptions(status_path=...)`` maintains during a sharded
    run; polling it never perturbs the simulation.
    """
    import json
    import time

    deadline = time.monotonic() + args.wait
    while True:
        try:
            with open(args.status, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            # not written yet (or mid-replace on a non-atomic FS)
            if args.once or time.monotonic() > deadline:
                print(f"repro top: no readable status at {args.status}",
                      file=sys.stderr)
                return 2
            time.sleep(min(args.refresh, 0.2))
            continue
        print(_format_top(doc))
        state = doc.get("state")
        if state == "error":
            return 1
        if state == "finished" or args.once:
            return 0
        time.sleep(args.refresh)
        print()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GDISim: global data infrastructure simulator",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library inventory").set_defaults(
        func=_cmd_info)

    p = sub.add_parser("validate", help="run a chapter 5 experiment")
    p.add_argument("--experiment", type=int, choices=(1, 2, 3), default=2)
    p.add_argument("--until", "--horizon", dest="until", type=float,
                   default=900.0,
                   help="simulated seconds (2280 = thesis length)")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="meter the simulated run and write its metrics "
                        "snapshot here (see BENCH_metrics.json)")
    p.set_defaults(func=_cmd_validate)

    sub.add_parser("consolidation",
                   help="chapter 6 consolidated-platform report"
                   ).set_defaults(func=_cmd_consolidation)
    sub.add_parser("multimaster",
                   help="chapter 7 multiple-master comparison"
                   ).set_defaults(func=_cmd_multimaster)

    p = sub.add_parser("attack", help="DoS / admission-control evaluation")
    p.add_argument("--flood-rate", type=float, default=60.0)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser(
        "resilience-drill",
        help="MTBF sweep: policies off vs timeouts/retries/failover")
    p.add_argument("--until", type=float, default=300.0,
                   help="simulated seconds per sweep cell")
    p.add_argument("--mtbf", type=float, action="append", default=None,
                   metavar="SECONDS",
                   help="server MTBF point (repeatable; default sweep "
                        "150/450/1350)")
    p.set_defaults(func=_cmd_resilience_drill)

    p = sub.add_parser("trace",
                       help="latency waterfalls + Chrome trace export")
    p.add_argument("study", choices=("consolidation", "multimaster"),
                   help="case-study scenario to trace")
    p.add_argument("--hour", type=float, default=15.0,
                   help="instant of the day to decompose (fluid mode)")
    p.add_argument("--app", default="CAD")
    p.add_argument("--operation", default=None,
                   help="one operation (default: every operation in the mix)")
    p.add_argument("--client-dc", default="DEU")
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace_event JSON output path")
    p.add_argument("--des", type=float, default=None, metavar="SECONDS",
                   help="capture real spans from a scaled-down DES run "
                        "instead of the fluid decomposition")
    p.add_argument("--scale", type=float, default=0.02,
                   help="client-population scale for --des")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("export",
                       help="write a case-study scenario as JSON")
    p.add_argument("path", help="output file")
    p.add_argument("--study", choices=("consolidation", "multimaster"),
                   default="consolidation")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser(
        "compare",
        help="diff two metric snapshots; nonzero exit on regression",
        description="Compare two metrics snapshots (JSON or JSONL, e.g. "
                    "BENCH_metrics.json against a fresh `repro validate "
                    "--metrics-out` run) and fail when a worse-direction "
                    "metric moves past tolerance.")
    p.add_argument("baseline", help="baseline snapshot (JSON or JSONL)")
    p.add_argument("candidate", help="candidate snapshot (JSON or JSONL)")
    p.add_argument("--tolerance", type=float, default=0.10,
                   help="relative tolerance before a change gates "
                        "(default 0.10)")
    p.add_argument("--metric-tolerance", action="append", metavar="FRAG=TOL",
                   help="per-metric override: any metric whose name "
                        "contains FRAG uses tolerance TOL (repeatable)")
    p.add_argument("--verbose", action="store_true",
                   help="also list within-tolerance rows")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "verify",
        help="differential verification against closed-form oracles",
        description="Sweep the exact queueing stations (FCFS, PSk, "
                    "fork-join, CPU/NIC/link/RAID) against the App. A "
                    "closed forms with replication confidence intervals; "
                    "nonzero exit when any oracle disagrees.")
    p.add_argument("--replications", type=int, default=4,
                   help="independent replications per sweep point")
    p.add_argument("--horizon", type=float, default=600.0,
                   help="simulated seconds per replication (scaled up "
                        "for slow-converging cases)")
    p.add_argument("--seed", type=int, default=20260806,
                   help="base seed for the replication streams")
    p.add_argument("--quick", action="store_true",
                   help="CI-PR sizing: at most 3 replications x 300 s")
    p.add_argument("--kernel", choices=("scalar", "vector"),
                   default="scalar",
                   help="how stations reach the engine: one agent "
                        "each (scalar) or one bank per tier (vector); "
                        "the stations and their results are the same")
    p.add_argument("--rate-fault", type=float, default=1.0,
                   help="deliberately scale every service rate (1.0 = "
                        "nominal; e.g. 0.7 demonstrates the gate "
                        "catching a 30%% service slowdown)")
    p.add_argument("--metric-tolerance", action="append", metavar="FRAG=TOL",
                   help="per-case override for the compare-style gate "
                        "(repeatable)")
    p.add_argument("--no-parallel", action="store_true",
                   help="skip the sharded-backend oracle gate (one case "
                        "re-run with multiprocess workers and merged "
                        "metrics; runs by default, including --quick)")
    p.add_argument("--parallel-case", default="mm1.rho60",
                   help="oracle case the sharded-backend gate re-runs")
    p.add_argument("--parallel-workers", type=int, default=2,
                   help="worker processes for the sharded-backend gate")
    p.add_argument("--parity", action="store_true",
                   help="also check event==adaptive parity on sampled "
                        "scenario windows, plus sharded==single-process "
                        "parity on a consolidation-fleet window, "
                        "and closed-form storage against the "
                        "event-by-event reference path")
    p.add_argument("--invariants", action="store_true",
                   help="also run the consolidation slice with the "
                        "strict runtime invariant checker armed")
    p.add_argument("--invariant-until", type=float, default=120.0,
                   help="horizon of the --invariants slice")
    p.add_argument("--report", metavar="PATH",
                   help="write the JSON verification report here")
    p.add_argument("--verbose", action="store_true",
                   help="also print the compare-style table")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "top",
        help="live per-shard progress of a sharded run",
        description="Watch the JSON status file a sharded run maintains "
                    "when ParallelOptions(status_path=...) is set: "
                    "fleet watermark plus per-shard state, records, "
                    "calendar backlog and RSS.  Exits 0 when the run "
                    "finishes, 1 on a worker error.")
    p.add_argument("status", help="status-file path (status_path=)")
    p.add_argument("--refresh", type=float, default=1.0,
                   help="seconds between frames (default 1.0)")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit")
    p.add_argument("--wait", type=float, default=10.0,
                   help="seconds to wait for the file to appear")
    p.set_defaults(func=_cmd_top)
    return parser


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.api import Scenario

    Scenario.from_spec(args.study).to_json(args.path)
    print(f"wrote the {args.study} scenario to {args.path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
