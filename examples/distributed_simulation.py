"""Distributed (sharded) simulation demo (thesis section 9.3.1).

The consolidation fleet — a master data center plus regional DCs with
cross-DC control cascades — runs twice: once in a single process and
once cut into two shards, each in its own OS process, under
``simulate(parallel=ParallelOptions(workers=2))``.  The shards advance
in conservative windows bounded by the smallest cross-shard WAN latency
(the *lookahead*): within a window no message sent by one shard can
reach another, so the shards only exchange envelopes at window
boundaries.

The demo prints the backend's window and envelope counts and then
checks that the sharded run is equivalent to the single-process one:
identical operation records, traced cascades (the control cascades
cross the cut), sampled series and per-agent telemetry, busy-time
floats included.

Run:  python examples/distributed_simulation.py
"""

from __future__ import annotations

import time

from repro import Collect, ObservabilityOptions, ParallelOptions, simulate
from repro.metrics.report import format_table
from repro.verification.parity import sharded_fleet_scenario

REGIONS = 2
HORIZON = 10.0
SAMPLE_INTERVAL = 2.0


def run(parallel):
    t0 = time.perf_counter()
    result = simulate(sharded_fleet_scenario(REGIONS), until=HORIZON,
                      observability=ObservabilityOptions(
                          collect=Collect(sample_interval=SAMPLE_INTERVAL),
                          trace="full"),
                      parallel=parallel)
    return result, time.perf_counter() - t0


def outputs(result):
    """What the two runs must agree on, by name."""
    return {
        "records": sorted((r.operation, r.start, r.end, r.failed)
                          for r in result.records),
        "cascades": sorted((c.cascade_id, c.operation, c.client_dc,
                            c.start, c.end, c.failed)
                           for c in result.cascades()),
        "series": {name: result.collector.series(name)
                   for name in sorted(result.collector._probes)},
        "telemetry": result.telemetry(),
    }


def main() -> None:
    single, wall_single = run(None)
    sharded, wall_sharded = run(ParallelOptions(workers=2))
    rep = sharded.parallel

    print(format_table(
        ["shard", "data centers"],
        [[str(i), ", ".join(s)] for i, s in enumerate(rep.shards)],
        title=f"{REGIONS}-region fleet cut into {rep.workers} shards "
              f"({rep.cut} cut)"))
    print(f"lookahead {1000 * rep.lookahead:.0f} ms, "
          f"window {1000 * rep.window:.0f} ms: "
          f"{rep.windows_run} windows over {HORIZON:.0f} s, "
          f"{rep.envelopes} cross-shard envelopes")
    print(f"wall: single process {wall_single:.2f} s, "
          f"{rep.workers} workers {wall_sharded:.2f} s "
          f"({rep.cores} core(s) visible; process startup dominates at "
          "this scale)\n")

    a, b = outputs(single), outputs(sharded)
    rows = []
    for name in a:
        rows.append([name, len(a[name]),
                     "ok" if a[name] == b[name] else "MISMATCH"])
    rows.append(["cross-shard envelopes", rep.envelopes,
                 "ok" if rep.envelopes > 0 else "MISMATCH"])
    print(format_table(["output", "entries", "sharded == single"], rows,
                       title="sharded vs single process"))
    failed = [row[0] for row in rows if row[2] != "ok"]
    if failed:
        raise SystemExit(f"sharded run diverged: {', '.join(failed)}")


if __name__ == "__main__":
    main()
