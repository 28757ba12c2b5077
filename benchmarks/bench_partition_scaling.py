"""Section 9.3.1: sharded-window overhead and lookahead economics.

Runs the sharded fleet scenario on two worker processes while the
synchronization window shrinks below the plan's lookahead (the smallest
cross-shard WAN latency).  Every window ends in an envelope exchange
and a barrier, so the window count — and with it the coordination
overhead — grows as the window shrinks, while the simulated results
stay the same.  The lookahead itself is the largest window the
conservative protocol allows.
"""

from __future__ import annotations

import time

from repro.api import ParallelOptions, simulate
from repro.verification.parity import sharded_fleet_scenario

HORIZON = 10.0
REGIONS = 2
FRACTIONS = (1.0, 0.5, 0.25, 0.125)


def _run(window=None):
    t0 = time.perf_counter()
    result = simulate(sharded_fleet_scenario(REGIONS), until=HORIZON,
                      parallel=ParallelOptions(workers=2, window=window))
    return time.perf_counter() - t0, result


def _counts(result):
    """Per-agent arrival and completion counts: window-independent."""
    return {name: (t.arrivals, t.completions)
            for name, t in result.telemetry().items()}


def test_partition_scaling(benchmark, report):
    _, base = benchmark.pedantic(_run, rounds=1, iterations=1)
    lookahead = base.parallel.lookahead
    rows = []
    windows = []
    for frac in FRACTIONS:
        wall, result = _run(lookahead * frac)
        rep = result.parallel
        assert _counts(result) == _counts(base)
        windows.append(rep.windows_run)
        rows.append([f"{frac:g}", f"{1000 * rep.window:.1f} ms",
                     rep.windows_run, rep.envelopes,
                     f"{wall * 1000:.0f} ms",
                     f"{wall / rep.windows_run * 1e3:.2f} ms"])
    assert windows == sorted(windows)
    report(
        "Section 9.3.1 - sharded-window overhead vs window size "
        f"(2 workers, {REGIONS}-region fleet, {HORIZON:.0f} s horizon, "
        f"lookahead {1000 * lookahead:.0f} ms): fewer, larger windows "
        "amortize the exchange barrier",
        ["window / lookahead", "window", "windows", "envelopes",
         "total wall", "wall per window"],
        rows,
    )
