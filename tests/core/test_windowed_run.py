"""A windowed run is one run: bit-exact against an uninterrupted one.

``Simulator.run_windowed`` stops the boundary loop at every window end
(where the sharded backend exchanges envelopes) but drains agents only
once, at the horizon.  Draining per window would split every busy
agent's busy-time sum at each window end and change its last ULP, so
the windowed run must equal ``run(until)`` under ``==`` — telemetry
floats included — in every kernel and exact stepping mode.
"""

from __future__ import annotations

import pytest

from repro.verification.parity import sharded_fleet_scenario

HORIZON = 6.0
WINDOW = 0.07  # 86 windows; the last one is shorter


def _session(kernel: str, mode: str, **kwargs):
    # the fleet's load comes from its setup hook, so a prepared session
    # runs with no workloads to start
    return sharded_fleet_scenario(2).prepare(kernel=kernel, mode=mode,
                                             **kwargs)


def _outputs(session):
    result = session.result(HORIZON)
    return result.records, result.telemetry()


@pytest.mark.parametrize("mode", ["event", "adaptive"])
@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_windowed_run_equals_uninterrupted_run(kernel, mode):
    whole = _session(kernel, mode)
    whole.sim.run(HORIZON)

    windowed = _session(kernel, mode, invariants="strict")
    checker = windowed.sim.invariants
    run_ends = []
    on_run_end = checker.on_run_end
    checker.on_run_end = lambda now, sim: (run_ends.append(now),
                                           on_run_end(now, sim))
    bounds = []
    n = windowed.sim.run_windowed(
        HORIZON, WINDOW, at_window_end=lambda t0, t1: bounds.append((t0, t1)))

    assert n == len(bounds) == 86
    assert bounds[0][0] == 0.0 and bounds[-1][1] == HORIZON
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    assert run_ends == [HORIZON]
    assert not checker.violations

    whole_records, whole_telemetry = _outputs(whole)
    records, telemetry = _outputs(windowed)
    assert records == whole_records
    assert telemetry == whole_telemetry
    assert sum(t.busy_time > 0.0 for t in telemetry.values()) > 10
