"""Runtime invariant checker: wiring, detection and non-perturbation."""

import pytest

from repro.api import Collect, ObservabilityOptions, simulate
from repro.core import Job, Simulator
from repro.core.errors import InvariantViolation
from repro.queueing import FCFSQueue
from repro.verification import (
    ALL_CHECKS,
    DEFAULT_CHECKS,
    InvariantChecker,
    make_checker,
)


# ----------------------------------------------------------------------
# factory / wiring
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", [None, False, "null", "off", "none", ""])
def test_off_specs_build_no_checker(spec):
    assert make_checker(spec) is None


@pytest.mark.parametrize("spec", [True, "on", "strict", "true"])
def test_strict_specs(spec):
    checker = make_checker(spec)
    assert checker.mode == "strict"
    assert checker.checks == frozenset(DEFAULT_CHECKS)


def test_warn_full_dict_and_passthrough_specs():
    assert make_checker("warn").mode == "warn"
    full = make_checker("full")
    assert full.checks == frozenset(ALL_CHECKS)
    assert full.fingerprint_every > 0
    custom = make_checker({"mode": "warn", "checks": ("monotone",)})
    assert custom.checks == frozenset(("monotone",))
    prebuilt = InvariantChecker(mode="warn")
    assert make_checker(prebuilt) is prebuilt


def test_bad_specs_are_rejected():
    with pytest.raises(ValueError):
        make_checker("shouty")
    with pytest.raises(TypeError):
        make_checker(3.14)
    with pytest.raises(ValueError):
        InvariantChecker(mode="loud")
    with pytest.raises(ValueError):
        InvariantChecker(checks=("monotone", "vibes"))


def test_unchecked_simulator_holds_no_checker():
    sim = Simulator(dt=0.01)
    assert sim.invariants is None
    result = simulate("consolidation", until=30.0)
    assert result.invariant_report() is None


# ----------------------------------------------------------------------
# detection (each check catches its seeded corruption)
# ----------------------------------------------------------------------
def _checked_sim(mode="warn", checks=None):
    sim = Simulator(dt=0.01, invariants=InvariantChecker(
        mode=mode, checks=checks))
    q = sim.add_agent(FCFSQueue("q", rate=1.0))
    sim.add_monitor(1.0, lambda now: None)
    return sim, q


def test_clean_run_reports_ok():
    sim, q = _checked_sim(mode="strict")
    sim.schedule(0.5, lambda now: q.submit(Job(0.3), now))
    sim.run(5.0)
    rep = sim.invariants.report()
    assert rep["ok"] and not rep["violations"]
    assert rep["boundaries"] >= 5
    assert sim.invariants.ok


def test_monotone_catches_agent_clock_ahead_of_engine():
    sim, q = _checked_sim()

    def corrupt(now):
        q.local_time = now + 1000.0

    sim.schedule(1.5, corrupt)
    sim.run(4.0)
    assert any(v.check == "monotone" and "ahead" in v.detail
               for v in sim.invariants.violations)


def test_non_negative_catches_lying_queue_length():
    class LyingQueue(FCFSQueue):
        def queue_length(self):
            return -1

    sim = Simulator(dt=0.01, invariants=InvariantChecker(mode="warn"))
    sim.add_agent(LyingQueue("liar", rate=1.0))
    sim.add_monitor(1.0, lambda now: None)
    sim.run(2.0)
    assert any(v.check == "non_negative" and v.agent == "liar"
               for v in sim.invariants.violations)


def test_non_negative_catches_busy_time_regression():
    sim, q = _checked_sim()
    sim.schedule(0.2, lambda now: q.submit(Job(1.5), now))
    sim.schedule(2.5, lambda now: setattr(q, "busy_time", -7.0))
    sim.run(5.0)
    assert any(v.check == "non_negative" and "busy" in v.detail
               for v in sim.invariants.violations)


def test_capacity_catches_impossible_busy_accrual():
    sim, q = _checked_sim(checks=("capacity",))
    # a 1-server queue cannot accrue 100 busy-seconds inside one window
    sim.schedule(2.5, lambda now: setattr(
        q, "busy_time", q.busy_time + 100.0))
    sim.run(5.0)
    assert any(v.check == "capacity" for v in sim.invariants.violations)


def test_conservation_catches_leaked_arrivals():
    sim, q = _checked_sim()
    sim.schedule(1.2, lambda now: setattr(q, "arrivals", q.arrivals + 5))
    sim.run(4.0)
    assert any(v.check == "conservation" and "live=" in v.detail
               for v in sim.invariants.violations)


def test_conservation_catches_negative_in_flight():
    sim, q = _checked_sim()
    sim.schedule(0.2, lambda now: q.submit(Job(0.1), now))
    sim.schedule(1.2, lambda now: setattr(q, "arrivals", -3))
    sim.run(4.0)
    checks = {v.check for v in sim.invariants.violations}
    assert "conservation" in checks or "non_negative" in checks
    assert any("negative" in v.detail for v in sim.invariants.violations)


def test_strict_mode_raises_and_warn_mode_collects():
    sim, q = _checked_sim(mode="strict")
    sim.schedule(1.2, lambda now: setattr(q, "arrivals", q.arrivals + 5))
    with pytest.raises(InvariantViolation):
        sim.run(4.0)

    sim2, q2 = _checked_sim(mode="warn")
    sim2.schedule(1.2, lambda now: setattr(q2, "arrivals", q2.arrivals + 5))
    sim2.run(4.0)  # completes despite the violation
    assert not sim2.invariants.ok
    assert len(sim2.invariants.violations) >= 1


def test_violations_are_emitted_as_events():
    emitted = []

    class FakeLog:
        def emit(self, kind, now, **labels):
            emitted.append((kind, now, labels))

    sim, q = _checked_sim(mode="warn")
    sim.invariants.attach_events(FakeLog())
    sim.schedule(1.2, lambda now: setattr(q, "arrivals", q.arrivals + 5))
    sim.run(4.0)
    kinds = {k for k, _, _ in emitted}
    assert kinds == {"invariant_violation"}
    assert all(lbl["agent"] == "q" for _, _, lbl in emitted)


# ----------------------------------------------------------------------
# Little's law reconciliation
# ----------------------------------------------------------------------
def _drive_mm1(sim, q, rng, lam=0.6, mu=1.0, horizon=800.0):
    def arrive(now):
        q.submit(Job(rng.expovariate(mu)), now)
        nxt = now + rng.expovariate(lam)
        if nxt < horizon:
            sim.schedule(nxt, arrive)

    sim.schedule(rng.expovariate(lam), arrive)
    sim.run(horizon)


@pytest.mark.slow
def test_littles_law_reconciles_on_a_clean_station(rng):
    sim = Simulator(dt=0.01, metrics="on", invariants=InvariantChecker(
        mode="strict", checks=ALL_CHECKS[:-1]))  # all but fingerprint
    q = sim.add_agent(FCFSQueue("q", rate=1.0))
    sim.add_monitor(0.5, lambda now: None)
    _drive_mm1(sim, q, rng)
    assert sim.invariants.ok
    assert q._metrics.sojourn.count > 200  # the check actually armed


@pytest.mark.slow
def test_littles_law_flags_a_hidden_queue(rng):
    class HidingQueue(FCFSQueue):
        def queue_length(self):
            return 0  # hides its backlog from the sampler

    sim = Simulator(dt=0.01, metrics="on", invariants=InvariantChecker(
        mode="warn", checks=("littles_law",)))
    q = sim.add_agent(HidingQueue("hider", rate=1.0))
    sim.add_monitor(0.5, lambda now: None)
    _drive_mm1(sim, q, rng, lam=0.7)
    assert any(v.check == "littles_law" for v in sim.invariants.violations)


# ----------------------------------------------------------------------
# end-to-end wiring through simulate()
# ----------------------------------------------------------------------
def test_simulate_threads_the_checker_and_reports():
    result = simulate("consolidation", until=60.0,
                      observability=ObservabilityOptions(
                          invariants="strict",
                          collect=Collect(sample_interval=6.0)))
    rep = result.invariant_report()
    assert rep is not None and rep["ok"]
    assert rep["mode"] == "strict"
    assert rep["boundaries"] > 1


def test_full_spec_on_a_metered_run():
    result = simulate("consolidation", until=60.0,
                      observability=ObservabilityOptions(
                          invariants="full", metrics="on",
                          collect=Collect(sample_interval=6.0)))
    rep = result.invariant_report()
    assert rep["ok"]
    assert set(rep["checks"]) == set(ALL_CHECKS)


def test_armed_run_is_bit_identical_to_unchecked():
    """The checker observes — records and series must not move."""
    outputs = []
    for invariants in (None, "strict"):
        result = simulate("consolidation", until=60.0,
                          observability=ObservabilityOptions(
                              invariants=invariants,
                              collect=Collect(sample_interval=6.0)))
        records = [(r.operation, r.start, r.end, r.failed)
                   for r in result.records]
        series = {name: result.collector.series(name)
                  for name in sorted(result.collector._probes)}
        outputs.append((records, series, result.telemetry()))
    assert outputs[0] == outputs[1]
