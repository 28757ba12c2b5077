"""Kernel-differential verification: the 13-case oracle matrix, the
event≡adaptive contract and cross-kernel bit parity.

Both queueing kernels run the same station code -- the vector kernel
only puts the stations behind one engine agent per tier -- so the two
must agree bit for bit: records, and every telemetry field of every
agent, busy-time floats and ``queue_hwm`` included.

On failure every assertion message carries the seed and a bounded diff
of the first mismatching records/telemetry entries, so a red run is
replayable without re-deriving the configuration.
"""

import dataclasses

import pytest

from repro.api import EngineOptions, simulate
from repro.verification.oracles import run_sweeps, standard_sweeps

KERNELS = ("scalar", "vector")

SWEEP_KW = dict(replications=3, horizon=300.0, base_seed=20260806)


def _signature(result):
    """Everything observable: records plus full per-agent telemetry."""
    records = tuple(dataclasses.astuple(r) for r in result.records)
    telemetry = []
    for name, tel in sorted(result.telemetry().items()):
        d = dataclasses.asdict(tel)
        telemetry.append((name, tuple(sorted(d.items()))))
    return records, tuple(telemetry)


def _diff_message(label, seed, a, b):
    """Bounded, replayable description of the first divergences."""
    lines = [f"{label} diverged (seed={seed})"]
    recs_a, tel_a = a
    recs_b, tel_b = b
    if recs_a != recs_b:
        lines.append(f"  records: {len(recs_a)} vs {len(recs_b)}")
        for i, (ra, rb) in enumerate(zip(recs_a, recs_b)):
            if ra != rb:
                lines.append(f"  first record diff at #{i}:")
                lines.append(f"    a: {ra}")
                lines.append(f"    b: {rb}")
                break
    da, db = dict(tel_a), dict(tel_b)
    shown = 0
    for name in da:
        if da[name] != db.get(name) and shown < 3:
            fields_a = dict(da[name])
            fields_b = dict(db.get(name, ()))
            delta = {k: (fields_a[k], fields_b.get(k))
                     for k in fields_a if fields_a[k] != fields_b.get(k)}
            lines.append(f"  telemetry[{name}]: {delta}")
            shown += 1
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the 13-case oracle matrix, per kernel
# ----------------------------------------------------------------------
def test_oracle_matrix_has_13_cases():
    assert len(standard_sweeps()) == 13


@pytest.mark.parametrize("kernel", KERNELS)
def test_oracle_sweep_passes(kernel):
    """Every sweep point within its direction-aware tolerance."""
    report = run_sweeps(kernel=kernel, **SWEEP_KW)
    failing = [r for r in report.results if not r.passed]
    assert report.passed, (
        f"kernel={kernel} base_seed={SWEEP_KW['base_seed']}: "
        + "; ".join(f"{r.case.name}: {r.reason}" for r in failing)
    )
    assert len(report.results) == 13


@pytest.mark.parametrize("kernel", KERNELS)
def test_oracle_gate_catches_rate_fault(kernel):
    """A 30% service slowdown must trip the gate under each kernel."""
    report = run_sweeps(kernel=kernel, rate_fault=0.7, **SWEEP_KW)
    assert not report.passed, (
        f"kernel={kernel}: rate_fault=0.7 slipped through the gate"
    )


def test_oracle_estimates_identical_across_kernels():
    """The sweep estimates agree bit-for-bit between kernels."""
    scalar = run_sweeps(kernel="scalar", **SWEEP_KW)
    vector = run_sweeps(kernel="vector", **SWEEP_KW)
    for rs, rv in zip(scalar.results, vector.results):
        assert rs.replication_means == rv.replication_means, (
            f"{rs.case.name}: scalar {rs.replication_means} "
            f"vs vector {rv.replication_means} "
            f"(base_seed={SWEEP_KW['base_seed']})"
        )


# ----------------------------------------------------------------------
# stepping-mode parity, per kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("spec", ["consolidation", "multimaster"])
def test_event_adaptive_parity(kernel, spec):
    """The exact-event contract holds under each kernel on its own."""
    seed = 3
    ev = simulate(spec, until=40.0, seed=seed,
                  engine=EngineOptions(mode="event", kernel=kernel))
    ad = simulate(spec, until=40.0, seed=seed,
                  engine=EngineOptions(mode="adaptive", kernel=kernel))
    a, b = _signature(ev), _signature(ad)
    assert a == b, _diff_message(
        f"{spec} kernel={kernel} event vs adaptive", seed, a, b)


def _ch5_result(kernel, until):
    """The unobserved chapter 5 Experiment-1 slice on ``kernel``."""
    from repro.api import Scenario
    from repro.validation.experiments import EXPERIMENTS, run_experiment

    sessions = []
    prepare = Scenario.prepare

    def on_kernel(self, **kwargs):
        session = prepare(self, **dict(kwargs, kernel=kernel))
        sessions.append(session)
        return session

    Scenario.prepare = on_kernel
    try:
        run_experiment(EXPERIMENTS[0], until=until, seed=42)
    finally:
        Scenario.prepare = prepare
    return sessions[0].result()


def _run_on(spec, kernel, seed):
    if spec == "ch5-unobserved":
        # 60 s: the former bank credited DNA.Tapp.s0.cpu's busy time in
        # another order and differed here in the last digits
        return _ch5_result(kernel, until=60.0)
    if spec == "fleet-32":
        from repro.studies.fleet import fleet_scenario

        return simulate(fleet_scenario(32, seed=seed), until=20.0,
                        engine=EngineOptions(kernel=kernel))
    return simulate(spec, until=40.0, seed=seed,
                    engine=EngineOptions(kernel=kernel))


@pytest.mark.parametrize("spec", ["consolidation", "multimaster",
                                  "ch5-unobserved", "fleet-32"])
def test_scalar_vector_agreement(spec):
    """Cross-kernel: records and full telemetry agree exactly, every
    busy-time bit and ``queue_hwm`` included."""
    seed = 3 if spec in ("consolidation", "multimaster") else 42
    a = _signature(_run_on(spec, "scalar", seed))
    b = _signature(_run_on(spec, "vector", seed))
    assert a == b, _diff_message(f"{spec} scalar vs vector", seed, a, b)
