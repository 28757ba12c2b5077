"""Each workload loads the layers the benchmark says it does.

Small sizes of the four workloads run once each under the tracer; the
per-layer metrics must show the vector kernel only on ``fleet-vector``,
barrier windows only on ``fleet-sharded``, observability work only on
``ch5-observed`` and checkpoint writes only on ``drill``.  A second test
checks the output digest the benchmark compares runs by: on the 32-region
fleet it is the same for both kernels and for one and two workers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import pytest

import layers
import workloads

SIZES = {
    "fleet-vector": {"regions": 8, "horizon": 10.0},
    "fleet-sharded": {"regions": 8, "horizon": 10.0},
    "ch5-observed": {"horizon": 60.0},
    "drill": {"horizon": 120.0},
}


@pytest.fixture(scope="module")
def metrics(tmp_path_factory):
    out = {}
    for name, sizes in SIZES.items():
        scratch = tmp_path_factory.mktemp(name)
        outcome, _clock, trace = layers.traced_run(name, 42, scratch, **sizes)
        out[name] = layers.layer_metrics(outcome, trace)
    return out


def _only(metrics, key, workload):
    return {name: m[key] > 0 for name, m in metrics.items()} == {
        name: name == workload for name in metrics}


def test_vector_kernel_only_on_fleet_vector(metrics):
    assert _only(metrics, "queueing.soa.self_s", "fleet-vector")
    assert metrics["fleet-vector"]["queueing.soa.calls"] > 0


def test_barrier_windows_only_on_fleet_sharded(metrics):
    assert _only(metrics, "parallel.windows", "fleet-sharded")


def test_checkpoint_writes_only_on_drill(metrics):
    assert _only(metrics, "checkpoint.writes", "drill")
    assert metrics["drill"]["checkpoint.write_s"] > 0


def test_observability_work_only_on_ch5(metrics):
    assert metrics["fleet-vector"]["observability.self_s"] == 0
    assert metrics["drill"]["observability.self_s"] == 0
    assert metrics["ch5-observed"]["observability.self_s"] > 0
    assert metrics["ch5-observed"]["observability.spans"] > 0


@pytest.mark.xfail(strict=True, reason=(
    "the sharded backend's run supervisor logs lifecycle events to an "
    "observability EventLog on every run, metrics on or off"))
def test_observability_off_costs_nothing_sharded(metrics):
    assert metrics["fleet-sharded"]["observability.self_s"] == 0


def test_fleet_digest_same_across_kernels_and_workers(tmp_path):
    digests = set()
    for kernel in ("scalar", "vector"):
        for workers in (1, 2):
            outcome = workloads.run_fleet(
                42, workloads.Clock(), workloads.Spans(), kernel=kernel,
                workers=workers, horizon=20.0, regions=32)
            digests.add(workloads.digest(outcome))
    assert len(digests) == 1
