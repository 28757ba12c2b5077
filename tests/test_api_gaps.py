"""Direct tests for public API members otherwise only covered indirectly."""

import pytest

from repro.metrics.collector import Snapshot
from repro.metrics.stats import SteadyStateStats
from repro.queueing import analytic
from repro.software.message import Endpoint
from repro.software.operation import tier_round_trip
from repro.software.resources import R
from repro.validation.experiments import run_validation


def test_mm1_and_mmc_utilization():
    assert analytic.mm1_utilization(2.0, 4.0) == pytest.approx(0.5)
    assert analytic.mmc_utilization(6.0, 2.0, 4) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        analytic.mm1_utilization(1.0, 0.0)


def test_mmc_mean_jobs_little_consistency():
    lam, mu, c = 2.0, 1.0, 4
    w = analytic.mmc_mean_response(lam, mu, c)
    assert analytic.mmc_mean_jobs(lam, mu, c) == pytest.approx(lam * w)


def test_endpoint_rendering():
    assert str(Endpoint("app", "DNA")) == "app@DNA"
    assert str(Endpoint("client")) == "client@?"


def test_tier_round_trip_builder():
    msgs = tier_round_trip("app", "db", R(cycles=1.0), R(cycles=2.0),
                           label="x")
    assert [(m.src, m.dst) for m in msgs] == [("app", "db"), ("db", "app")]
    assert msgs[0].label == "x.query"
    assert msgs[1].label == "x.result"


def test_snapshot_and_stats_dataclasses():
    snap = Snapshot(time=1.0, values={"x": 2.0})
    assert snap.values["x"] == 2.0
    stats = SteadyStateStats(mean=0.5, std=0.1, n_samples=10)
    assert stats.n_samples == 10


@pytest.mark.slow
def test_run_validation_covers_all_experiments():
    results = run_validation(until=360.0)
    assert set(results) == {"Experiment-1", "Experiment-2", "Experiment-3"}
    for pair in results.values():
        assert set(pair) == {"physical", "simulated"}
        assert pair["simulated"].records


# ----------------------------------------------------------------------
# the simulate() facade
# ----------------------------------------------------------------------
def test_scenario_from_spec_consolidation():
    from repro.api import Scenario

    sc = Scenario.from_spec("consolidation")
    assert sc.name == "consolidation"
    assert "DNA" in sc.topology.datacenters
    assert {a.name for a in sc.applications} == {"CAD", "VIS", "PDM"}
    assert sc.study is not None


def test_scenario_from_spec_unknown():
    from repro.api import Scenario
    from repro.core.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        Scenario.from_spec("mainframe")


def test_simulate_requires_until_for_des():
    from repro.api import EngineOptions, simulate
    from repro.core.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        simulate("consolidation")
    with pytest.raises(ConfigurationError):
        simulate("consolidation", until=10.0,
                 engine=EngineOptions(mode="warp"))


def test_simulate_fluid_mode_returns_study_solver():
    from repro.api import EngineOptions, simulate

    result = simulate("consolidation", engine=EngineOptions(mode="fluid"))
    assert result.mode == "fluid"
    assert result.fluid is not None
    assert result.study is not None
    app = next(a for a in result.scenario.applications if a.name == "CAD")
    assert result.fluid.response_time(app, "OPEN", "DEU", 54000.0) > 0


def test_scenario_json_round_trip(tmp_path):
    from repro.api import Scenario

    sc = Scenario.from_spec("consolidation")
    path = tmp_path / "scenario.json"
    sc.to_json(path)
    sc2 = Scenario.from_json(path)
    assert sorted(sc2.topology.datacenters) == sorted(sc.topology.datacenters)
    assert set(sc2.workload_curves) == {"CAD", "VIS", "PDM"}
    assert sc2.to_document() == sc.to_document()


def test_simulation_session_reuse():
    """A second run() to a later horizon extends the open-loop arrivals:
    run to 30 then to 60 equals a fresh run to 60."""
    from repro.api import Collect
    from tests.core.test_checkpoint import portal_scenario, result_key

    session = portal_scenario().prepare(collect=Collect(sample_interval=5.0))
    first = session.run(30.0)
    second = session.run(60.0)
    assert second.until == 60.0
    fresh = portal_scenario().prepare(
        collect=Collect(sample_interval=5.0)).run(60.0)
    assert len(first.records) < len(second.records)
    assert any(r.start > 30.0 for r in second.records)
    assert result_key(second) == result_key(fresh)


# ----------------------------------------------------------------------
# the PR 1 deprecation cycle is closed: the shims are gone for good
# ----------------------------------------------------------------------
def test_io_shims_removed():
    import repro.io

    assert not hasattr(repro.io, "save_scenario")
    assert not hasattr(repro.io, "load_scenario")
    with pytest.raises(ImportError):
        from repro.io import save_scenario  # noqa: F401


def test_run_experiment_horizon_kwarg_removed():
    from repro.validation.experiments import EXPERIMENTS, run_experiment

    with pytest.raises(TypeError, match="horizon"):
        run_experiment(EXPERIMENTS[0], horizon=60.0,
                       launch_until=50.0,
                       steady_window=(10.0, 50.0))


def test_run_experiment_until_is_canonical():
    from repro.validation.experiments import EXPERIMENTS, run_experiment

    result = run_experiment(EXPERIMENTS[0], until=60.0,
                            launch_until=50.0,
                            steady_window=(10.0, 50.0))
    assert result.horizon == 60.0
