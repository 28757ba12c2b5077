"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_info_runs(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "GDISim" in out
    assert "repro.core" in out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "repro" in capsys.readouterr().out


def test_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_attack_command(capsys):
    assert main(["attack", "--flood-rate", "30"]) == 0
    out = capsys.readouterr().out
    assert "unmitigated" in out
    assert "mitigated" in out


def test_consolidation_command(capsys):
    assert main(["consolidation"]) == 0
    out = capsys.readouterr().out
    assert "Table 6.1" in out
    assert "R_SR^max" in out


def test_validate_command_short(capsys):
    assert main(["validate", "--experiment", "1", "--horizon", "420"]) == 0
    out = capsys.readouterr().out
    assert "steady-state comparison" in out
    assert "RMSE" in out


#: host-time gauges: the only rows of a metered run that depend on the
#: machine rather than on the model
_HOST_TIME_GAUGES = {"engine_run_wall_seconds", "engine_sim_wall_ratio"}


def test_validate_metrics_reproduce_committed_baseline(tmp_path, capsys):
    """The metered ch. 5 slice reproduces BENCH_metrics.json exactly.

    Regenerate the baseline only for an intended behaviour change, with
    ``python -m repro validate --experiment 1 --until 120
    --metrics-out BENCH_metrics.json``.
    """
    from pathlib import Path

    from repro.observability.compare import flatten, load_document

    out = tmp_path / "metrics.json"
    assert main(["validate", "--experiment", "1", "--until", "120",
                 "--metrics-out", str(out)]) == 0
    baseline = Path(__file__).resolve().parents[1] / "BENCH_metrics.json"
    expected = flatten(load_document(str(baseline)))
    got = flatten(load_document(str(out)))
    assert set(got) == set(expected)
    diff = {k: (expected[k], got[k]) for k in expected
            if k not in _HOST_TIME_GAUGES and got[k] != expected[k]}
    assert diff == {}


def test_parser_defaults():
    parser = build_parser()
    args = parser.parse_args(["validate"])
    assert args.experiment == 2
    assert args.until == 900.0


def test_parser_accepts_legacy_horizon_flag():
    parser = build_parser()
    args = parser.parse_args(["validate", "--horizon", "420"])
    assert args.until == 420.0


def test_trace_parser_defaults():
    parser = build_parser()
    args = parser.parse_args(["trace", "consolidation"])
    assert args.hour == 15.0
    assert args.app == "CAD"
    assert args.out == "trace.json"
    assert args.des is None


def test_trace_command_fluid(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "consolidation", "--hour", "15",
                 "--operation", "OPEN", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "OPEN from DEU" in text
    assert "total" in text
    import json

    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert events, "trace export must not be empty"
    assert all(e["ph"] in ("X", "M") for e in events)


def test_trace_command_des(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "consolidation", "--des", "40",
                 "--scale", "0.005", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "traced cascades" in text
    assert "agent" in text, "telemetry table must render"
    import json

    doc = json.loads(out.read_text())
    assert doc["traceEvents"]


# ----------------------------------------------------------------------
# compare: exit codes and tolerance parsing (regression coverage)
# ----------------------------------------------------------------------
def _write_snapshot(path, counters):
    import json

    path.write_text(json.dumps({"snapshot": "repro-metrics",
                                "counters": counters}))
    return str(path)


def test_compare_exit_2_on_disjoint_documents(tmp_path, capsys):
    a = _write_snapshot(tmp_path / "a.json", {"alpha_total": 1.0})
    b = _write_snapshot(tmp_path / "b.json", {"omega_total": 2.0})
    assert main(["compare", a, b]) == 2
    assert "no comparable metrics" in capsys.readouterr().err


def test_compare_exit_2_on_missing_file(tmp_path, capsys):
    a = _write_snapshot(tmp_path / "a.json", {"alpha_total": 1.0})
    assert main(["compare", a, str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_compare_exit_2_on_unrecognized_document(tmp_path, capsys):
    a = _write_snapshot(tmp_path / "a.json", {"alpha_total": 1.0})
    bad = tmp_path / "bad.json"
    # top-level JSON that is not an object included: a malformed baseline
    # must not read as a regression (exit 1)
    for document in ('{"what": "ever"}', "[1, 2]", '"x"', "5\n"):
        bad.write_text(document)
        assert main(["compare", a, str(bad)]) == 2
        assert main(["compare", str(bad), a]) == 2
        assert "unrecognized" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    "frag",        # missing '='
    "frag=",       # empty value
    "=0.5",        # empty fragment would match every metric
    "frag=abc",    # non-float value
    "frag=nan",    # NaN compares false with every delta: gate off
    "frag=-0.1",   # negative: identical documents would regress
])
def test_compare_rejects_malformed_tolerance(tmp_path, capsys, spec):
    a = _write_snapshot(tmp_path / "a.json", {"alpha_total": 1.0})
    b = _write_snapshot(tmp_path / "b.json", {"alpha_total": 1.0})
    assert main(["compare", a, b, "--metric-tolerance", spec]) == 2
    assert "tolerance" in capsys.readouterr().err


def test_compare_tolerance_override_applies(tmp_path, capsys):
    a = _write_snapshot(tmp_path / "a.json", {"wall_s": 1.0})
    b = _write_snapshot(tmp_path / "b.json", {"wall_s": 1.4})
    # default tolerance gates the 40% regression...
    assert main(["compare", a, b]) == 1
    # ...while an explicit override admits it
    assert main(["compare", a, b, "--metric-tolerance", "wall=0.5"]) == 0
    # an infinite tolerance is a valid, explicit opt-out
    assert main(["compare", a, b, "--tolerance", "inf"]) == 0


@pytest.mark.parametrize("value", [
    "nan",   # compares false with every delta: a 5x failure rise passed
    "-0.1",  # identical documents regressed
])
def test_compare_rejects_bad_global_tolerance(tmp_path, capsys, value):
    a = _write_snapshot(tmp_path / "a.json", {"failed_total": 1.0})
    b = _write_snapshot(tmp_path / "b.json", {"failed_total": 5.0})
    for candidate in (a, b):
        assert main(["compare", a, candidate, "--tolerance", value]) == 2
        assert "tolerance" in capsys.readouterr().err
