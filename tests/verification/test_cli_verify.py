"""CLI surface of the differential verification subsystem."""

import json

import pytest

from repro.cli import build_parser, main


def test_verify_parser_defaults():
    args = build_parser().parse_args(["verify"])
    assert args.replications == 4
    assert args.horizon == 600.0
    assert args.rate_fault == 1.0
    assert not args.quick and not args.parity and not args.invariants


def test_verify_quick_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "verify_report.json"
    assert main(["verify", "--quick", "--report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "verify: PASS" in text
    doc = json.loads(out.read_text())
    assert doc["report"] == "repro-verify"
    assert doc["passed"] is True
    assert all(row["passed"] for row in doc["cases"])


@pytest.mark.slow
def test_verify_detects_injected_fault_end_to_end(tmp_path, capsys):
    out = tmp_path / "fault_report.json"
    assert main(["verify", "--quick", "--rate-fault", "0.7",
                 "--report", str(out)]) == 1
    assert "verify: FAIL" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    assert doc["rate_fault"] == 0.7


def test_verify_rejects_malformed_tolerance(capsys):
    for spec in ("oops", "mm1=nan", "mm1=-0.1"):
        assert main(["verify", "--quick", "--metric-tolerance", spec]) == 2
        assert "tolerance" in capsys.readouterr().err


@pytest.mark.slow
def test_verify_parity_and_invariants_flags(tmp_path, capsys):
    out = tmp_path / "full_report.json"
    assert main(["verify", "--quick", "--parity", "--invariants",
                 "--invariant-until", "60", "--report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "event==adaptive: ok" in text
    doc = json.loads(out.read_text())
    assert all(row["identical"] for row in doc["parity"])
    assert doc["invariants"]["ok"]
