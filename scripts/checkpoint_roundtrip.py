#!/usr/bin/env python3
"""Crash/resume smoke test for the checkpoint subsystem.

For each queueing kernel (scalar, then vector) the parent process

1. spawns a child (``--child``) that runs the reference scenario with
   periodic checkpointing and SIGKILLs *itself* mid-run — no cleanup,
   no atexit, exactly what a host crash looks like;
2. verifies the child died and left a valid checkpoint behind;
3. computes the uninterrupted reference run in-process;
4. resumes from the orphaned checkpoint and asserts the resumed run
   equals the uninterrupted one bit-for-bit (operation records and
   collector series).

Run:  python scripts/checkpoint_roundtrip.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.api import (  # noqa: E402
    KERNELS,
    CheckpointOptions,
    Collect,
    EngineOptions,
    ObservabilityOptions,
    Scenario,
    simulate,
)
from repro.core.checkpoint import read_checkpoint  # noqa: E402
from repro.software.application import Application  # noqa: E402
from repro.software.message import CLIENT, MessageSpec  # noqa: E402
from repro.software.operation import Operation  # noqa: E402
from repro.software.resources import R  # noqa: E402
from repro.software.workload import OperationMix, WorkloadCurve  # noqa: E402
from repro.topology.network import GlobalTopology  # noqa: E402
from repro.topology.specs import DataCenterSpec, TierSpec  # noqa: E402

UNTIL = 90.0  # full horizon
CK_EVERY = 30.0  # checkpoint cadence
KILL_T = 45.0  # child dies here: past the t=30 checkpoint, short of t=60


def scenario() -> Scenario:
    topo = GlobalTopology(seed=3)
    topo.add_datacenter(DataCenterSpec(
        name="DNA",
        tiers=(
            TierSpec("app", n_servers=2, cores_per_server=2, memory_gb=8.0,
                     sockets=1),
            TierSpec("db", n_servers=1, cores_per_server=2, memory_gb=8.0,
                     sockets=1),
        ),
    ))
    op = Operation("OP", [
        MessageSpec(CLIENT, "app", r=R.of(cycles=1e9, net_kb=16)),
        MessageSpec("app", "db", r=R.of(cycles=4e8, net_kb=8)),
        MessageSpec("db", "app", r=R.of(net_kb=16)),
        MessageSpec("app", CLIENT, r=R.of(net_kb=32)),
    ])
    app = Application(
        name="portal",
        operations={"OP": op},
        mix=OperationMix({"OP": 1.0}),
        workloads={"DNA": WorkloadCurve([60.0] * 24)},
        ops_per_client_hour=30.0,
    )
    return Scenario(name="roundtrip", topology=topo, applications=[app],
                    seed=5)


def result_key(result):
    return (
        [(r.operation, r.start, r.end, r.failed) for r in result.records],
        result.series("cpu.DNA.app"),
        result.series("cpu.DNA.db"),
    )


def child(ck_path: str, kernel: str) -> None:
    """Run toward UNTIL with checkpoints armed, then die hard at KILL_T."""
    session = scenario().prepare(kernel=kernel,
                                 collect=Collect(sample_interval=5.0))
    session._until = UNTIL
    session.arm_checkpoints(CK_EVERY, ck_path)
    session._drive_workloads(UNTIL)
    session.sim.run(KILL_T)
    os.kill(os.getpid(), signal.SIGKILL)  # simulated host crash
    raise AssertionError("unreachable: SIGKILL did not take")


def drill(kernel: str, tmp: str) -> None:
    ck = os.path.join(tmp, f"crash-{kernel}.ckpt")
    ref_ck = os.path.join(tmp, f"ref-{kernel}.ckpt")

    print(f"[{kernel} 1/4] spawning child, will SIGKILL itself at "
          f"t={KILL_T:.0f}s")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", ck, kernel],
        env=env,
    )
    assert proc.returncode != 0, "child survived its own SIGKILL?"
    print(f"      child exited with {proc.returncode} (expected: killed)")

    doc = read_checkpoint(ck)
    print(f"[{kernel} 2/4] orphaned checkpoint OK: t={doc['time']:.1f}s "
          f"of {doc['until']:.0f}s")
    assert abs(doc["time"] - CK_EVERY) < 1e-6, doc["time"]
    assert doc["kernel"] == kernel, doc["kernel"]

    print(f"[{kernel} 3/4] computing the uninterrupted reference "
          f"(until={UNTIL:.0f}s)")
    observe = ObservabilityOptions(collect=Collect(sample_interval=5.0))
    full = simulate(scenario(), until=UNTIL, observability=observe,
                    engine=EngineOptions(kernel=kernel),
                    checkpoint=CheckpointOptions(every=CK_EVERY,
                                                 path=ref_ck))

    print(f"[{kernel} 4/4] resuming from the orphaned checkpoint")
    resumed = simulate(scenario(), observability=observe,
                       checkpoint=CheckpointOptions(resume_from=ck))

    assert resumed.until == UNTIL
    assert result_key(resumed) == result_key(full), (
        f"kernel={kernel}: resumed run diverged from the uninterrupted "
        "reference"
    )
    n = len(full.records)
    print(f"PASS ({kernel}): resumed == uninterrupted ({n} operation "
          f"records and 2 collector series bit-identical)\n")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for kernel in KERNELS:
            drill(kernel, tmp)
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        child(sys.argv[2], sys.argv[3])
    else:
        sys.exit(main())
