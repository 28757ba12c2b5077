"""The repository benchmark: one workload, timed end to end, outputs checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-vector --seed 42 --seconds 12
    python3 perfbench/run.py --workload drill --trace 1
    python3 perfbench/run.py --workload all

A run sets the workload up several times (``setup_s``), then repeats it
for ``--seconds`` of host time, at least three times, and reports the
median of each end-to-end metric.  Run times are given in units of a
reference loop timed during the run (see ``hostspeed.py``), which takes
the shared host's drifting speed out of them.  Afterwards every run's
output digest is compared with the scalar, single-process reference run
of the same seed and, for the seeds in ``reference.json``, with the
committed digest.

``--trace 1`` alternates untraced runs with traced ones instead and
reports the per-layer metrics of the traced runs (see ``layers.py``),
plus the tracing overhead.  Everything a traced run records is kept in
memory and written to ``.perfbench/trace/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric's median, quartiles and run count.  The full record
of the invocation -- environment, horizons, per-run values and digests
-- goes to ``.perfbench/results/``.  ``--workload all`` runs the four
workloads one after another, each in a fresh interpreter so that
``peak_rss_mb`` is its own.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
#: Metric names and units are those the benchmark declares.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in DECLARED["workloads"])

#: Set-up-only repetitions: at least MIN_SETUPS, and more while their
#: total stays under SETUP_BUDGET_S, so millisecond set-ups get a median
#: of many samples.
MIN_SETUPS = 5
MAX_SETUPS = 50
SETUP_BUDGET_S = 1.5
MIN_RUNS = 3
#: Consecutive failing runs after which a run stops trying.
MAX_FAILURES = 3


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256(src: Path) -> str:
    """Digest of the ``repro`` sources, for checkouts without ``.git``."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int, horizons: Dict[str, float]) -> Dict[str, Any]:
    import numpy

    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": source_sha256(ROOT / "src" / "repro"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "seed": seed,
        "horizons_s": horizons,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Bench:
    """One invocation: a workload, a seed, a time budget."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 out: Path) -> None:
        import workloads

        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scratch = out / "scratch"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.runs: List[Dict[str, Any]] = []
        self.errors: List[str] = []

    # ------------------------------------------------------------------
    def setup_once(self) -> float:
        clock = self.wl.Clock(setup_only=True)
        try:
            gc.collect()
            self.wl.execute(self.workload, self.seed, clock, self.wl.Spans(),
                            out_dir=self.scratch)
        except self.wl.SetupDone:
            pass
        return clock.setup_s

    def run_once(self, traced: bool) -> bool:
        """One measured run; returns whether it completed."""
        import layers

        try:
            gc.collect()
            if traced:
                outcome, clock, trace = layers.traced_run(
                    self.workload, self.seed, self.scratch)
            else:
                clock = self.wl.Clock()
                with HostSpeed() as speed:
                    outcome = self.wl.execute(self.workload, self.seed, clock,
                                              self.wl.Spans(),
                                              out_dir=self.scratch)
        except Exception:
            self.errors.append(traceback.format_exc())
            print(self.errors[-1], file=sys.stderr)
            self.runs.append({"traced": traced, "completed": False})
            return False
        run = {"traced": traced, "completed": True,
               "setup_s": clock.setup_s, "run_s": clock.run_s,
               "cpu_s": clock.run_cpu_s,
               "digest": self.wl.digest(outcome),
               "cpu_err_pp": outcome.cpu_err_pp}
        if not traced:
            # the samples' own time is the benchmark's, not the program's
            setup_wall, _ = speed.spent(clock.wall[0], clock.wall[1])
            run_wall, run_cpu = speed.spent(clock.wall[1], clock.wall[2])
            loop = speed.loop_cpu_s()
            run.update({
                "setup_s": clock.setup_s - setup_wall,
                "sampling_s": run_wall,
                "loop_cpu_s": loop,
                "loop_samples": len(speed.samples),
                "run_rel": (clock.run_s - run_wall) / loop,
                "cpu_rel": (clock.run_cpu_s - run_cpu) / loop,
            })
        else:
            run["trace"] = trace
            run["layer_metrics"] = layers.layer_metrics(outcome, trace)
            run["profile"] = (outcome.profile.to_dict()
                              if outcome.profile is not None else None)
            run["parallel"] = (outcome.parallel.to_dict()
                               if outcome.parallel is not None else None)
        self.runs.append(run)
        return True

    def measure(self, trace: bool) -> None:
        setups: List[float] = []
        while not trace and len(setups) < MAX_SETUPS and (
                len(setups) < MIN_SETUPS or sum(setups) < SETUP_BUDGET_S):
            setups.append(self.setup_once())
        start = time.perf_counter()
        failures = 0
        while failures < MAX_FAILURES:
            done = [r for r in self.runs if r["completed"]]
            if (time.perf_counter() - start >= self.seconds
                    and len(done) >= (2 if trace else MIN_RUNS)):
                break
            for traced in ((False, True) if trace else (False,)):
                failures = 0 if self.run_once(traced) else failures + 1
        self.setups = setups + [r["setup_s"] for r in self.runs
                                if r["completed"] and not r["traced"]]
        self.rss_mb = peak_rss_mb()

    def check(self) -> Dict[str, Any]:
        """Compare every run with the reference run and committed digest."""
        ref_clock = self.wl.Clock()
        ref = self.wl.execute(self.workload, self.seed, ref_clock,
                              self.wl.Spans(), out_dir=self.scratch,
                              reference=True)
        ref_digest = self.wl.digest(ref)
        committed = REFERENCE["digests"][self.workload].get(str(self.seed))
        for run in self.runs:
            if not run["completed"]:
                run["ok"] = False
                continue
            run["ok"] = (run["digest"] == ref_digest
                         and committed in (None, run["digest"])
                         and run["cpu_err_pp"] == ref.cpu_err_pp
                         and run["cpu_err_pp"] <= self.wl.CPU_ERR_LIMIT_PP)
        return {"reference_digest": ref_digest, "committed_digest": committed,
                "reference_run_s": ref_clock.run_s,
                "cpu_err_pp": ref.cpu_err_pp}


def summarize(bench: Bench, trace: bool) -> Dict[str, Any]:
    """Median, quartiles and run count of every reported metric."""
    done = [r for r in bench.runs if r["completed"]]
    untraced = [r for r in done if not r["traced"]]
    stats: Dict[str, Dict[str, float]] = {}
    if not trace:
        for key in ("run_rel", "cpu_rel"):
            stats[key] = quartiles([r[key] for r in untraced])
        stats["setup_s"] = quartiles(bench.setups)
        stats["peak_rss_mb"] = quartiles([bench.rss_mb])
        return stats
    traced = [r for r in done if r["traced"]]
    if not traced or not untraced:
        return stats
    for key in traced[0]["layer_metrics"]:
        stats[key] = quartiles([r["layer_metrics"][key] for r in traced])
    stats["trace.overhead_s"] = quartiles([
        statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in untraced)])
    return stats


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, one after another."""
    lines = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        out = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(out[:-1]))
        lines[name] = json.loads(out[-1]) if out else None
    ok = all(doc is not None and doc["correct"] for doc in lines.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(d["attempted"] for d in lines.values() if d),
        "failed": sum(d["failed"] for d in lines.values() if d),
        "metrics": {f"{name}/{key}": value
                    for name, doc in lines.items() if doc
                    for key, value in doc["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=REFERENCE["dev_seed"])
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    out = ROOT / ".perfbench"
    bench = Bench(args.workload, args.seed, args.seconds, out)
    trace = bool(args.trace)
    bench.measure(trace)
    check = bench.check()

    attempted = len(bench.runs)
    failed = sum(1 for r in bench.runs if not r["ok"])
    stats = summarize(bench, trace) if attempted > failed else {}
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if stats and set(stats) != set(units):
        raise SystemExit(f"perfbench: measured {sorted(stats)} but "
                         f"BENCHMARK.json declares {sorted(units)}")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed, bench.wl.HORIZONS),
        "check": check,
        "stats": stats,
        "runs": bench.runs,
        "errors": bench.errors,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    subdir = out / ("trace" if trace else "results")
    subdir.mkdir(parents=True, exist_ok=True)
    (subdir / name).write_text(json.dumps(record, indent=1, default=str))

    for key, row in stats.items():
        print(f"{args.workload} {key}: median {row['median']:.6g} "
              f"[q1 {row['q1']:.6g}, q3 {row['q3']:.6g}] n={row['n']} "
              f"{units[key]}")
    sampled = [r for r in bench.runs if r.get("loop_cpu_s")]
    if sampled:
        raw = {key: statistics.median(r[key] for r in sampled)
               for key in ("run_s", "cpu_s", "loop_cpu_s")}
        print(f"{args.workload} host seconds: run_s median "
              f"{raw['run_s']:.6g}, cpu_s median {raw['cpu_s']:.6g}, "
              f"reference loop median {raw['loop_cpu_s']:.6g}")
    print(f"{args.workload} digest {check['reference_digest'][:16]} "
          f"(committed {str(check['committed_digest'])[:16]}); "
          f"{attempted - failed}/{attempted} runs match; "
          f"fail_frac {failed / attempted:.3f}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": row["median"], "unit": units[key]}
                    for key, row in stats.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
