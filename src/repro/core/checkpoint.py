"""Crash-safe checkpoint/resume for long simulations.

A cascade in flight is data — one request object per operation and one
message object per message, walking its hops on a reused job — but that
data points into the live run: at agents and their queued jobs, and at
what is still a closure (calendar events that workloads, background
processes and failure injection schedule, ``deliver``/``process_leg``
completion callbacks, monitor probes).  Checkpoints therefore store no
live object graph at all; they rely on the engine being
*deterministic*: rebuilding the same scenario with the same seed and
replaying to the checkpoint time reproduces the interrupted run's
state exactly.  A checkpoint is then just

* the scenario identity (name, seed, runner seed) and engine
  configuration (dt, mode, horizon, checkpoint cadence) needed to
  rebuild an identical session, and
* a compact *fingerprint* of the live state at the checkpoint time —
  SHA-256 over every agent's counters (floats by ``.hex()``, so the
  digest is bit-exact), the RNG stream states, the operation records
  and the collector samples.  The records enter as a running SHA-256
  that each checkpoint extends by the records completed since the
  previous one (the list is append-only), so a run's checkpoints cost
  time linear in its records, not quadratic.

On resume the rebuilt session replays ``0 → T`` and the recomputed
fingerprint must equal the stored one; any drift (changed topology,
different collector cadence, code change affecting the step sequence)
raises :class:`~repro.core.errors.CheckpointError` instead of silently
continuing from a diverged state.  Checkpoint files are written
atomically (temp file + ``os.replace``) so a crash mid-write never
corrupts the previous checkpoint.

Compatibility caveats: a checkpoint binds to the exact scenario
construction (same topology document, applications, placement, collect
and resilience configuration, same ``checkpoint_every``) and to the
code version — it is a crash-recovery token, not an archival format.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Union

from repro.core.errors import CheckpointError

#: Bumped whenever the fingerprint recipe or document layout changes
#: (3: the operation records enter as one running digest; 4: the
#: document records the queueing kernel).
CHECKPOINT_VERSION = 4


def state_fingerprint(session) -> Dict[str, Any]:
    """Digest the live state of a prepared/running session.

    Covers, in a fixed order: the clock, every topology agent's
    externally observable counters, the cascade runner's records and
    RNG, workload RNG streams, named substreams, resilience counters
    and the collector's sample series.
    """
    h = hashlib.sha256()

    def feed(*parts: Any) -> None:
        for p in parts:
            h.update(str(p).encode())
            h.update(b"\x1f")

    sim = session.sim
    feed("clock", sim.now.hex())
    # monitor deadlines are engine state that replay must reproduce; the
    # wake heap is deliberately excluded (event-mode only, derived from
    # agent state) so fingerprints stay comparable across engine modes
    for interval, next_due in sim._monitor_deadlines():
        feed("monitor", interval.hex(), next_due.hex())
    for agent in session.scenario.topology.all_agents():
        feed(
            agent.name,
            agent.local_time.hex(),
            agent.busy_time.hex(),
            agent.arrivals,
            agent.drops,
            agent.queue_length(),
            agent.retries,
            agent.timeouts,
            agent.shed,
            int(agent.paused),
        )
    records = session.runner.records
    feed("records", len(records), _records_digest(session.runner))
    feed("runner_rng", _rng_digest(session.runner.rng))
    for i, wl in enumerate(session.workloads):
        feed(f"workload.{i}", _rng_digest(wl.rng))
    streams = getattr(session, "streams", None)
    if streams is not None:
        for name in streams.names():
            feed(f"stream.{name}", _rng_digest(streams.stream(name)))
    state = getattr(session, "resilience_state", None)
    if state is not None:
        for key in sorted(state.counters):
            feed("res", key, state.counters[key])
    metrics = getattr(session, "metrics", None)
    if metrics is not None:
        # counters + histograms only; gauges (wall-clock derived) and
        # engine loop mechanics are excluded — see fingerprint_lines
        for line in metrics.fingerprint_lines():
            feed("met", line)
    n_samples = 0
    if session.collector is not None:
        samples = session.collector.samples
        n_samples = len(samples)
        for snap in samples:
            feed("sample", snap.time.hex())
            for key in sorted(snap.values):
                feed(key, float(snap.values[key]).hex())
    return {
        "hash": h.hexdigest(),
        "time": sim.now,
        "records": len(records),
        "samples": n_samples,
    }


def _records_digest(runner) -> str:
    """Running SHA-256 over ``runner.records``, cached on the runner
    with the count already hashed: only new records are fed."""
    h, done = getattr(runner, "_records_sha", (None, 0))
    records = runner.records
    if h is None or len(records) < done:
        h, done = hashlib.sha256(), 0
    for rec in records[done:]:
        h.update(f"{rec.operation}\x1f{rec.start.hex()}\x1f"
                 f"{rec.end.hex()}\x1f{int(rec.failed)}\x1f".encode())
    runner._records_sha = (h, len(records))
    return h.hexdigest()


def _rng_digest(rng) -> str:
    return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()


def write_checkpoint(
    path: Union[str, Path], session, document: Dict[str, Any]
) -> None:
    """Atomically write a checkpoint JSON document.

    ``document`` carries the rebuild parameters (scenario identity,
    dt/mode/until/cadence); this function stamps version + fingerprint
    and performs the temp-file + rename dance so an interrupted write
    leaves any previous checkpoint intact.
    """
    doc = dict(document)
    doc["version"] = CHECKPOINT_VERSION
    doc["time"] = session.sim.now
    doc["fingerprint"] = state_fingerprint(session)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True))
    os.replace(tmp, path)


def read_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate a checkpoint document."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: not a checkpoint: {exc}") from exc
    if not isinstance(doc, dict) or "fingerprint" not in doc:
        raise CheckpointError(f"{path}: not a checkpoint document")
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version!r} is not supported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    return doc
