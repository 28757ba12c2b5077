"""The parallel simulation platform (chapter 4).

Implements the thesis's asynchronous-messaging machinery:

* **Port-based programming** (section 4.2.2) — typed ports, an arbiter
  pairing messages with handlers into work items (active messages), and
  a dispatcher running a thread pool that drains work-item queues.
* **Coordination primitives** (section 4.2.3) — single/multiple-item
  receivers, join receivers, choice, and interleave (teardown /
  exclusive / concurrent handler groups).
* **Classic scatter-gather** (section 4.3.4) — one work item per agent
  handler per tick; the mechanism whose per-handler overhead cancels any
  multicore benefit (Table 4.1).
* **H-Dispatch** (section 4.3.5) — a fixed pool of worker threads pulls
  *agent sets* from a global queue, amortizing dispatch overhead and
  avoiding allocation churn (Table 4.2).
* **Sharded execution** (section 9.3.1) — the one parallel transport:
  :func:`~repro.parallel.partition.partition_topology` cuts the data
  centers into shards, :mod:`repro.parallel.sharded` runs one engine
  per shard in its own OS process synchronized in conservative
  lookahead windows, and ``simulate(parallel=ParallelOptions(...))``
  returns the merged, single-process-equivalent result.

Both tick executors run the same holonic multi-agent state as the
sequential engine and are exercised for *correctness* on this machine.
The Table 4.1/4.2 *numbers* are regenerated by the calibrated model in
:mod:`repro.parallel.speedup`: this container has one core and CPython's
GIL serializes compute threads, so the thesis's 16-core shared-memory
scaling experiment is reproduced structurally, not timed natively
(DESIGN.md, substitution 2).
"""

from repro.parallel.ports import Port, Arbiter, Dispatcher, WorkItem
from repro.parallel.coordination import (
    SingleItemReceiver,
    MultipleItemReceiver,
    JoinReceiver,
    Choice,
    Interleave,
)
from repro.parallel.scatter_gather import ScatterGatherExecutor
from repro.parallel.hdispatch import HDispatchExecutor
from repro.parallel.partition import PartitionPlan, partition_topology
from repro.parallel.sharded import (
    MergedCollector,
    ParallelReport,
    run_sharded,
)
from repro.parallel.speedup import (
    SpeedupModel,
    ScatterGatherModel,
    HDispatchModel,
    measure_dispatch_overhead,
    measure_gil_scaling,
)

__all__ = [
    "Port",
    "Arbiter",
    "Dispatcher",
    "WorkItem",
    "SingleItemReceiver",
    "MultipleItemReceiver",
    "JoinReceiver",
    "Choice",
    "Interleave",
    "ScatterGatherExecutor",
    "HDispatchExecutor",
    "PartitionPlan",
    "partition_topology",
    "MergedCollector",
    "ParallelReport",
    "run_sharded",
    "SpeedupModel",
    "ScatterGatherModel",
    "HDispatchModel",
    "measure_dispatch_overhead",
    "measure_gil_scaling",
]
