"""Differential verification subsystem (thesis App. A + ch. 5 practice).

Three pillars keep the simulator honest as it grows:

- :mod:`repro.verification.oracles` — parameter sweeps of the exact
  stations against the closed-form queueing results, gated through the
  :mod:`repro.observability.compare` machinery
  (``python -m repro verify`` / ``make verify-oracles``);
- :mod:`repro.verification.invariants` — a pluggable engine hook that
  asserts conservation laws at every monitor boundary
  (``simulate(observability=ObservabilityOptions(invariants="strict"))``),
  zero-cost when off;
- :mod:`repro.verification.properties` — hypothesis strategies driving
  the invariant checker as the property (see ``tests/verification``).

:mod:`repro.verification.parity` adds the event ≡ adaptive sampled-
window check that the stepping-kernel contract promises, the
sharded ≡ single-process check (:func:`check_sharded`) that gates the
multiprocess backend on a consolidation-fleet window, and the
closed-form ≡ reference storage check (:func:`check_storage`) against
the event-by-event stage chain of :mod:`repro.verification.storage`.
"""

from repro.verification.invariants import (
    ALL_CHECKS,
    DEFAULT_CHECKS,
    InvariantChecker,
    Violation,
    make_checker,
)
from repro.verification.oracles import (
    OracleCase,
    OracleReport,
    OracleResult,
    ParallelOracleOutcome,
    run_case,
    run_case_parallel,
    run_sweeps,
    standard_sweeps,
)
from repro.verification.parity import (
    ParityResult,
    check_sharded,
    check_storage,
    check_window,
    check_windows,
)

__all__ = [
    "ALL_CHECKS",
    "DEFAULT_CHECKS",
    "InvariantChecker",
    "Violation",
    "make_checker",
    "OracleCase",
    "OracleReport",
    "OracleResult",
    "ParallelOracleOutcome",
    "run_case",
    "run_case_parallel",
    "run_sweeps",
    "standard_sweeps",
    "ParityResult",
    "check_sharded",
    "check_storage",
    "check_window",
    "check_windows",
]
