"""Queueing-network substrate.

Queue-server agents implementing the disciplines used by the thesis's
hardware models (section 3.4.2): multi-server FCFS (``M/M/c``),
processor-sharing with a connection cap (``M/M/1-PSk``), and fork-join
structures for disk arrays.  The :mod:`repro.queueing.analytic` module
provides the classical closed-form results used to cross-validate the
simulated queues, and :mod:`repro.queueing.kendall` parses the Kendall
notation of Appendix A.

:mod:`repro.queueing.soa` holds the bank behind
``simulate(engine=EngineOptions(kernel="vector"))``, which keys a tier's
stations behind one engine agent (the stations themselves are the same
under both kernels); it is imported lazily, only by runs that select
it.  The event-by-event FCFS loop that :class:`FCFSQueue`'s closed form
replaces lives on as :mod:`repro.verification.fcfs`.
"""

from repro.queueing.fcfs import FCFSQueue
from repro.queueing.ps import PSQueue
from repro.queueing.forkjoin import ForkJoin
from repro.queueing.kendall import KendallSpec, parse_kendall
from repro.queueing import analytic

__all__ = [
    "FCFSQueue",
    "PSQueue",
    "ForkJoin",
    "KendallSpec",
    "parse_kendall",
    "analytic",
]
