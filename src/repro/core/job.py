"""Jobs: the unit of demand consumed by queueing agents.

A *job* is one interaction between a message and a single hardware agent
(section 4.3.3): e.g. "consume 2.57e8 CPU cycles" or "transmit 250 KB".
When the agent finishes consuming the demand it invokes the job's
continuation, which typically submits the next hop of the message cascade
to the next agent.  A message reuses one job for all of its hops
(:meth:`Job.reuse`), so a job object outlives any one agent's service.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

_job_ids = itertools.count()


class Job:
    """A unit of work submitted to an agent's queue.

    Parameters
    ----------
    demand:
        Amount of work in the agent's native unit (CPU cycles, bits,
        bytes...).  Zero-demand jobs complete on the tick they start.
    on_complete:
        Continuation invoked as ``on_complete(job, now)`` when the demand is
        fully consumed.
    not_before:
        Timestamp-consistency guard (section 4.3.3): the job may not begin
        service before this simulation time.
    tag:
        Free-form metadata (operation name, message index, client id...).
    """

    __slots__ = (
        "job_id",
        "demand",
        "remaining",
        "on_complete",
        "not_before",
        "tag",
        "enqueue_time",
        "start_time",
        "finish_at",
        "complete_time",
        "cascade",
        "span_id",
        "parent_id",
        "lane",
    )

    def __init__(
        self,
        demand: float,
        on_complete: Optional[Callable[["Job", float], None]] = None,
        not_before: float = 0.0,
        tag: Any = None,
    ) -> None:
        if demand < 0.0:
            raise ValueError(f"job demand must be non-negative, got {demand}")
        self.job_id = next(_job_ids)
        self.demand = float(demand)
        self.remaining = float(demand)
        self.on_complete = on_complete
        self.not_before = float(not_before)
        self.tag = tag
        self.enqueue_time: float | None = None
        self.start_time: float | None = None
        # absolute completion time while in service (event kernel); None
        # while waiting or when service has been interrupted by a pause
        self.finish_at: float | None = None
        self.complete_time: float | None = None
        # trace stamp, set by the recorder at submit while a cascade
        # context is active: the context, this hop's span id, its parent
        # span id and the agent serving it (whose recorder records the
        # span when the job finishes)
        self.cascade: Any = None
        self.span_id: int | None = None
        self.parent_id: int | None = None
        self.lane: Any = None

    @property
    def done(self) -> bool:
        """Whether the demand has been fully consumed."""
        return self.remaining <= 1e-12

    @property
    def response_time(self) -> float | None:
        """Sojourn time (enqueue to completion), if the job has completed."""
        if self.complete_time is None or self.enqueue_time is None:
            return None
        return self.complete_time - self.enqueue_time

    def reuse(
        self,
        demand: float,
        not_before: float,
        on_complete: Optional[Callable[["Job", float], None]],
    ) -> None:
        """Load the next hop's demand into this finished job.

        Clears the per-service state (start, completion, trace stamp);
        the tag stays, since every hop of one message shares it."""
        self.demand = self.remaining = float(demand)
        self.not_before = not_before
        self.on_complete = on_complete
        self.start_time = None
        self.complete_time = None
        self.cascade = None

    def finish(self, now: float) -> None:
        """Mark the job complete at ``now`` and fire the continuation.

        A traced job hands over to its recorder, which records the span
        and runs the continuation inside the job's cascade context."""
        self.remaining = 0.0
        self.complete_time = now
        if self.cascade is not None:
            self.lane._tracer.on_finish(self, now)
        elif self.on_complete is not None:
            self.on_complete(self, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(id={self.job_id}, demand={self.demand:.3g}, "
            f"remaining={self.remaining:.3g}, tag={self.tag!r})"
        )
