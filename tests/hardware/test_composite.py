"""Composite scheduling: a hand-off between two stations of a composite
whose start lies inside the engine's guard is served at the boundary of
the completion that made it, with no extra boundary."""

from repro.core import Job, Simulator
from repro.hardware.composite import CompositeAgent
from repro.hardware.cpu import CPU
from repro.queueing import FCFSQueue


class _Pair(CompositeAgent):
    """Two FCFS stations; ``enqueue`` feeds the first."""

    agent_type = "pair"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.first = FCFSQueue(f"{name}.first", rate=1.0)
        self.second = FCFSQueue(f"{name}.second", rate=1.0)
        self._adopt_children()

    def _child_agents(self):
        return (self.first, self.second)

    def enqueue(self, job: Job, now: float) -> None:
        self.first.enqueue(job, now)


def test_sub_guard_handoff_is_served_at_one_boundary():
    sim = Simulator(profile=True)
    pair = sim.add_agent(_Pair("pair"))
    done = []
    late_start = 1.0 + 5e-10  # inside the engine's 1e-9 guard

    def handoff(_job, t):
        done.append(("first", t))
        # starts after ``t`` but inside the guard: the second station's
        # enqueue serves it while the composite forwards the boundary
        pair.second.submit(Job(2.0, on_complete=lambda j, t2: done.append(
            ("second", t2)), not_before=late_start), t)

    pair.submit(Job(1.0, on_complete=handoff), 0.0)
    sim.run(5.0)
    assert done == [("first", 1.0), ("second", late_start + 2.0)]
    # one boundary serves both stations at 1.0, one the completion at
    # 3.0 + 5e-10, and the run's horizon drain adds the last
    assert sim.profiler.ticks == 3
    assert pair.queue_length() == 0 and pair.next_event_time() == float("inf")


def test_composite_failed_twice_resumes_every_station_on_repair():
    """A second failure while down must not forget the stations the
    first one stopped: one repair brings every socket queue back."""
    sim = Simulator()
    cpu = sim.add_agent(CPU("cpu", frequency_hz=1e9, sockets=2, cores=1))
    done = []
    sim.schedule(0.0, lambda now: cpu.submit(
        Job(1e9, on_complete=lambda j, t: done.append(t)), now))
    sim.schedule(0.5, lambda now: cpu.fail(crash=False, now=now))
    sim.schedule(0.7, lambda now: cpu.fail(crash=False, now=now))
    sim.schedule(1.0, lambda now: cpu.repair(now))
    sim.run(5.0)
    assert not any(q.paused for q in cpu.socket_queues)
    # 0.5 s served before the failure, the other 0.5 s after the repair
    assert done == [1.5]
    assert cpu.queue_length() == 0
