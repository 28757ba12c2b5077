"""Cascades as data: one request object per operation, one reused job per
message, and resilience timeouts kept in one deadline heap.

These pin what the representation buys: how many jobs a run allocates,
how many calendar entries timeouts cost, and that the steps of a
cascade are methods of plain objects rather than closures made per
operation or per hop.
"""

import types

import repro.core.job as job_module
from repro.core import Simulator
from repro.observability.trace import TraceRecorder
from repro.resilience import ResilienceConfig, ResiliencePolicy
from repro.software import cascade
from repro.software.cascade import CascadeRunner
from repro.software.client import Client
from repro.software.message import CLIENT, MessageSpec
from repro.software.operation import Operation
from repro.software.placement import SingleMasterPlacement
from repro.software.resources import R
from repro.topology import server as server_module
from repro.topology.network import GlobalTopology
from repro.validation.experiments import EXPERIMENTS, run_experiment

from tests.conftest import small_dc_spec

#: client -> app -> db -> app -> client, with a disk read at the db
FOUR_HOP_OP = Operation("OP", [
    MessageSpec(CLIENT, "app", r=R.of(cycles=1e8, net_kb=8)),
    MessageSpec("app", "db", r=R.of(cycles=5e7, net_kb=4, disk_kb=64)),
    MessageSpec("db", "app", r=R.of(net_kb=16)),
    MessageSpec("app", CLIENT, r=R.of(net_kb=8)),
])


def test_cascade_steps_define_no_closures():
    """No step of a cascade builds a function object per operation or
    per hop: the steps are methods of the request, message and leg."""
    steps = [(cls, name, fn)
             for cls in (CascadeRunner, cascade._Request, cascade._Message,
                         server_module.Leg)
             for name, fn in vars(cls).items()]
    # the recorder's per-job and per-cascade hooks (its read API may
    # build lists)
    steps += [(TraceRecorder, name, getattr(TraceRecorder, name))
              for name in ("on_submit", "on_finish", "start_cascade",
                           "end_cascade")]
    for cls, name, fn in steps:
        code = getattr(fn, "__code__", None)
        if code is not None:
            nested = [c.co_name for c in code.co_consts
                      if isinstance(c, types.CodeType)]
            assert nested == [], f"{cls.__name__}.{name} defines {nested}"


def test_job_allocation_is_one_per_message_plus_storage_admission(
        monkeypatch):
    """A 60 s chapter 5 slice allocates exactly one job per message (its
    hops reuse it) plus one per storage admission."""
    sent = [0]
    send = cascade._Message.send

    def counting_send(self, now):
        sent[0] += 1
        send(self, now)

    monkeypatch.setattr(cascade._Message, "send", counting_send)
    admitted = [0]
    init = server_module.Server.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        submit = self._storage_submit
        if submit is not None:
            def counted(job, t):
                admitted[0] += 1
                submit(job, t)

            self._storage_submit = counted

    monkeypatch.setattr(server_module.Server, "__init__", counting_init)
    before = next(job_module._job_ids)
    result = run_experiment(EXPERIMENTS[0], until=60.0, seed=42)
    created = next(job_module._job_ids) - before - 1
    assert len(result.records) == 36
    assert (sent[0], admitted[0]) == (967, 242)
    assert created == sent[0] + admitted[0] == 1209


# ----------------------------------------------------------------------
# resilience timeouts as request state
# ----------------------------------------------------------------------
def _world(timeout_s, hang=False):
    """Six staggered four-message operations on one small DC.

    With ``hang`` one app server is paused at 31 ms and repaired at 3 s,
    so the two operations routed to it time out, fail over and leave
    their first attempts to finish late as orphans."""
    sim = Simulator(dt=0.01, trace="full", profile=True)
    topo = GlobalTopology(seed=1)
    topo.add_datacenter(small_dc_spec("DNA"))
    sim.add_holon(topo.datacenter("DNA"))
    runner = CascadeRunner(topo, SingleMasterPlacement("DNA", local_fs=False),
                           seed=2, tracer=sim.trace)
    armed = []

    def schedule(when, fn):
        if fn == runner._deadlines_due:
            armed.append(when)
        sim.schedule(when, fn)

    policy = ResiliencePolicy(timeout_s=timeout_s, max_attempts=3,
                              backoff_base_s=0.05, backoff_jitter=0.0,
                              breaker_window_s=None)
    runner.arm_resilience(ResilienceConfig(default=policy), schedule)
    client = Client("c", "DNA", seed=1)
    sim.add_holon(client)
    if hang:
        hung = topo.datacenter("DNA").tier("app").servers[0]
        sim.schedule(0.031, lambda t: hung.fail(crash=False, now=t))
        sim.schedule(3.0, lambda t: hung.repair(t))
    for i in range(6):
        sim.schedule(0.013 * i,
                     lambda t: runner.launch(FOUR_HOP_OP, client, t))
    sim.run(10.0)
    records = [(r.start, r.end, r.failed, r.retries, r.abandoned)
               for r in runner.records]
    return sim, runner, records, armed


def test_settled_messages_arm_no_timeout_of_their_own():
    """24 messages that all land well inside their 0.5 s deadlines put one
    calendar entry on the calendar, at the first send's deadline, not
    one per message; that entry finds nothing due and re-arms nothing,
    so the timeouts cost the run one boundary in all."""
    plain_sim, _, plain, _ = _world(None)
    sim, runner, records, armed = _world(0.5)
    assert records == plain
    assert max(end for _, end, *_ in records) < 0.5
    assert armed == [0.5]
    assert sim.profiler.ticks == plain_sim.profiler.ticks + 1
    assert runner.resilience_stats()["timeouts"] == 0


def test_hung_destination_times_out_at_its_deadline_and_retries():
    """A paused destination still times out at exactly send + timeout_s,
    fails over, retries after the backoff, and the run's records are the
    ones every message's own calendar timeout produced."""
    sim, runner, records, armed = _world(0.5, hang=True)
    assert records == [
        (0.013, 0.06695431626666669, False, 0, False),
        (0.039, 0.09295431626666667, False, 0, False),
        (0.052, 0.10595431626666667, False, 0, False),
        (0.065, 0.12628764959999997, False, 0, False),
        (0.0, 0.6039543162666666, False, 1, False),
        (0.026, 0.6299543162666666, False, 1, False),
    ]
    stats = runner.resilience_stats()
    assert (stats["timeouts"], stats["retries"], stats["failovers"],
            stats["orphan_completions"]) == (2, 2, 2, 2)
    markers = [(row[4], row[7], row[8]) for row in sim.trace.rows()
               if row[3] == "resilience"]
    assert markers == [
        ("OP[0] timeout", 0.0, 0.0 + 0.5),
        ("OP[0] retry#1 (timeout)", 0.5, 0.55),
        ("OP[0] timeout", 0.026, 0.026 + 0.5),
        ("OP[0] retry#1 (timeout)", 0.526, 0.526 + 0.05),
    ]
    # each deadline that fired had the calendar entry; the one armed
    # after the retries found every later message settled in time
    assert armed == [0.5, 0.026 + 0.5, 1.05]
