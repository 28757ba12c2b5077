"""Whole-fleet exactness of the closed-form storage schedules.

A 64-region consolidation fleet runs 15 s on the scalar kernel with no
monitors, once with the closed-form SAN/RAID schedules and once with
every storage composite switched to the event-by-event reference path
(:mod:`repro.verification.storage`).  Every storage agent's
``busy_time`` must agree to the bit and its ``queue_hwm`` exactly: the
perfbench digest leaves both out, and the storage pin's SANs never hold
more than two requests, so neither would catch a stripe counted as one
job or a busy sum taken in another order.  (The fleet's server RAIDs
see no I/O: its storage traffic goes to the SANs.)
"""

from repro.studies.fleet import fleet_scenario
from repro.verification.storage import use_reference_storage

SEED = 42
HORIZON_S = 15.0
N_REGIONS = 64


def _storage_state(reference: bool):
    scenario = fleet_scenario(N_REGIONS, seed=SEED)
    if reference:
        use_reference_storage(scenario.topology)
    result = scenario.prepare(kernel="scalar").run(HORIZON_S)
    state = {}
    for agent in scenario.topology.all_agents():
        if agent.agent_type == "san":
            state[agent.name] = (agent._busy_seconds().hex(),
                                 agent.queue_hwm, agent.arrivals,
                                 agent._completions())
    return state, result


def test_fleet_storage_busy_and_hwm_equal_reference():
    closed, closed_result = _storage_state(reference=False)
    ref, ref_result = _storage_state(reference=True)
    assert len(closed) == N_REGIONS + 2
    assert max(hwm for _, hwm, _, _ in ref.values()) > 20
    diff = {name: (closed[name], ref[name]) for name in ref
            if closed[name] != ref[name]}
    assert not diff, f"{len(diff)} storage agents differ: {list(diff)[:3]}"
    assert closed_result.records == ref_result.records
