"""Tests for the ch. 9 hardware extensions: cache hierarchy and
time-shared multithreading CPU."""

import pytest

from repro.core import Simulator, Job
from repro.hardware.cache import DEFAULT_HIERARCHY, CacheHierarchy, CacheLevel
from repro.hardware.cpu import TimeSharedCPU


# ----------------------------------------------------------------------
# cache hierarchy (9.1.2)
# ----------------------------------------------------------------------
def test_expected_access_cycles_single_level():
    h = CacheHierarchy(levels=(CacheLevel("L1", 0.9, 4.0),),
                       memory_latency_cycles=100.0)
    # 0.9*4 + 0.1*100 = 13.6
    assert h.expected_access_cycles() == pytest.approx(13.6)


def test_perfect_cache_never_reaches_memory():
    h = CacheHierarchy(levels=(CacheLevel("L1", 1.0, 4.0),),
                       memory_latency_cycles=100.0)
    assert h.expected_access_cycles() == pytest.approx(4.0)
    assert h.miss_to_memory_rate() == 0.0


def test_default_hierarchy_moderate_stall():
    cycles = DEFAULT_HIERARCHY.expected_access_cycles()
    assert 4.0 < cycles < 50.0
    assert DEFAULT_HIERARCHY.miss_to_memory_rate() == pytest.approx(
        0.05 * 0.2 * 0.3, rel=1e-6)


def test_cpi_multiplier_exceeds_one():
    m = DEFAULT_HIERARCHY.cpi_multiplier()
    assert m > 1.0
    # with no memory accesses the workload is unaffected
    assert DEFAULT_HIERARCHY.cpi_multiplier(accesses_per_instruction=0.0) == 1.0


def test_cpi_multiplier_monotone_in_access_intensity():
    light = DEFAULT_HIERARCHY.cpi_multiplier(accesses_per_instruction=0.1)
    heavy = DEFAULT_HIERARCHY.cpi_multiplier(accesses_per_instruction=0.6)
    assert heavy > light


def test_worse_cache_means_higher_cpi():
    bad = CacheHierarchy(levels=(CacheLevel("L1", 0.5, 4.0),),
                         memory_latency_cycles=200.0)
    assert bad.cpi_multiplier() > DEFAULT_HIERARCHY.cpi_multiplier()


def test_cache_validation():
    with pytest.raises(ValueError):
        CacheLevel("L1", 1.5, 4.0)
    with pytest.raises(ValueError):
        CacheHierarchy(levels=())
    with pytest.raises(ValueError):
        DEFAULT_HIERARCHY.cpi_multiplier(accesses_per_instruction=-1.0)


# ----------------------------------------------------------------------
# time-shared CPU (9.1.1)
# ----------------------------------------------------------------------
def run_ts(cpu, jobs, horizon=20.0):
    sim = Simulator(dt=0.001)
    sim.add_agent(cpu)
    done = []
    for demand in jobs:
        cpu.submit(Job(demand, on_complete=lambda j, t: done.append(t)), 0.0)
    sim.run(horizon)
    return done


def test_undersubscribed_runs_at_full_rate():
    cpu = TimeSharedCPU("c", frequency_hz=1e9, cores=2)
    done = run_ts(cpu, [1e9, 1e9])
    assert all(t == pytest.approx(1.0, abs=0.01) for t in done)


def test_oversubscription_pays_switch_overhead():
    cpu = TimeSharedCPU("c", frequency_hz=1e9, cores=2)
    done = run_ts(cpu, [1e9] * 4)
    # perfect sharing would finish at 2.0; 5% overhead -> 2.105
    expected = 2.0 / (1.0 - cpu.switch_overhead_fraction())
    assert all(t == pytest.approx(expected, abs=0.02) for t in done)


def test_all_threads_progress_simultaneously():
    """Unlike the FCFS CPU, no thread starves behind another."""
    cpu = TimeSharedCPU("c", frequency_hz=1e9, cores=1)
    done = run_ts(cpu, [5e8, 5e8])
    # FCFS would finish at 0.5 and 1.0; time sharing finishes both ~1.05
    assert done[0] == pytest.approx(done[1], abs=0.01)
    assert done[0] > 1.0


def test_switch_overhead_capped():
    cpu = TimeSharedCPU("c", frequency_hz=1e9, cores=1,
                        context_switch_cycles=1e12)
    assert cpu.switch_overhead_fraction() == pytest.approx(0.95)


def test_ts_respects_timestamp_guard():
    sim = Simulator(dt=0.001)
    cpu = sim.add_agent(TimeSharedCPU("c", frequency_hz=1e9, cores=1))
    done = []
    cpu.submit(Job(1e8, on_complete=lambda j, t: done.append(t),
                   not_before=0.5), 0.0)
    sim.run(2.0)
    assert done[0] >= 0.5


def test_ts_validation():
    with pytest.raises(ValueError):
        TimeSharedCPU("c", frequency_hz=0.0)
    with pytest.raises(ValueError):
        TimeSharedCPU("c", frequency_hz=1e9, cores=0)
    with pytest.raises(ValueError):
        TimeSharedCPU("c", frequency_hz=1e9, quantum_s=0.0)


def test_repairing_a_running_cpu_keeps_its_schedule():
    """repair() of a CPU that never failed leaves its work as it is."""
    sim = Simulator()
    cpu = sim.add_agent(TimeSharedCPU("c", frequency_hz=1e9, cores=1))
    done = []
    cpu.submit(Job(1e9, on_complete=lambda j, t: done.append(t)), 0.0)
    sim.schedule(0.5, cpu.repair)
    sim.run(5.0)
    assert done == [1.0]
    assert cpu.busy_time == 1.0


@pytest.mark.parametrize("crash", [False, True])
def test_cpu_failed_by_its_own_completion_stops_admitting(crash):
    """A continuation that fails the CPU stops its event loop: a thread
    due at the failure instant starts at the repair."""
    sim = Simulator()
    cpu = sim.add_agent(TimeSharedCPU("c", frequency_hz=1e9, cores=1))

    def fail_cpu(job, t):
        cpu.fail(crash=crash, now=t)
        sim.schedule(6.0, cpu.repair)

    ended = []
    cpu.submit(Job(1e9, on_complete=fail_cpu), 0.0)
    second = Job(1e9, on_complete=lambda j, t: ended.append(t),
                 not_before=1.0)
    cpu.submit(second, 0.0)
    sim.run(10.0)
    assert second.start_time == 6.0
    assert ended == [7.0]
    assert cpu.busy_time == 2.0
