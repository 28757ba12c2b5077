"""Unit tests for the memory agent (caching + occupancy)."""

import pytest

from repro.hardware import Memory


def test_allocate_and_release():
    mem = Memory("m", size_bytes=100.0)
    assert mem.allocate(60.0)
    assert mem.allocated == 60.0
    mem.release(20.0)
    assert mem.allocated == 40.0


def test_allocation_failure_counted():
    mem = Memory("m", size_bytes=100.0)
    assert not mem.allocate(150.0)
    assert mem.failed_allocations == 1
    assert mem.allocated == 0.0


def test_peak_tracking():
    mem = Memory("m", size_bytes=100.0)
    mem.allocate(80.0)
    mem.release(80.0)
    mem.allocate(10.0)
    assert mem.peak_allocated == 80.0


def test_cache_hit_rate_statistics():
    mem = Memory("m", size_bytes=100.0, cache_hit_rate=0.7, seed=42)
    hits = sum(mem.is_cache_hit() for _ in range(5000))
    assert hits / 5000 == pytest.approx(0.7, abs=0.03)


def test_pool_floor_reproduces_flat_profile():
    """Section 5.3.3: real servers report flat pool-sized occupancy."""
    mem = Memory("m", size_bytes=64.0, pool_bytes=32.0)
    assert mem.occupancy_bytes == 32.0
    mem.allocate(10.0)
    assert mem.occupancy_bytes == 32.0  # still the pool floor
    mem.allocate(30.0)
    assert mem.occupancy_bytes == 40.0  # client demand exceeds the pool


def test_release_never_goes_negative():
    mem = Memory("m", size_bytes=10.0)
    mem.release(5.0)
    assert mem.allocated == 0.0


def test_validation():
    with pytest.raises(ValueError):
        Memory("m", size_bytes=0.0)
    with pytest.raises(ValueError):
        Memory("m", size_bytes=10.0, cache_hit_rate=1.5)
    with pytest.raises(ValueError):
        Memory("m", size_bytes=10.0, pool_bytes=20.0)


def test_sample_reports_occupancy_fraction():
    mem = Memory("m", size_bytes=100.0)
    mem.allocate(25.0)
    sample = mem.sample(1.0)
    assert sample["utilization"] == pytest.approx(0.25)
    assert sample["occupancy_bytes"] == 25.0


def test_cold_cache_builds_no_generator_and_draws_nothing():
    mem = Memory("m", size_bytes=100.0, seed=42)
    assert not any(mem.is_cache_hit() for _ in range(100))
    assert mem._stream is None  # no generator was ever built


def test_warm_cache_draws_the_seeded_sequence():
    import random

    mem = Memory("m", size_bytes=100.0, cache_hit_rate=0.3, seed=7)
    rng = random.Random(7)
    assert ([mem.is_cache_hit() for _ in range(200)]
            == [rng.random() < 0.3 for _ in range(200)])
