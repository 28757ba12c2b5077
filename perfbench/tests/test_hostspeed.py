"""The host-speed sampler that the run-time metrics are divided by."""

import signal
import time

import hostspeed


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_samples_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with hostspeed.HostSpeed() as speed:
        _busy(0.3)
    end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 3 <= len(speed.samples) <= 0.3 / hostspeed.INTERVAL_S + 1
    assert speed.loop_cpu_s() > 0
    wall, cpu = speed.spent(start, end)
    assert wall == sum(w for _, w, _ in speed.samples)
    assert 0 < cpu < 0.3


def test_a_block_shorter_than_the_interval_still_gets_a_sample():
    with hostspeed.HostSpeed() as speed:
        pass
    assert len(speed.samples) == 1
    assert speed.loop_cpu_s() > 0
