"""Tests for the circuit-breaker state machine and ResilienceState."""

import pytest

from repro.resilience import ResiliencePolicy
from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    ResilienceState,
)


def make_breaker(**kwargs) -> CircuitBreaker:
    defaults = dict(window_s=10.0, min_calls=4, failure_rate=0.5,
                    open_s=5.0, half_open_probes=1)
    defaults.update(kwargs)
    return CircuitBreaker(**defaults)


# ----------------------------------------------------------------------
# closed -> open
# ----------------------------------------------------------------------
def test_stays_closed_below_min_calls():
    br = make_breaker(min_calls=4)
    for t in range(3):
        br.record(False, float(t))
    assert br.state == CLOSED
    assert br.allows(3.0)


def test_opens_at_failure_rate_threshold():
    br = make_breaker(min_calls=4, failure_rate=0.5)
    br.record(True, 0.0)
    br.record(True, 0.1)
    br.record(False, 0.2)
    assert br.state == CLOSED
    br.record(False, 0.3)  # 2/4 failures = threshold
    assert br.state == OPEN
    assert br.opens == 1
    assert not br.allows(0.4)


def test_successes_keep_it_closed():
    br = make_breaker(min_calls=4, failure_rate=0.5)
    for t in range(20):
        br.record(True, float(t))
    assert br.state == CLOSED


def test_window_trims_stale_outcomes():
    br = make_breaker(window_s=5.0, min_calls=3, failure_rate=0.5)
    br.record(False, 0.0)
    br.record(False, 0.1)
    # 10s later the two failures have aged out of the window
    br.record(False, 10.0)
    assert br.state == CLOSED  # only one event in window < min_calls


# ----------------------------------------------------------------------
# open -> half-open -> closed / re-open
# ----------------------------------------------------------------------
def open_breaker(br: CircuitBreaker, now: float = 0.0) -> None:
    for i in range(br.min_calls):
        br.record(False, now + 0.01 * i)
    assert br.state == OPEN


def test_open_rejects_until_open_s_elapses():
    br = make_breaker(open_s=5.0)
    open_breaker(br)
    assert not br.allows(4.9)
    assert br.allows(5.1)  # transitions to half-open
    assert br.state == HALF_OPEN


def test_half_open_admits_limited_probes():
    br = make_breaker(open_s=5.0, half_open_probes=1)
    open_breaker(br)
    assert br.allows(6.0)
    br.on_selected(6.0)  # the probe is in flight
    assert not br.allows(6.1)  # a second request is rejected


def test_allows_is_pure_on_selected_counts():
    """Selection code probes all candidates; only on_selected accounts."""
    br = make_breaker(open_s=5.0, half_open_probes=1)
    open_breaker(br)
    for _ in range(5):
        assert br.allows(6.0)  # repeated checks must not consume probes
    br.on_selected(6.0)
    assert not br.allows(6.0)


def test_probe_success_closes():
    br = make_breaker(open_s=5.0)
    open_breaker(br)
    assert br.allows(6.0)
    br.on_selected(6.0)
    br.record(True, 6.5)
    assert br.state == CLOSED
    assert br.allows(6.6)


def test_probe_failure_reopens():
    br = make_breaker(open_s=5.0)
    open_breaker(br)
    assert br.allows(6.0)
    br.on_selected(6.0)
    br.record(False, 6.5)
    assert br.state == OPEN
    assert br.opens == 2
    assert not br.allows(10.0)  # open window restarted at 6.5
    assert br.allows(11.6)


def test_late_outcomes_ignored_while_open():
    br = make_breaker(open_s=5.0)
    open_breaker(br)
    br.record(True, 1.0)  # pre-open request finishing late
    assert br.state == OPEN


# ----------------------------------------------------------------------
# health coupling
# ----------------------------------------------------------------------
def test_mark_down_force_opens():
    br = make_breaker()
    assert br.state == CLOSED
    br.mark_down(2.0)
    assert br.state == OPEN
    assert br.down
    # still rejected long past open_s: health says it is down
    assert not br.allows(100.0)


def test_mark_up_readmits_via_half_open():
    br = make_breaker(half_open_probes=1)
    br.mark_down(2.0)
    br.mark_up(9.0)
    assert br.state == HALF_OPEN
    assert not br.down
    assert br.allows(9.1)
    br.on_selected(9.1)
    br.record(True, 9.5)
    assert br.state == CLOSED


def test_from_policy_copies_knobs():
    p = ResiliencePolicy(breaker_window_s=42.0, breaker_min_calls=3,
                         breaker_failure_rate=0.25, breaker_open_s=2.0,
                         breaker_half_open_probes=4)
    br = CircuitBreaker.from_policy(p)
    assert br.window_s == 42.0
    assert br.min_calls == 3
    assert br.failure_rate == 0.25
    assert br.open_s == 2.0
    assert br.half_open_probes == 4


# ----------------------------------------------------------------------
# ResilienceState
# ----------------------------------------------------------------------
def test_state_counters_and_stats():
    st = ResilienceState()
    st.count("retries")
    st.count("retries")
    st.count("timeouts", 3)
    stats = st.stats()
    assert stats["retries"] == 2
    assert stats["timeouts"] == 3
    assert stats["abandoned"] == 0
    assert stats["breaker_opens"] == 0
    assert stats["breakers_open_now"] == 0


def test_state_allows_defaults_true_for_unknown_destinations():
    st = ResilienceState()
    assert st.allows("srv-0", 0.0)


def test_state_record_creates_breaker_from_policy():
    p = ResiliencePolicy(breaker_window_s=10.0, breaker_min_calls=2,
                         breaker_failure_rate=0.5)
    st = ResilienceState()
    st.record("db-0", False, 0.0, p)
    st.record("db-0", False, 0.1, p)
    assert not st.allows("db-0", 0.2)
    assert st.stats()["breaker_opens"] == 1
    assert st.stats()["breakers_open_now"] == 1


def test_state_record_skipped_when_breaker_disabled():
    p = ResiliencePolicy(breaker_window_s=None)
    st = ResilienceState()
    for i in range(20):
        st.record("db-0", False, float(i), p)
    assert st.allows("db-0", 20.0)
    assert not st.breakers


def test_running_failure_count_opens_as_a_recount_would():
    """The breaker keeps its window's failure count as it appends, trims
    and clears outcomes; on random outcome streams it opens, closes and
    counts exactly as recounting the window on every outcome does."""
    import random

    class Recount(CircuitBreaker):
        __slots__ = ()

        def record(self, ok, now):
            if self.state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                if ok:
                    self._close(now)
                else:
                    self._open(now)
                return
            if self.state == OPEN:
                return
            self._events.append((now, ok))
            self._trim(now)
            failures = sum(1 for _, k in self._events if not k)
            if (len(self._events) >= self.min_calls
                    and failures / len(self._events) >= self.failure_rate):
                self._open(now)

    for seed in range(200):
        r = random.Random(seed)
        knobs = dict(window_s=r.choice([1.0, 5.0]),
                     min_calls=r.choice([1, 3, 6]),
                     failure_rate=r.choice([0.2, 0.5, 0.9]),
                     open_s=r.choice([0.5, 2.0]))
        brs = [make_breaker(**knobs), Recount(**knobs)]
        now = 0.0
        trail = [[], []]
        for _ in range(300):
            now += r.expovariate(4.0)
            ok = r.random() < 0.6
            step = r.random()
            for br, out in zip(brs, trail):
                if step < 0.05:
                    br.mark_down(now)
                elif step < 0.1:
                    br.mark_up(now)
                elif br.allows(now):
                    br.on_selected(now)
                    br.record(ok, now)
                out.append((br.state, br.opens, len(br._events)))
        assert trail[0] == trail[1], f"seed {seed}"
        assert brs[0]._failures == sum(1 for _, k in brs[0]._events if not k)
