"""FaultSpec / FaultInjector / RetryPolicy: seeded, lazy, reproducible."""

from math import inf, nan

import pytest

from repro.faults import (
    CRASH,
    RECOVER,
    SLOW_END,
    SLOW_START,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
)


def _drain(cursor, count):
    events = []
    for _ in range(count):
        if cursor.head is None:
            break
        events.append(cursor.pop())
    return events


# -- validation ---------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"crash_mtbf_s": 0.0},
        {"crash_mtbf_s": -1.0},
        {"slow_mtbf_s": 0.0},
        {"crash_mttr_s": 0.0},
        {"slow_duration_s": -5.0},
        {"slow_factor": 0.0},
        {"flaky_prob": 1.5},
        {"flaky_prob": -0.1},
        {"crash_windows": ((0, 1.0),)},
        {"crash_windows": ((0, -1.0, 5.0),)},
        {"crash_windows": ((0, 1.0, 0.0),)},
        {"slow_windows": ((0, 1.0, 5.0, 2.0, 9.9),)},
        {"slow_windows": ((0, 1.0, -2.0),)},
        {"crash_mtbf_s": nan},
        {"slow_mtbf_s": inf},
        {"crash_mttr_s": nan},
        {"slow_duration_s": inf},
        {"slow_factor": nan},
        {"crash_windows": ((0, nan, 5.0),)},
        {"crash_windows": ((0, 1.0, inf),)},
        {"slow_windows": ((0, 1.0, 50.0, nan),)},
        {"slow_windows": ((0, 1.0, 50.0, 0.0),)},
    ],
)
def test_fault_spec_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        FaultSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_attempts": 0},
        {"backoff_s": -1.0},
        {"multiplier": 0.0},
        {"jitter": 1.0},
        {"jitter": -0.5},
        {"hedge_after_s": 0.0},
        {"backoff_s": nan},
        {"backoff_s": inf},
        {"multiplier": nan},
        {"hedge_after_s": nan},
    ],
)
def test_retry_policy_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        RetryPolicy(**kwargs)


def test_injector_rejects_empty_fleet():
    with pytest.raises(ValueError):
        FaultInjector(FaultSpec(), 0)


def test_any_faults_is_false_for_the_empty_spec():
    assert not FaultSpec().any_faults
    assert FaultSpec(flaky_prob=0.1).any_faults
    assert FaultSpec(crash_windows=((0, 5.0, 1.0),)).any_faults
    assert FaultSpec(crash_mtbf_s=100.0).any_faults


# -- explicit windows ---------------------------------------------------------

def test_window_schedule_alternates_and_sorts():
    spec = FaultSpec(
        crash_windows=((0, 10.0, 5.0), (0, 2.0, 1.0)),
        slow_windows=((0, 20.0, 4.0, 3.0),),
    )
    events = _drain(FaultInjector(spec, 1).cursor(0), 10)
    assert [(e.time_s, e.action) for e in events] == [
        (2.0, CRASH),
        (3.0, RECOVER),
        (10.0, CRASH),
        (15.0, RECOVER),
        (20.0, SLOW_START),
        (24.0, SLOW_END),
    ]
    assert events[4].factor == 3.0


def test_same_instant_orders_ends_before_starts():
    """A recovery and a crash at one instant: the device must come up
    before it goes back down, so the gate never sees down->down."""
    spec = FaultSpec(crash_windows=((0, 1.0, 4.0), (0, 5.0, 2.0)))
    events = _drain(FaultInjector(spec, 1).cursor(0), 10)
    assert [(e.time_s, e.action) for e in events] == [
        (1.0, CRASH),
        (5.0, RECOVER),
        (5.0, CRASH),
        (7.0, RECOVER),
    ]


def test_windows_only_reach_their_device():
    spec = FaultSpec(crash_windows=((1, 5.0, 2.0),))
    injector = FaultInjector(spec, 3)
    assert injector.cursor(0).head is None
    assert injector.cursor(2).head is None
    assert injector.cursor(1).head_time == 5.0


# -- random schedules ---------------------------------------------------------

def test_random_schedules_are_seed_deterministic():
    spec = FaultSpec(seed=42, crash_mtbf_s=100.0, crash_mttr_s=10.0)
    first = _drain(FaultInjector(spec, 2).cursor(0), 6)
    second = _drain(FaultInjector(spec, 2).cursor(0), 6)
    assert [(e.time_s, e.action) for e in first] == [
        (e.time_s, e.action) for e in second
    ]
    # Alternating crash/recover, strictly increasing time.
    assert [e.action for e in first] == [CRASH, RECOVER] * 3
    times = [e.time_s for e in first]
    assert times == sorted(times) and len(set(times)) == len(times)


def test_random_schedules_decorrelate_across_devices_and_seeds():
    spec = FaultSpec(seed=42, crash_mtbf_s=100.0)
    injector = FaultInjector(spec, 2)
    assert injector.cursor(0).head_time != injector.cursor(1).head_time
    other = FaultInjector(FaultSpec(seed=43, crash_mtbf_s=100.0), 2)
    assert injector.cursor(0).head_time != other.cursor(0).head_time


def test_exhausted_schedule_pop_raises():
    injector = FaultInjector(FaultSpec(), 1)
    cursor = injector.cursor(0)
    assert cursor.head is None and cursor.head_time is None
    with pytest.raises(IndexError):
        cursor.pop()


# -- flaky draws --------------------------------------------------------------

def test_attempt_fails_is_deterministic_and_edge_probabilities_hold():
    injector = FaultInjector(FaultSpec(seed=1, flaky_prob=0.5), 1)
    draws = [injector.attempt_fails(rid, 1) for rid in range(200)]
    assert draws == [injector.attempt_fails(rid, 1) for rid in range(200)]
    assert 40 < sum(draws) < 160  # unbiased-ish, not all-or-nothing
    never = FaultInjector(FaultSpec(flaky_prob=0.0), 1)
    always = FaultInjector(FaultSpec(flaky_prob=1.0), 1)
    assert not any(never.attempt_fails(rid, 1) for rid in range(50))
    assert all(always.attempt_fails(rid, 1) for rid in range(50))


def test_attempt_fails_salt_separates_hedge_draws():
    injector = FaultInjector(FaultSpec(seed=9, flaky_prob=0.5), 1)
    plain = [injector.attempt_fails(rid, 1) for rid in range(100)]
    hedged = [injector.attempt_fails(rid, 1, "hedge") for rid in range(100)]
    assert plain != hedged


# -- retry backoff ------------------------------------------------------------

def test_retry_delay_is_exponential_without_jitter():
    policy = RetryPolicy(max_attempts=4, backoff_s=0.5, multiplier=2.0)
    assert [policy.delay_s(attempt, 7) for attempt in (1, 2, 3)] == [0.5, 1.0, 2.0]


def test_retry_jitter_is_seeded_and_bounded():
    policy = RetryPolicy(backoff_s=1.0, multiplier=1.0, jitter=0.25, seed=3)
    delays = [policy.delay_s(1, rid) for rid in range(100)]
    assert delays == [policy.delay_s(1, rid) for rid in range(100)]
    assert all(0.75 <= delay <= 1.25 for delay in delays)
    assert len(set(delays)) > 10  # jitter actually decorrelates requests
