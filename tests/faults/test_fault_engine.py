"""The fault-aware event loop: identity, equivalence, and chaos semantics.

Three invariants anchor this file:

* **Identity** — a benign :class:`FaultSpec` (nothing fires inside the
  makespan) routed through the fault engine reproduces the *same* golden
  trace hashes the plain loops pin in ``tests/memory``: the engine is a
  superset, not a fork.
* **Equivalence** — chaos on, the coalesced run (``max_steps=None``)
  stays byte-identical to the step-by-step reference (``max_steps=1``)
  across schedulers and routers: crash, recovery, slowdown and shed
  boundaries are all "interesting" and fast-forward never crosses them.
* **Semantics** — crashes abort and re-queue in-flight work, retries and
  deadlines do what they say, and the :class:`FaultReport` arithmetic
  (availability, time-to-recover) is exact.
"""

import hashlib
import random
from collections import deque

import pytest

from serving_toys import ToyBackend, assert_same_trace

from repro.api import InferenceRequest
from repro.faults import FaultSpec, RetryPolicy
from repro.faults.engine import FaultGate
from repro.fleet import build_fleet, get_router, simulate_fleet
from repro.serving import (
    BackendCostModel,
    ContinuousBatchScheduler,
    FCFSScheduler,
    PoissonWorkload,
    RequestRecord,
    ServingRequest,
    SLOSpec,
    StaticBatchScheduler,
    load_bundled_trace,
    simulate,
)

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24)
SLO = SLOSpec(ttft_s=10.0, e2e_s=60.0)

#: A crash scheduled far beyond any makespan: the engine runs, nothing fires.
BENIGN = FaultSpec(crash_windows=((0, 1e9, 1.0),))

#: Everything at once: a crash and a slowdown inside the busy region,
#: flaky verdicts, client retries and a deadline tight enough to bite.
CHAOS = FaultSpec(
    crash_windows=((0, 4.0, 3.0),),
    slow_windows=((0, 12.0, 6.0, 2.5),),
    flaky_prob=0.05,
    seed=7,
)
RETRY = RetryPolicy(max_attempts=3, backoff_s=0.5)

_SCHEDULERS = {
    "fcfs": lambda: FCFSScheduler(),
    "static": lambda: StaticBatchScheduler(max_batch=4),
    "continuous": lambda: ContinuousBatchScheduler(max_batch=4),
}


def _mixed_payload(rng: random.Random, index: int) -> InferenceRequest:
    return PAYLOAD.with_overrides(gen_tokens=rng.choice([1, 7, 24, 64]))


def _poisson(n=150):
    return PoissonWorkload(3.0, _mixed_payload, seed=11).generate(n)


def _serve(arrivals, scheduler=None, **kwargs):
    return simulate(
        arrivals,
        ToyBackend(),
        scheduler if scheduler is not None else ContinuousBatchScheduler(max_batch=4),
        slo=SLO,
        **kwargs,
    )


def _fleet(arrivals, router="jsq", scheduler="continuous", num=4, **kwargs):
    fleet = build_fleet(
        [ToyBackend(ttft=1.0, step=0.1)] * num,
        scheduler_factory=_SCHEDULERS[scheduler],
    )
    router_obj = get_router(router) if isinstance(router, str) else router
    return simulate_fleet(arrivals, fleet, router_obj, slo=SLO, **kwargs)


# -- identity: the benign engine reproduces the plain goldens -----------------
# Same recipes and hashes as tests/memory/test_memory_serving.py — but here
# the run goes THROUGH the fault engine (faults= is non-None), so the whole
# delegated path is pinned, not just the untouched plain loop.

GOLDEN_SHA256 = {
    ("serve", "poisson"):
        "b6e881d5be6ed622e4821cfc94fbdbaaf301a725d94c3ce28103ef8e8d723b50",
    ("fleet", "poisson"):
        "673b111d3cde25ae2196ad9ed67030773daa4b76791f166057f39dd7b5c16024",
    ("serve", "diurnal"):
        "c3fec9f34262b6eb000fe8a11abe2ef44966501ae9fe48d682d865d1ba2640c6",
    ("fleet", "diurnal"):
        "efc422fe93a11f0bca548bef4ef0e4daa577d32bd1d7fd81695ac67080a7dfaa",
}

WORKLOADS = {
    "poisson": _poisson,
    "diurnal": lambda: load_bundled_trace("diurnal").generate(150),
}


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("shape", ["serve", "fleet"])
def test_benign_faults_reproduce_the_golden_traces(shape, workload_name):
    arrivals = WORKLOADS[workload_name]()
    if shape == "serve":
        report = _serve(arrivals, faults=BENIGN)
    else:
        report = _fleet(arrivals, faults=BENIGN)
    digest = hashlib.sha256(report.to_csv().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[(shape, workload_name)]
    assert report.faults is not None
    assert report.faults.crashes == 0
    assert report.faults.availability == 1.0
    assert report.faults.shed == report.faults.timed_out == report.faults.failed == 0


@pytest.mark.parametrize("faults", [None, BENIGN], ids=["plain", "benign"])
def test_plain_records_keep_their_defaults_under_benign_faults(faults):
    """Only an armed run stamps attempts: once, at delivery."""
    report = _serve(_poisson(40), faults=faults)
    for record in report.records:
        assert record.outcome is None and record.retries == 0
        if faults is None:
            assert record.attempts == 0 and record.attempt_s is None
        else:
            assert record.attempts == 1 and record.attempt_s == [record.arrival_s]


# -- equivalence: coalesced == step-by-step under chaos -----------------------

@pytest.mark.parametrize("scheduler", sorted(_SCHEDULERS))
def test_serve_chaos_is_byte_identical_under_coalescing(scheduler):
    arrivals = _poisson()
    kwargs = dict(faults=CHAOS, retry=RETRY, deadline_s=45.0)
    coalesced = _serve(arrivals, _SCHEDULERS[scheduler](), **kwargs)
    reference = _serve(arrivals, _SCHEDULERS[scheduler](), max_steps=1, **kwargs)
    assert coalesced.to_csv() == reference.to_csv()
    assert coalesced.makespan_s == reference.makespan_s
    assert coalesced.faults == reference.faults


FLEET_CHAOS = FaultSpec(
    crash_windows=((1, 3.0, 4.0),),
    slow_windows=((2, 8.0, 5.0, 3.0),),
    flaky_prob=0.05,
    seed=3,
)


@pytest.mark.parametrize(
    "scheduler,router",
    [("continuous", name) for name in
     ("round-robin", "jsq", "least-work", "slo-aware", "failover")]
    + [("fcfs", "jsq"), ("static", "jsq")],
)
def test_fleet_chaos_is_byte_identical_under_coalescing(scheduler, router):
    arrivals = _poisson()
    kwargs = dict(faults=FLEET_CHAOS, retry=RETRY, deadline_s=45.0)
    coalesced = _fleet(arrivals, router, scheduler, **kwargs)
    reference = _fleet(arrivals, router, scheduler, max_steps=1, **kwargs)
    assert coalesced.to_csv() == reference.to_csv()
    assert coalesced.makespan_s == reference.makespan_s
    assert coalesced.faults == reference.faults


def test_chaos_runs_are_seed_deterministic():
    first = _fleet(_poisson(), "failover", faults=FLEET_CHAOS, retry=RETRY,
                   deadline_s=45.0)
    second = _fleet(_poisson(), "failover", faults=FLEET_CHAOS, retry=RETRY,
                    deadline_s=45.0)
    assert first.to_csv() == second.to_csv()
    assert first.faults == second.faults


# -- crash semantics ----------------------------------------------------------

def test_crash_requeues_in_flight_work_and_everything_still_finishes():
    report = _serve(_poisson(60), faults=FaultSpec(crash_windows=((0, 4.0, 3.0),)))
    assert report.faults.crashes == 1
    assert report.faults.recoveries == 1
    assert report.faults.requeued > 0
    assert report.num_completed == 60  # no client policy needed: server re-queues
    # A re-queued record was re-dispatched: extra attempts, zero retries.
    assert any(record.attempts > 1 for record in report.records)
    assert all(record.retries == 0 for record in report.records)


def test_recovery_arithmetic_is_exact():
    duration = 3.0
    report = _serve(_poisson(60), faults=FaultSpec(crash_windows=((0, 4.0, duration),)))
    assert report.faults.time_to_recover_s == (duration,)
    assert report.faults.mean_time_to_recover_s == duration
    assert report.faults.max_time_to_recover_s == duration
    assert report.faults.downtime_s == duration
    assert report.faults.availability == pytest.approx(
        1.0 - duration / report.makespan_s
    )


def test_unrecovered_crash_truncates_downtime_at_the_makespan():
    # Crash opens mid-run and never closes: downtime counts to the end,
    # but no time-to-recover sample is recorded.
    report = _fleet(
        _poisson(40),
        "failover",
        faults=FaultSpec(crash_windows=((3, 1.0, 1e9),)),
    )
    faults = report.faults
    assert faults.crashes == 1 and faults.recoveries == 0
    assert faults.time_to_recover_s == ()
    assert faults.downtime_s == pytest.approx(report.makespan_s - 1.0)
    assert faults.availability == pytest.approx(
        1.0 - (report.makespan_s - 1.0) / (4 * report.makespan_s)
    )


def test_a_crash_empties_the_queue_depth_statistics_at_once():
    """Device 0 queues two of its three requests until it crashes at t=1;
    the crash re-routes them to device 1, so device 0's queue is empty
    from t=1 on, not from its next planning call after the recovery."""
    from repro.serving import ServingRequest

    payload = PAYLOAD.with_overrides(gen_tokens=64)
    fleet = build_fleet(
        [ToyBackend(ttft=0.3, step=0.1)] * 2,
        scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=1),
    )
    report = simulate_fleet(
        [ServingRequest(0.0, i, payload) for i in range(6)],
        fleet,
        get_router("failover"),
        faults=FaultSpec(crash_windows=((0, 1.0, 100.0),), seed=0),
    )
    crashed = report.device_reports[0]
    assert crashed.max_queue_depth == 2
    assert crashed.mean_queue_depth == 2 * 1.0 / report.makespan_s


def test_slowdown_stretches_latency_inside_the_window_only():
    clean = _serve(_poisson(40), faults=BENIGN)
    slowed = _serve(
        _poisson(40),
        faults=FaultSpec(slow_windows=((0, 0.0, 1e6, 4.0),)),
    )
    assert slowed.faults.slow_windows == 1
    assert slowed.makespan_s > clean.makespan_s
    assert slowed.num_completed == 40


# -- client policies ----------------------------------------------------------

def test_flaky_failures_retry_then_exhaust():
    always = FaultSpec(flaky_prob=1.0)
    report = _serve(_poisson(10), faults=always,
                    retry=RetryPolicy(max_attempts=3, backoff_s=0.25))
    faults = report.faults
    assert faults.failed == 10
    assert faults.retries == 20  # two client retries per request
    assert all(record.outcome == "failed" for record in report.records)
    assert all(record.attempts == 3 and record.retries == 2
               for record in report.records)
    assert report.num_completed == 0


def test_flaky_without_retry_fails_on_the_first_attempt():
    report = _serve(_poisson(10), faults=FaultSpec(flaky_prob=1.0))
    assert report.faults.failed == 10
    assert report.faults.retries == 0
    assert all(record.attempts == 1 for record in report.records)


def test_deadline_sheds_queued_work_and_times_out_finished_work():
    # ToyBackend needs 1 + 24*0.1 = 3.4 s per request; a 5 s deadline under
    # a deep backlog forces both outcomes.
    arrivals = PoissonWorkload(30.0, PAYLOAD, seed=5).generate(40)
    report = _serve(arrivals, FCFSScheduler(), faults=BENIGN, deadline_s=5.0)
    faults = report.faults
    assert faults.shed > 0
    assert faults.timed_out > 0
    # Timed-out requests ran to completion, so they count in num_completed.
    assert faults.shed + report.num_completed == 40
    for record in report.records:
        if record.outcome == "shed":
            assert record.finish_s is None and record.prefill_start_s is None
        elif record.outcome == "timed_out":
            # Timed-out requests ran to completion, past their deadline.
            assert record.finish_s is not None
            assert record.finish_s - record.source.arrival_s > 5.0


def test_a_drained_scheduler_reruns_plain_after_a_fault_aware_run():
    """The fault engine detaches the gates it attached when the run ends,
    so the drained scheduler's plain rerun is a fresh scheduler's run
    (it used to shed through the old run's callbacks and fail)."""
    arrivals = PoissonWorkload(3.0, PAYLOAD, seed=1).generate(200)
    scheduler = ContinuousBatchScheduler(max_batch=2)
    faulted = simulate(
        arrivals, ToyBackend(ttft=0.3, step=0.1), scheduler, deadline_s=2.0
    )
    assert faulted.faults.shed > 0
    assert scheduler.pending == 0 and scheduler.faults is None
    rerun = simulate(arrivals, ToyBackend(ttft=0.3, step=0.1), scheduler)
    fresh = simulate(
        arrivals, ToyBackend(ttft=0.3, step=0.1), ContinuousBatchScheduler(max_batch=2)
    )
    assert rerun.faults is None
    assert_same_trace(rerun.to_csv(), fresh.to_csv())
    # The queue-depth fold restarts too.
    assert rerun.mean_queue_depth == fresh.mean_queue_depth
    assert rerun.max_queue_depth == fresh.max_queue_depth


class _CountingQueue(deque):
    """A waiting queue that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_a_deadline_that_sheds_nothing_never_walks_the_queue():
    """An overloaded FCFS device with a deadline no request reaches: the
    trace is the bare run's, and no planning call walks the queue."""
    arrivals = PoissonWorkload(30.0, PAYLOAD, seed=5).generate(300)
    bare = _serve(arrivals, FCFSScheduler())
    scheduler = FCFSScheduler()
    queue = scheduler._waiting = _CountingQueue()
    report = _serve(arrivals, scheduler, deadline_s=1e12)
    assert report.to_csv() == bare.to_csv()
    assert report.faults.shed == 0
    waits = [record.prefill_start_s - record.arrival_s for record in report.records]
    assert max(waits) > 100
    assert queue.walks == 0


def test_a_retry_queued_behind_younger_work_is_shed_on_time():
    """A retry re-enters the queue at its tail with its original arrival:
    the first planning call past its deadline sheds it, though every
    request ahead of it is younger."""
    gate = FaultGate()
    gate.deadline_s = 10.0
    shed = []
    gate.shed = lambda record, now: shed.append((record.request_id, now))
    gate.drop = lambda record: None
    scheduler = FCFSScheduler()
    scheduler.faults = gate
    cost = BackendCostModel(ToyBackend())
    for request_id, arrival_s, now in ((1, 5.0, 5.0), (2, 5.5, 5.5), (0, 0.0, 6.0)):
        record = RequestRecord(ServingRequest(arrival_s, request_id, PAYLOAD))
        scheduler.enqueue(record, now)
    assert scheduler.next_occupancy(10.0, cost).completed[0].request_id == 1
    assert shed == []
    assert scheduler.next_occupancy(10.5, cost).completed[0].request_id == 2
    assert shed == [(0, 10.5)]


def test_hedged_requests_win_on_a_stuck_replica():
    # Round-robin alternates devices; device 0 is 50x slowed the whole
    # run, so a hedge dispatched to the healthy device beats the primary.
    slow = FaultSpec(slow_windows=((0, 0.0, 1e6, 50.0),))
    report = _fleet(
        _poisson(30),
        "round-robin",
        num=2,
        faults=slow,
        retry=RetryPolicy(max_attempts=1, hedge_after_s=2.0),
    )
    assert report.faults.hedges > 0
    assert report.faults.hedge_wins > 0
    assert report.num_completed == 30


# -- health-aware routing -----------------------------------------------------

def test_failover_router_avoids_the_dead_replica_and_readmits_it():
    crash = FaultSpec(crash_windows=((1, 0.0, 10.0),))
    report = _fleet(_poisson(100), "failover", faults=crash)
    per_device = report.device_reports
    # While down, device 1 takes nothing; after recovery it works again.
    assert per_device[1].num_completed > 0
    down_starts = [
        record.prefill_start_s
        for record in report.records
        if report.assignments[record.request_id] == 1
        and record.prefill_start_s is not None
    ]
    assert down_starts and min(down_starts) >= 10.0
    assert report.num_completed == 100


def test_exclude_unhealthy_guards_any_router():
    crash = FaultSpec(crash_windows=((0, 0.0, 15.0),))
    guarded = _fleet(
        _poisson(100),
        get_router("jsq", exclude_unhealthy=True),
        faults=crash,
    )
    starts_on_dead = [
        record.prefill_start_s
        for record in guarded.records
        if guarded.assignments[record.request_id] == 0
        and record.prefill_start_s is not None
    ]
    assert all(start >= 15.0 for start in starts_on_dead)
    assert guarded.num_completed == 100


def test_routers_accept_the_exclude_unhealthy_kwarg():
    for name in ("round-robin", "jsq", "least-work", "slo-aware", "headroom"):
        router = get_router(name, exclude_unhealthy=True)
        assert router.exclude_unhealthy
    assert not get_router("jsq").exclude_unhealthy


# -- reports ------------------------------------------------------------------

def test_fault_rows_surface_on_both_summaries():
    serve_report = _serve(_poisson(20), faults=BENIGN)
    fleet_report = _fleet(_poisson(20), faults=BENIGN)
    for report in (serve_report, fleet_report):
        labels = [row[0] for row in report.summary_rows()[1]]
        assert "availability" in labels
        assert "crashes / recoveries" in labels
    clean = _serve(_poisson(20))
    assert clean.faults is None
    assert "availability" not in [row[0] for row in clean.summary_rows()[1]]


# -- validation ---------------------------------------------------------------

def test_engine_kwargs_are_validated():
    with pytest.raises(TypeError):
        _serve(_poisson(5), faults="crash")
    with pytest.raises(TypeError):
        _serve(_poisson(5), faults=BENIGN, retry="3 times")
    with pytest.raises(ValueError):
        _serve(_poisson(5), faults=BENIGN, deadline_s=0.0)
    with pytest.raises(ValueError):
        _serve(_poisson(5), faults=BENIGN, max_steps=0)


@pytest.mark.parametrize("deadline_s", [float("nan"), float("inf")])
def test_a_deadline_must_be_finite(deadline_s):
    with pytest.raises(ValueError, match="deadline_s must be positive and finite"):
        _serve(_poisson(5), deadline_s=deadline_s)
