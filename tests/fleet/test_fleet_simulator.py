"""Tests for the fleet event loop: parity, merging and determinism."""

import csv
import io

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.faults import FaultSpec, RetryPolicy
from repro.fleet import (
    JoinShortestQueueRouter,
    RoundRobinRouter,
    build_fleet,
    simulate_fleet,
)
from repro.serving import (
    ContinuousBatchScheduler,
    FCFSScheduler,
    PoissonWorkload,
    ServingRequest,
    SLOSpec,
    StaticBatchScheduler,
    simulate,
)

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=3)


def _arrivals(times, payload=PAYLOAD):
    return [
        ServingRequest(arrival_s=t, request_id=i, request=payload)
        for i, t in enumerate(times)
    ]


# -- acceptance: 1-replica parity with the single-device loop -----------------

@pytest.mark.parametrize(
    "scheduler_factory",
    [
        FCFSScheduler,
        lambda: StaticBatchScheduler(max_batch=4),
        lambda: ContinuousBatchScheduler(max_batch=4),
    ],
    ids=["fcfs", "static", "continuous"],
)
def test_one_replica_unsharded_fleet_reproduces_simulate_exactly(scheduler_factory):
    """Same seed -> identical per-request records, CSV, busy time and
    queue-depth samples (the acceptance criterion, for every scheduler)."""
    arrivals = PoissonWorkload(2.0, PAYLOAD, seed=7).generate(200)
    slo = SLOSpec(e2e_s=5.0)
    single = simulate(
        arrivals, ToyBackend(), scheduler_factory(), slo=slo
    )
    fleet = simulate_fleet(
        arrivals,
        build_fleet([ToyBackend()], scheduler_factory=scheduler_factory),
        RoundRobinRouter(),
        slo=slo,
    )
    device = fleet.device_reports[0]
    assert device.to_csv() == single.to_csv()
    assert (device.mean_queue_depth, device.max_queue_depth) == (
        single.mean_queue_depth,
        single.max_queue_depth,
    )
    assert device.busy_s == single.busy_s
    assert fleet.makespan_s == single.makespan_s
    assert fleet.percentiles("e2e") == single.percentiles("e2e")
    assert fleet.slo_attainment() == single.slo_attainment()

    # Under chaos too: the fault suite's crash + slowdown + flaky spec,
    # client retries and a deadline.  A retried record is re-appended to
    # its device's list, so the device CSV reorders; the fleet CSV keeps
    # arrival order and, minus its device column, must match.
    chaos = dict(
        faults=FaultSpec(
            crash_windows=((0, 4.0, 3.0),),
            slow_windows=((0, 12.0, 6.0, 2.5),),
            flaky_prob=0.05,
            seed=7,
        ),
        retry=RetryPolicy(max_attempts=3, backoff_s=0.5),
        deadline_s=20.0,
    )
    single = simulate(arrivals, ToyBackend(), scheduler_factory(), slo=slo, **chaos)
    fleet = simulate_fleet(
        arrivals,
        build_fleet([ToyBackend()], scheduler_factory=scheduler_factory),
        RoundRobinRouter(),
        slo=slo,
        **chaos,
    )
    fleet_rows = [
        row[:1] + row[2:] for row in csv.reader(io.StringIO(fleet.to_csv()))
    ]
    assert fleet_rows == list(csv.reader(io.StringIO(single.to_csv())))
    device = fleet.device_reports[0]
    assert fleet.makespan_s == single.makespan_s
    assert device.busy_s == single.busy_s
    assert (device.mean_queue_depth, device.max_queue_depth) == (
        single.mean_queue_depth,
        single.max_queue_depth,
    )
    assert fleet.faults == single.faults
    assert single.faults.crashes == 1 and single.faults.retries > 0


def test_one_replica_real_backend_single_request_matches_closed_form():
    request = InferenceRequest(model="opt-6.7b", config="S", seq_len=1000, gen_tokens=8)
    from repro.api import get_backend

    reference = get_backend("cambricon").run(request)
    fleet = simulate_fleet(
        [ServingRequest(arrival_s=0.0, request_id=0, request=request)],
        build_fleet(["cambricon"]),
    )
    record = fleet.records[0]
    assert record.finish_s == pytest.approx(reference.total_seconds, abs=1e-9)
    assert record.ttft_s == pytest.approx(reference.time_to_first_token_s, abs=1e-9)


# -- multi-device semantics ---------------------------------------------------

def test_two_devices_halve_the_makespan_of_back_to_back_jobs():
    backend = lambda: ToyBackend(ttft=1.0, step=0.1)  # noqa: E731 - job = 1.3 s
    jobs = _arrivals([0.0, 0.0])
    single = simulate(jobs, backend(), FCFSScheduler())
    fleet = simulate_fleet(
        jobs, build_fleet([backend(), backend()]), JoinShortestQueueRouter()
    )
    assert single.makespan_s == pytest.approx(2.6)
    assert fleet.makespan_s == pytest.approx(1.3)
    assert fleet.records[0].finish_s == fleet.records[1].finish_s
    assert fleet.assignments == [0, 1]


def test_arrival_during_occupancy_waits_only_on_its_own_device():
    backend = lambda: ToyBackend(ttft=1.0, step=0.1)  # noqa: E731
    fleet = simulate_fleet(
        _arrivals([0.0, 0.5]),
        build_fleet([backend(), backend()]),
        JoinShortestQueueRouter(),
    )
    # Device 0 is busy at t=0.5 but device 1 is free: no queue wait at all.
    assert fleet.assignments == [0, 1]
    assert fleet.records[1].prefill_start_s == pytest.approx(0.5)
    assert fleet.records[1].queue_wait_s == pytest.approx(0.0)


def test_fleet_report_merges_all_records_in_arrival_order():
    fleet = simulate_fleet(
        PoissonWorkload(3.0, PAYLOAD, seed=1).generate(50),
        build_fleet([ToyBackend(), ToyBackend(), ToyBackend()]),
        JoinShortestQueueRouter(),
    )
    assert fleet.num_requests == 50
    assert sum(fleet.requests_per_device) == 50
    ids = [record.request_id for record in fleet.records]
    arrivals = [record.arrival_s for record in fleet.records]
    assert arrivals == sorted(arrivals)
    assert sorted(ids) == list(range(50))
    assert all(record.completed for record in fleet.records)


def test_fleet_validation_errors():
    with pytest.raises(ValueError, match="empty fleet"):
        simulate_fleet(_arrivals([0.0]), [])
    with pytest.raises(ValueError, match="empty request stream"):
        simulate_fleet([], build_fleet([ToyBackend()]))
    with pytest.raises(ValueError, match="at least one backend"):
        build_fleet([])
    fleet = build_fleet([ToyBackend()])
    simulate_fleet(_arrivals([0.0]), fleet)
    with pytest.raises(ValueError, match="fresh fleet"):
        simulate_fleet(_arrivals([0.0]), fleet)


def test_a_fleet_that_ran_without_records_is_refused_too():
    """A record-dropping run keeps no records, but every run names each
    device's backend by its close.  Run again, the fleet would carry its
    busy seconds over: 39.2 s and 25.2 s over a 30.07 s makespan."""
    payload = InferenceRequest(model="opt-6.7b", gen_tokens=4)
    arrivals = PoissonWorkload(2.0, payload, seed=0).generate(50)
    fleet = build_fleet(
        [ToyBackend(ttft=0.3, step=0.1)] * 2,
        scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=2),
    )
    first = simulate_fleet(
        arrivals, fleet, JoinShortestQueueRouter(), keep_records=False
    )
    assert [device.busy_s for device in first.device_reports] == pytest.approx(
        [19.6, 12.6]
    )
    with pytest.raises(ValueError, match="fresh fleet"):
        simulate_fleet(arrivals, fleet, JoinShortestQueueRouter(), keep_records=False)


def test_a_fleet_an_early_exit_stopped_is_refused_at_the_boundary():
    """An early exit leaves requests inside the devices' schedulers.  Run
    again without records, the fleet is refused up front rather than
    failing inside the loop on a request the new run never delivered."""
    payload = InferenceRequest(model="opt-6.7b", gen_tokens=4)
    arrivals = PoissonWorkload(8.0, payload, seed=0).generate(200)
    fleet = build_fleet(
        [ToyBackend(ttft=0.3, step=0.1)] * 3,
        scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=2),
    )
    options = dict(
        slo=SLOSpec(e2e_s=2.0, min_attainment=0.9),
        fail_fast=True,
        keep_records=False,
    )
    first = simulate_fleet(arrivals, fleet, JoinShortestQueueRouter(), **options)
    assert first.early_exit
    with pytest.raises(ValueError, match="fresh fleet"):
        simulate_fleet(arrivals, fleet, JoinShortestQueueRouter(), **options)


# -- determinism (acceptance) -------------------------------------------------

def test_fleet_trace_csv_is_byte_identical_including_device_assignment():
    def run():
        return simulate_fleet(
            PoissonWorkload(5.0, PAYLOAD, seed=42).generate(300),
            build_fleet(
                [ToyBackend() for _ in range(4)],
                scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=4),
            ),
            JoinShortestQueueRouter(),
            slo=SLOSpec(e2e_s=10.0),
        )

    a, b = run(), run()
    assert a.to_csv() == b.to_csv()
    assert a.assignments == b.assignments
    assert a.to_csv().splitlines()[0].startswith("request_id,device,arrival_s")


def test_shared_runner_collapses_fleet_profiling_to_a_handful_of_evals():
    """16 devices x 1000 requests of one shape -> the backend runs once."""
    from repro.api import ExperimentRunner

    backend = ToyBackend()
    runner = ExperimentRunner()
    fleet = build_fleet([backend] * 16, runner=runner)
    simulate_fleet(
        PoissonWorkload(50.0, PAYLOAD, seed=0).generate(1000),
        fleet,
        JoinShortestQueueRouter(),
    )
    assert backend.calls == 1


def test_build_fleet_shares_one_runner_by_default():
    """N replicas of one backend profile each shape once, even when the
    caller passes no ExperimentRunner."""
    backend = ToyBackend()
    fleet = build_fleet([backend] * 4)
    simulate_fleet(_arrivals([0.0] * 8), fleet, JoinShortestQueueRouter())
    assert backend.calls == 1


def test_rejected_call_does_not_poison_the_router():
    """Validation failures must leave the router reusable: it routed
    nothing, so claiming it would only waste a fresh instance."""
    router = JoinShortestQueueRouter()
    with pytest.raises(ValueError, match="empty request stream"):
        simulate_fleet([], build_fleet([ToyBackend()]), router)
    with pytest.raises(ValueError, match="empty fleet"):
        simulate_fleet(_arrivals([0.0]), [], router)
    assert not router.used
    report = simulate_fleet(_arrivals([0.0]), build_fleet([ToyBackend()]), router)
    assert router.used
    assert report.num_requests == 1


# -- the advance step's guards ------------------------------------------------

class _NeverPlans(FCFSScheduler):
    """Accepts requests but never plans work for them."""

    def next_occupancy(self, now, cost, max_steps=None):
        return None


@pytest.mark.parametrize("armed", [{}, {"deadline_s": 1e9}], ids=["plain", "armed"])
def test_a_run_that_cannot_progress_names_its_unresolved_requests(armed):
    arrivals = _arrivals([0.5 * i for i in range(20)])
    with pytest.raises(RuntimeError, match=r"\b20\b.* requests"):
        simulate(arrivals, ToyBackend(), _NeverPlans(), **armed)


def test_fault_events_that_move_no_request_trip_the_wedge_guard():
    """A device down past every arrival while slowdowns keep firing: the
    clock advances on fault transitions alone, and the loop gives up."""
    faults = FaultSpec(
        crash_windows=((0, 0.5, 1e9),),
        slow_mtbf_s=1.0,
        slow_duration_s=0.25,
        seed=3,
    )
    arrivals = _arrivals([0.0, 1.0, 2.0])
    with pytest.raises(RuntimeError, match="no request progressed in 10000 consecutive"):
        simulate(arrivals, ToyBackend(), FCFSScheduler(), faults=faults)
