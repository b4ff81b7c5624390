"""Fleet-side coalescing battery: byte identity across schedulers/routers.

The fleet event loop coalesces per device against the merged clock; the
acceptance criterion is the same as for the single-device loop — the
trace CSV (which also pins the device assignment) must be byte-identical
between the default run and a ``max_steps=1`` reference.

The 4-replica battery keeps every replica busy, so its decode runs end at
in-batch completions.  The sparse 16-replica battery below leaves most
replicas with a free slot, so its runs are cut by the requests routed to
them (``Scheduler.cut``): it is the one that exercises cuts.  The memory
battery after it fills small batches on KV-model replicas, whose DRAM
fills and spills, and which the headroom router reads as of each arrival.
"""

import random

import pytest

from serving_toys import ToyBackend, assert_same_trace

from repro.api import InferenceRequest
from repro.faults import FaultSpec, RetryPolicy
from repro.fleet import ROUTERS, build_fleet, get_router, simulate_fleet
from repro.memory import MemorySpec
from repro.obs import SpanRecorder
from repro.serving import (
    ContinuousBatchScheduler,
    DigestSink,
    FCFSScheduler,
    OnOffWorkload,
    PoissonWorkload,
    SLOSpec,
    StaticBatchScheduler,
    load_bundled_trace,
)

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24)


def _mixed_payload(rng: random.Random, index: int) -> InferenceRequest:
    return PAYLOAD.with_overrides(gen_tokens=rng.choice([1, 7, 24, 64]))


SCHEDULERS = {
    "fcfs": FCFSScheduler,
    "static": lambda: StaticBatchScheduler(max_batch=4),
    "continuous": lambda: ContinuousBatchScheduler(max_batch=4),
}

WORKLOADS = {
    "poisson": lambda: PoissonWorkload(6.0, _mixed_payload, seed=11).generate(150),
    "onoff": lambda: OnOffWorkload(
        16.0, _mixed_payload, on_seconds=2.0, off_seconds=3.0, seed=5
    ).generate(150),
    "diurnal": lambda: load_bundled_trace("diurnal").generate(150),
}


def _run(arrivals, scheduler_factory, router_name, max_steps):
    fleet = build_fleet(
        [ToyBackend(ttft=1.0, step=0.1)] * 4, scheduler_factory=scheduler_factory
    )
    return simulate_fleet(
        arrivals,
        fleet,
        get_router(router_name),
        slo=SLOSpec(ttft_s=10.0, e2e_s=60.0),
        max_steps=max_steps,
    )


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_coalesced_fleet_is_byte_identical_to_step_by_step(
    scheduler_name, workload_name
):
    arrivals = WORKLOADS[workload_name]()
    factory = SCHEDULERS[scheduler_name]
    reference = _run(arrivals, factory, "jsq", max_steps=1)
    coalesced = _run(arrivals, factory, "jsq", max_steps=None)
    assert_same_trace(coalesced.to_csv(), reference.to_csv())
    assert coalesced.makespan_s == reference.makespan_s
    assert [r.busy_s for r in coalesced.device_reports] == pytest.approx(
        [r.busy_s for r in reference.device_reports]
    )


@pytest.mark.parametrize("router_name", sorted(ROUTERS))
def test_every_router_is_byte_identical_under_coalescing(router_name):
    arrivals = WORKLOADS["poisson"]()
    factory = SCHEDULERS["continuous"]
    reference = _run(arrivals, factory, router_name, max_steps=1)
    coalesced = _run(arrivals, factory, router_name, max_steps=None)
    assert_same_trace(coalesced.to_csv(), reference.to_csv())


def test_fleet_coalescing_collapses_the_event_count():
    payload = PAYLOAD.with_overrides(gen_tokens=256)
    arrivals = PoissonWorkload(2.0, payload, seed=0).generate(200)
    factory = lambda: ContinuousBatchScheduler(max_batch=8)  # noqa: E731
    reference = _run(arrivals, factory, "jsq", max_steps=1)
    coalesced = _run(arrivals, factory, "jsq", max_steps=None)
    assert_same_trace(coalesced.to_csv(), reference.to_csv())
    assert coalesced.num_events * 5 < reference.num_events


# -- a sparse fleet: decode runs cut by the requests routed to them ----------

SPARSE_SLO = SLOSpec(ttft_s=2.0, e2e_s=10.0)

#: Chaos without a memory model: a crash, a slowdown and flaky verdicts
#: inside the busy region, client retries, and a deadline that bites.
SPARSE_CHAOS = dict(
    faults=FaultSpec(
        crash_windows=((0, 30.0, 10.0),),
        slow_windows=((1, 50.0, 20.0, 2.5),),
        flaky_prob=0.05,
        seed=3,
    ),
    retry=RetryPolicy(max_attempts=3, backoff_s=0.5),
    deadline_s=8.0,
)

#: Hedging on top of chaos: a crash, flaky verdicts with client retries,
#: hedges after 2 s and a deadline.  A hedge can win while its primary
#: waits out a retry backoff on no device, and a fault-aware run ends once
#: every request resolved, with a cancelled attempt still decoding.
HEDGED = dict(
    faults=FaultSpec(crash_windows=((0, 30.0, 10.0),), flaky_prob=0.05, seed=3),
    retry=RetryPolicy(max_attempts=3, backoff_s=0.5, hedge_after_s=2.0),
    deadline_s=8.0,
)


def _sparse_arrivals():
    return PoissonWorkload(3.0, _mixed_payload, seed=11).generate(400)


def _sparse_run(arrivals, router_name, max_steps, keep_records=True, **options):
    """16 mostly idle replicas; returns the report and its trace (the CSV,
    or the digest of the streamed CSV when records are not kept)."""
    fleet = build_fleet(
        [ToyBackend(ttft=0.3, step=0.1)] * 16,
        scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=4),
    )
    sink = None if keep_records else DigestSink()
    options.setdefault("slo", SPARSE_SLO)
    report = simulate_fleet(
        arrivals,
        fleet,
        get_router(router_name),
        max_steps=max_steps,
        trace_sink=sink,
        keep_records=keep_records,
        **options,
    )
    return report, report.to_csv() if keep_records else sink.hexdigest()


@pytest.mark.parametrize("keep_records", [True, False], ids=["records", "digest"])
@pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
@pytest.mark.parametrize("router_name", sorted(ROUTERS))
def test_cut_decode_runs_are_byte_identical_to_step_by_step(
    router_name, chaos, keep_records
):
    arrivals = _sparse_arrivals()
    options = SPARSE_CHAOS if chaos else {}
    reference, expected = _sparse_run(
        arrivals, router_name, 1, keep_records, **options
    )
    coalesced, trace = _sparse_run(
        arrivals, router_name, None, keep_records, **options
    )
    assert_same_trace(trace, expected)
    assert coalesced.makespan_s == reference.makespan_s
    assert coalesced.percentiles("ttft")["p99"] == reference.percentiles("ttft")["p99"]
    assert coalesced.goodput_rps() == reference.goodput_rps()
    assert coalesced.faults == reference.faults
    assert coalesced.num_events * 2 < reference.num_events


#: The sparse chaos without its deadline: with one, routers that read
#: queue lengths hit the full-batch shedding gap (see repro.faults.engine).
MEMORY_CHAOS = {
    key: value for key, value in SPARSE_CHAOS.items() if key != "deadline_s"
}


def _memory_run(arrivals, router_name, max_batch, max_steps, **options):
    """4 replicas whose 512 MiB of DRAM holds two 250 MiB prompts: batches
    fill, spill and cut memory-model decode runs."""
    fleet = build_fleet(
        [ToyBackend(ttft=0.3, step=0.1)] * 4,
        scheduler_factory=lambda: ContinuousBatchScheduler(
            max_batch=max_batch, memory=MemorySpec(dram_bytes=2**29)
        ),
    )
    return simulate_fleet(
        arrivals, fleet, get_router(router_name), max_steps=max_steps, **options
    )


@pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
@pytest.mark.parametrize("max_batch", [1, 2])
@pytest.mark.parametrize("router_name", sorted(ROUTERS))
def test_memory_model_runs_are_byte_identical_to_step_by_step(
    router_name, max_batch, chaos
):
    """Memory-model decode runs are cut like slot-count runs and book their
    KV growth once they are over, so the headroom router, which reads DRAM
    as of now, routes a coalesced fleet like the step-by-step one."""
    # ~67 s of arrivals: past the crash at 30 s and into the slowdown.
    arrivals = PoissonWorkload(3.0, _mixed_payload, seed=11).generate(200)
    options = MEMORY_CHAOS if chaos else {}
    reference = _memory_run(arrivals, router_name, max_batch, 1, **options)
    coalesced = _memory_run(arrivals, router_name, max_batch, None, **options)
    assert_same_trace(coalesced.to_csv(), reference.to_csv())
    assert [device.memory for device in coalesced.device_reports] == [
        device.memory for device in reference.device_reports
    ]
    assert coalesced.faults == reference.faults


@pytest.mark.parametrize("fail_fast", [False, True], ids=["whole-run", "early-exit"])
@pytest.mark.parametrize(
    "options",
    [{}, SPARSE_CHAOS, HEDGED],
    ids=["plain", "chaos", "hedged"],
)
def test_occupancy_spans_tile_each_device_busy_time(options, fail_fast):
    """Busy time and the span are booked once, when an occupancy ends: at
    its completion (a cut run with its final end), at a crash, or at the
    makespan for a run still in flight when the loop stops.  A device's
    spans never overlap, never end after the makespan, and add up to its
    busy time."""
    recorder = SpanRecorder()
    report, _ = _sparse_run(
        _sparse_arrivals(),
        "jsq",
        None,
        recorder=recorder,
        slo=SLOSpec(e2e_s=2.0) if fail_fast else SPARSE_SLO,
        fail_fast=fail_fast,
        **options,
    )
    assert report.early_exit == fail_fast
    spans = recorder.spans()
    for index, device in enumerate(report.device_reports):
        intervals = sorted(
            (start, start + duration)
            for _, track, _, start, duration, _ in spans
            if track == f"device{index}"
        )
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert start >= end - 1e-9
        assert all(end <= report.makespan_s + 1e-9 for _, end in intervals)
        total = sum(end - start for start, end in intervals)
        assert total == pytest.approx(device.busy_s)
        assert device.busy_s <= report.makespan_s
    assert sum(device.busy_s for device in report.device_reports) > 0


def test_a_hedged_fleet_books_the_busy_time_of_its_step_by_step_run():
    """A fault-aware run ends once every request resolved, while a replica
    may still decode a cancelled hedge attempt: that run ends at the
    makespan, coalesced or not, so busy time matches ``max_steps=1``."""
    arrivals = PoissonWorkload(3.0, _mixed_payload, seed=0).generate(300)

    def run(max_steps):
        fleet = build_fleet(
            [ToyBackend(ttft=0.3, step=0.1)] * 4,
            scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=4),
        )
        return simulate_fleet(
            arrivals, fleet, get_router("failover"), max_steps=max_steps, **HEDGED
        )

    coalesced, reference = run(None), run(1)
    assert_same_trace(coalesced.to_csv(), reference.to_csv())
    assert [device.busy_s for device in coalesced.device_reports] == pytest.approx(
        [device.busy_s for device in reference.device_reports]
    )


def test_an_arrival_routed_elsewhere_does_not_split_a_decode_run():
    """Device 0 decodes 64 tokens while 1-token requests arrive at t=1, 2
    and 3; JSQ sends each of them to the idle device 1, so device 0's
    decode stays one occupancy."""
    from repro.serving import ServingRequest

    arrivals = [ServingRequest(0.0, 0, PAYLOAD.with_overrides(gen_tokens=64))] + [
        ServingRequest(float(t), t, PAYLOAD.with_overrides(gen_tokens=1))
        for t in (1, 2, 3)
    ]

    def run(max_steps, recorder=None):
        fleet = build_fleet(
            [ToyBackend(ttft=0.3, step=0.1)] * 2,
            scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=4),
        )
        return simulate_fleet(
            arrivals, fleet, get_router("jsq"), max_steps=max_steps, recorder=recorder
        )

    recorder = SpanRecorder()
    report = run(None, recorder)
    assert report.assignments == [0, 1, 1, 1]
    decodes = [
        span[5]["steps"]
        for span in recorder.spans("decode")
        if span[1] == "device0"
    ]
    assert decodes == [64]
    assert_same_trace(report.to_csv(), run(1).to_csv())


def test_a_superseded_completion_tied_with_a_live_one_is_skipped():
    """Devices 0 and 1 start identical 64-token decodes, so both runs end
    at the same instant; a request cuts device 1's run at t=1.  When the
    clock reaches that instant, device 0's live completion pops first and
    device 1's superseded one right after it: the loop must skip it."""
    from repro.fleet import Router
    from repro.serving import ServingRequest

    class Scripted(Router):
        name = "scripted"

        def route(self, record, devices, now):
            return (0, 1, 1)[record.request_id]

    long = PAYLOAD.with_overrides(gen_tokens=64)
    arrivals = [
        ServingRequest(0.0, 0, long),
        ServingRequest(0.0, 1, long),
        ServingRequest(1.0, 2, PAYLOAD.with_overrides(gen_tokens=1)),
    ]

    def run(max_steps):
        fleet = build_fleet(
            [ToyBackend(ttft=0.3, step=0.1)] * 2,
            scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=4),
        )
        return simulate_fleet(arrivals, fleet, Scripted(), max_steps=max_steps)

    report = run(None)
    reference = run(1)
    assert_same_trace(report.to_csv(), reference.to_csv())
    assert report.event_queue["pushes"] == report.event_queue["pops"]


def test_fleet_fail_fast_aborts_with_the_same_verdict():
    slo = SLOSpec(e2e_s=2.0, min_attainment=0.9)
    arrivals = PoissonWorkload(80.0, PAYLOAD, seed=2).generate(300)

    def run(fail_fast):
        fleet = build_fleet([ToyBackend()] * 2)
        return simulate_fleet(
            arrivals, fleet, get_router("jsq"), slo=slo, fail_fast=fail_fast
        )

    full, fast = run(False), run(True)
    assert not full.meets_slo() and not fast.meets_slo()
    assert fast.early_exit and not full.early_exit
    assert fast.num_events < full.num_events


def test_fleet_fail_fast_trace_csv_still_covers_every_record():
    """An aborted run's trace keeps one row per request; the ones never
    routed carry a blank device cell instead of being dropped."""
    slo = SLOSpec(e2e_s=2.0, min_attainment=0.9)
    # Moderately overloaded: misses accrue while arrivals are still in
    # flight, so the abort leaves part of the stream unrouted.
    arrivals = PoissonWorkload(4.0, PAYLOAD, seed=2).generate(300)
    fleet = build_fleet([ToyBackend()] * 2)
    report = simulate_fleet(
        arrivals, fleet, get_router("jsq"), slo=slo, fail_fast=True
    )
    assert report.early_exit
    lines = report.to_csv().splitlines()
    assert len(lines) == 1 + report.num_requests
    unrouted = report.num_requests - len(report.assignments)
    assert unrouted > 0
    assert sum(1 for line in lines[1:] if line.split(",")[1] == "") == unrouted


def test_device_rejects_a_cost_model_built_for_another_sharding():
    from repro.fleet import Device, ShardingSpec

    backend = ToyBackend()
    plain = Device(backend)
    with pytest.raises(ValueError, match="different sharding"):
        Device(backend, sharding=ShardingSpec(tensor_parallel=2), cost=plain.cost)
    sharded = Device(backend, sharding=ShardingSpec(tensor_parallel=2))
    with pytest.raises(ValueError, match="different sharding"):
        Device(backend, cost=sharded.cost)
    # Matching specs still share.
    twin = Device(backend, sharding=ShardingSpec(tensor_parallel=2), cost=sharded.cost)
    assert twin.cost is sharded.cost


def test_sharded_build_fleet_still_shares_cost_models():
    from repro.fleet import ShardingSpec

    fleet = build_fleet(
        [ToyBackend()] * 4, sharding=ShardingSpec(tensor_parallel=2)
    )
    assert len({id(device.cost) for device in fleet}) == 1


def test_fleet_fail_fast_requires_an_slo():
    with pytest.raises(ValueError, match="fail_fast"):
        simulate_fleet(
            PoissonWorkload(1.0, PAYLOAD, seed=0).generate(2),
            build_fleet([ToyBackend()]),
            fail_fast=True,
        )


def test_fleet_max_steps_must_be_positive():
    with pytest.raises(ValueError, match="max_steps"):
        simulate_fleet(
            PoissonWorkload(1.0, PAYLOAD, seed=0).generate(2),
            build_fleet([ToyBackend()]),
            max_steps=0,
        )


# -- cost-model sharing -------------------------------------------------------

def test_replicas_of_one_backend_share_one_cost_model():
    backend = ToyBackend()
    fleet = build_fleet([backend] * 8)
    assert len({id(device.cost) for device in fleet}) == 1


def test_distinct_backends_do_not_share_cost_models():
    fleet = build_fleet([ToyBackend(), ToyBackend(step=0.5)])
    assert len({id(device.cost) for device in fleet}) == 2


def test_cost_cache_extends_sharing_across_fleets():
    backend = ToyBackend()
    cache = {}
    first = build_fleet([backend] * 2, cost_cache=cache)
    second = build_fleet([backend] * 4, cost_cache=cache)
    assert first[0].cost is second[0].cost


def test_size_fleet_fail_fast_finds_the_same_fleet():
    from repro.fleet import size_fleet

    payload = PAYLOAD.with_overrides(gen_tokens=10)
    slo = SLOSpec(e2e_s=10.0, min_attainment=0.9)
    kwargs = dict(
        backend=ToyBackend(ttft=0.5, step=0.1),
        payload=payload,
        slo=slo,
        target_qps=2.0,
        num_requests=120,
        seed=4,
    )
    full = size_fleet(fail_fast=False, **kwargs)
    fast = size_fleet(fail_fast=True, **kwargs)
    assert fast.num_replicas == full.num_replicas
    assert fast.sharding == full.sharding
    assert fast.probes == full.probes
    assert_same_trace(fast.report.to_csv(), full.report.to_csv())
    assert not fast.report.early_exit  # the winning fleet ran to completion
