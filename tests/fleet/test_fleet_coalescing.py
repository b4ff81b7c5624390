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

from serving_toys import (
    QueueProbe,
    ToyBackend,
    assert_littles_law,
    assert_same_queue_stats,
    assert_same_trace,
)

from repro.api import InferenceRequest
from repro.faults import FaultSpec, RetryPolicy
from repro.fleet import ROUTERS, Router, build_fleet, get_router, simulate_fleet
from repro.memory import MemorySpec
from repro.obs import SpanRecorder, TeeRecorder, TimelineCollector, critical_path
from repro.serving import (
    ContinuousBatchScheduler,
    DigestSink,
    FCFSScheduler,
    OnOffWorkload,
    PoissonWorkload,
    ServingRequest,
    SLOSpec,
    StaticBatchScheduler,
    load_bundled_trace,
    simulate,
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
    report = simulate_fleet(
        arrivals,
        fleet,
        get_router(router_name),
        slo=SLOSpec(ttft_s=10.0, e2e_s=60.0),
        max_steps=max_steps,
    )
    assert_littles_law(report)
    return report


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
    assert_same_queue_stats(coalesced, reference)


@pytest.mark.parametrize("router_name", sorted(ROUTERS))
def test_every_router_is_byte_identical_under_coalescing(router_name):
    arrivals = WORKLOADS["poisson"]()
    factory = SCHEDULERS["continuous"]
    reference = _run(arrivals, factory, router_name, max_steps=1)
    coalesced = _run(arrivals, factory, router_name, max_steps=None)
    assert_same_trace(coalesced.to_csv(), reference.to_csv())
    assert_same_queue_stats(coalesced, reference)


def test_fleet_coalescing_collapses_the_event_count():
    payload = PAYLOAD.with_overrides(gen_tokens=256)
    arrivals = PoissonWorkload(2.0, payload, seed=0).generate(200)
    factory = lambda: ContinuousBatchScheduler(max_batch=8)  # noqa: E731
    reference = _run(arrivals, factory, "jsq", max_steps=1)
    coalesced = _run(arrivals, factory, "jsq", max_steps=None)
    assert_same_trace(coalesced.to_csv(), reference.to_csv())
    assert_same_queue_stats(coalesced, reference)
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
    probe = QueueProbe([device.scheduler for device in fleet])
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
    assert_littles_law(report, probe)
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
    assert_same_queue_stats(coalesced, reference)
    assert coalesced.num_events * 2 < reference.num_events


#: The sparse chaos without its deadline: with one, routers that read
#: queue lengths hit the full-batch shedding gap (see repro.faults.engine).
MEMORY_CHAOS = {
    key: value for key, value in SPARSE_CHAOS.items() if key != "deadline_s"
}


def _memory_run(arrivals, router_name, max_batch, max_steps, **options):
    """4 replicas whose 512 MiB of DRAM holds two 250 MiB prompts: batches
    fill, spill and cut memory-model decode runs.  Returns the report and
    the merged runs planned."""
    fleet = build_fleet(
        [ToyBackend(ttft=0.3, step=0.1)] * 4,
        scheduler_factory=lambda: ContinuousBatchScheduler(
            max_batch=max_batch, memory=MemorySpec(dram_bytes=2**29)
        ),
    )
    counts = _merge_probe([device.scheduler for device in fleet])
    probe = QueueProbe([device.scheduler for device in fleet])
    report = simulate_fleet(
        arrivals, fleet, get_router(router_name), max_steps=max_steps, **options
    )
    assert_littles_law(report, probe)
    return report, counts["merged"]


@pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
@pytest.mark.parametrize("max_batch", [1, 2])
@pytest.mark.parametrize("router_name", sorted(ROUTERS))
def test_memory_model_runs_are_byte_identical_to_step_by_step(
    router_name, max_batch, chaos
):
    """Memory-model decode runs are cut like slot-count runs and book their
    KV growth once they are over, so the headroom router, which reads DRAM
    as of now, routes a coalesced fleet like the step-by-step one.  With
    two slots, some admissions merge with their decode run; with one, the
    admission fills the batch and none does."""
    # ~67 s of arrivals: past the crash at 30 s and into the slowdown.
    arrivals = PoissonWorkload(3.0, _mixed_payload, seed=11).generate(200)
    options = MEMORY_CHAOS if chaos else {}
    reference, _ = _memory_run(arrivals, router_name, max_batch, 1, **options)
    coalesced, merged = _memory_run(arrivals, router_name, max_batch, None, **options)
    assert (merged > 0) == (max_batch > 1)
    assert_same_trace(coalesced.to_csv(), reference.to_csv())
    assert [device.memory for device in coalesced.device_reports] == [
        device.memory for device in reference.device_reports
    ]
    assert coalesced.faults == reference.faults
    assert_same_queue_stats(coalesced, reference)


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
        return simulate_fleet(
            arrivals, fleet, _Scripted([0, 1, 1]), max_steps=max_steps
        )

    report = run(None)
    reference = run(1)
    assert_same_trace(report.to_csv(), reference.to_csv())
    assert report.event_queue["pushes"] == report.event_queue["pops"]


# -- merged runs: a prefill and the decode run after it as one occupancy ------

def _request(arrival_s, request_id, gen_tokens):
    return ServingRequest(
        arrival_s, request_id, PAYLOAD.with_overrides(gen_tokens=gen_tokens)
    )


class _Scripted(Router):
    """Routes each request id to a fixed device, or where its entry is None
    to the device with the most free KV DRAM (the headroom router), and
    hedge attempts to device 0.  Logs every device's free DRAM at each
    route, as the headroom router reads it."""

    name = "scripted"

    def __init__(self, devices):
        super().__init__()
        self.devices = devices
        self.headroom = get_router("headroom")
        self.reads = []

    def route(self, record, devices, now):
        self.reads.append(
            (now, [device.scheduler.free_dram_bytes(now) for device in devices])
        )
        if record.hedge:
            return 0
        index = self.devices[record.request_id]
        return self.headroom.route(record, devices, now) if index is None else index


def _merge_probe(schedulers):
    """Counts the merged runs the schedulers plan, and those a cut turns
    back into their bare prefill."""
    counts = {"merged": 0, "unmerged": 0}
    for scheduler in schedulers:
        plan, cut = scheduler.next_occupancy, scheduler.cut

        def planned(*args, plan=plan, **kwargs):
            occupancy = plan(*args, **kwargs)
            if occupancy is not None and occupancy.prefill_s is not None:
                counts["merged"] += 1
            return occupancy

        def shortened(now, cut=cut):
            occupancy = cut(now)
            if occupancy is not None and occupancy.kind == "prefill":
                counts["unmerged"] += 1
            return occupancy

        scheduler.next_occupancy, scheduler.cut = planned, shortened
    return counts


#: The KV bytes of one decode step's token and of one PAYLOAD prompt
#: (500 tokens of opt-6.7b at 16 bits).
TOKEN_KV = 524_288
PROMPT_KV = 500 * TOKEN_KV


def _dram(prompts, tokens=0, **spec):
    """A KV memory model whose DRAM holds ``prompts`` PAYLOAD prompts and
    ``tokens`` more tokens."""
    return MemorySpec(dram_bytes=prompts * PROMPT_KV + tokens * TOKEN_KV, **spec)


#: Scripted two-replica runs at the edges of a merged run, on binary-exact
#: latencies (a 0.5 s prefill, 0.25 s steps): the requests as (arrival,
#: generated tokens, device; None routes by headroom), the scheduler's
#: ``max_batch``, the run's options (a ``memory`` entry goes to the
#: schedulers), and the merged runs planned and turned back into their
#: bare prefill by the coalesced run.
MERGE_EDGES = {
    # Queued at the prefill's end: admitted there, so the cut ends the
    # merged run at its prefill; so does an arrival during the prefill.
    "arrival-at-prefill-end": ([(0.0, 8, 0), (0.5, 2, 0)], 4, {}, (2, 1)),
    "arrival-in-prefill": ([(0.0, 8, 0), (0.25, 2, 0)], 4, {}, (2, 1)),
    # The admission at the 1.0 step boundary fills the batch: planned alone.
    "admission-fills-batch": ([(0.0, 8, 0), (1.0, 2, 0)], 2, {}, (1, 0)),
    # The first admission leaves the second request queued: planned alone.
    "admission-leaves-queue": ([(0.0, 8, 0), (0.0, 2, 0)], 4, {}, (1, 0)),
    # A slowdown opening inside the prefill, and a crash at its very end:
    # each prefill is planned alone.
    "fault-in-prefill": (
        [(0.0, 8, 0), (4.0, 2, 0)],
        4,
        {"faults": FaultSpec(slow_windows=((0, 0.25, 1.0, 2.0),))},
        (1, 0),
    ),
    "fault-at-prefill-end": (
        [(0.0, 8, 0), (4.0, 2, 0)],
        4,
        {"faults": FaultSpec(crash_windows=((0, 0.5, 1.0),))},
        (2, 0),
    ),
    # A crash inside the first decode step aborts the merged run there.
    "crash-in-decode": (
        [(0.0, 8, 0), (4.0, 2, 0)],
        4,
        {"faults": FaultSpec(crash_windows=((0, 0.625, 1.0),))},
        (3, 0),
    ),
    # Device 1's request misses the SLO at 2.5, inside device 0's merged
    # prefill [2.25, 2.75]: the run stops there, mid-prefill.
    "early-exit-in-prefill": (
        [(0.0, 8, 1), (2.25, 8, 0), (3.0, 2, 0)],
        4,
        {"slo": SLOSpec(e2e_s=1.0), "fail_fast": True},
        (2, 0),
    ),
    # Every attempt fails: request 0's retry at 1.25 reaches device 0
    # during request 1's merged prefill [1.0, 1.5].
    "retry-in-prefill": (
        [(0.0, 1, 0), (1.0, 4, 0)],
        4,
        {
            "faults": FaultSpec(flaky_prob=1.0),
            "retry": RetryPolicy(max_attempts=2, backoff_s=0.5),
        },
        (4, 1),
    ),
    # Request 2 queues on device 1 behind a full batch; its hedge at 1.1
    # reaches device 0 during request 3's merged prefill [0.9, 1.4], and
    # wins while request 2 decodes.  (A request cancelled while queued
    # behind a full batch is purged at the next planning call, which a
    # coalesced run reaches later than the step-by-step one: the known
    # gap in repro.faults.engine's docstring, not a merge's.)
    "hedge-in-prefill": (
        [(0.0, 8, 1), (0.0, 8, 1), (0.1, 8, 1), (0.9, 8, 0)],
        2,
        {"retry": RetryPolicy(max_attempts=1, hedge_after_s=1.0)},
        (2, 1),
    ),
    # -- on KV memory models: request 0's merged run on device 0 is a
    # prefill on [0, 0.5] and 8 steps of 0.25 s from 0.5.
    # A headroom route reads device 0's DRAM inside the prefill and at its
    # end (the admission alone), and inside the first step (that too).
    "memory-read-in-prefill": (
        [(0.0, 8, 0), (0.25, 2, None)], 4, {"memory": _dram(4)}, (2, 0)
    ),
    "memory-read-at-prefill-end": (
        [(0.0, 8, 0), (0.5, 2, None)], 4, {"memory": _dram(4)}, (2, 0)
    ),
    "memory-read-in-first-step": (
        [(0.0, 8, 0), (0.625, 2, None)], 4, {"memory": _dram(4)}, (2, 0)
    ),
    # Planned alone: a prompt that spills at admission; request 2's
    # admission once a spilling step has freed DRAM (request 0 leaves) but
    # left request 1's KV spilled (a refill comes first at the prefill's
    # end); and a step whose growth exceeds the DRAM the admission leaves
    # (the step spills), with request 1 arriving during that prefill.
    "memory-spill-at-admission": ([(0.0, 4, 0)], 4, {"memory": _dram(1, -4)}, (0, 0)),
    "memory-spilled-at-prefill-end": (
        [(0.0, 2, 0), (0.0, 8, 0), (1.3, 2, 0)], 4, {"memory": _dram(2, 2)}, (1, 0)
    ),
    "memory-growth-over-free": (
        [(0.0, 4, 0), (0.25, 2, 0)], 4, {"memory": _dram(1)}, (0, 0)
    ),
    # DRAM fills after 3 steps: the merged run is capped there.
    "memory-dram-fill-cap": ([(0.0, 8, 0)], 4, {"memory": _dram(1, 3)}, (1, 0)),
    # An arrival inside the prefill turns the run back into it: none of the
    # decode run's growth is booked.
    "memory-arrival-in-prefill": (
        [(0.0, 8, 0), (0.25, 2, 0)], 4, {"memory": _dram(4)}, (2, 1)
    ),
    "memory-crash-in-decode": (
        [(0.0, 8, 0), (4.0, 2, 0)],
        4,
        {"memory": _dram(4), "faults": FaultSpec(crash_windows=((0, 0.625, 1.0),))},
        (3, 0),
    ),
    # Early exits before the loop plans at the close: inside device 0's
    # merged prefill [2.25, 2.75] at 2.5, and at 0.75, the start of its
    # second decode step.  The step-by-step run has booked one step there
    # (a high-water mark of 262,668,288 bytes); a coalesced close once
    # booked the whole 64-step run (295,698,432).
    "memory-early-exit-in-prefill": (
        [(0.0, 8, 1), (2.25, 8, 0), (3.0, 2, 0)],
        4,
        {"memory": _dram(4), "slo": SLOSpec(e2e_s=1.0), "fail_fast": True},
        (2, 0),
    ),
    "memory-early-exit-in-decode": (
        [(0.0, 64, 0), (0.0, 1, 1), (3.0, 1, 0), (30.0, 1, 1)],
        4,
        {
            "memory": MemorySpec(dram_bytes=2**29),
            "slo": SLOSpec(e2e_s=0.6, min_attainment=0.9),
            "fail_fast": True,
        },
        (2, 0),
    ),
    # Request 1 waits on DRAM (no spill space) until request 0 leaves at
    # 1.5; its hedge on device 0 wins at 3.5, and the run closes with the
    # losing attempt's merged run in flight.  The loop planned at 3.5, so
    # the step that starts there is booked, as the step-by-step run books it.
    "memory-close-at-a-step-start": (
        [(0.0, 4, 1), (0.0, 8, 1)],
        2,
        {
            "memory": _dram(1, 8, spill_capacity_bytes=0),
            "retry": RetryPolicy(max_attempts=1, hedge_after_s=1.0),
        },
        (2, 0),
    ),
}


@pytest.mark.parametrize("edge", sorted(MERGE_EDGES))
def test_merged_runs_match_step_by_step_at_their_edges(edge):
    requests, max_batch, options, merges = MERGE_EDGES[edge]
    options = dict(options)
    memory = options.pop("memory", None)
    arrivals = [
        _request(arrival_s, request_id, gen_tokens)
        for request_id, (arrival_s, gen_tokens, _) in enumerate(requests)
    ]
    routes = [device for _, _, device in requests]

    def run(max_steps):
        fleet = build_fleet(
            [ToyBackend(ttft=0.5, step=0.25)] * 2,
            scheduler_factory=lambda: ContinuousBatchScheduler(
                max_batch=max_batch, memory=memory
            ),
        )
        counts = _merge_probe([device.scheduler for device in fleet])
        probe = QueueProbe([device.scheduler for device in fleet])
        router = _Scripted(routes)
        report = simulate_fleet(
            arrivals, fleet, router, max_steps=max_steps, **options
        )
        assert_littles_law(report, probe)
        return report, (counts["merged"], counts["unmerged"]), router.reads

    (coalesced, counts, reads), (reference, _, reads_ref) = run(None), run(1)
    assert counts == merges
    assert_same_trace(coalesced.to_csv(), reference.to_csv())
    assert reads == reads_ref
    assert [device.busy_s for device in coalesced.device_reports] == [
        device.busy_s for device in reference.device_reports
    ]
    assert [device.memory for device in coalesced.device_reports] == [
        device.memory for device in reference.device_reports
    ]
    assert coalesced.makespan_s == reference.makespan_s
    assert coalesced.early_exit == reference.early_exit
    assert coalesced.faults == reference.faults
    assert_same_queue_stats(coalesced, reference)


@pytest.mark.parametrize("prefill_start", [0.375, 0.25], ids=["inside", "at-end"])
def test_an_early_exit_ends_a_merged_run_s_prefill_as_step_by_step(prefill_start):
    """Device 1's 1-token request misses the SLO at 0.75, while device 0's
    merged run prefills from ``prefill_start``: the run stops inside the
    prefill, or at its very end.  The step-by-step loop stops there
    before it plans again, so its device 0 holds the bare prefill alone,
    and so must the merged run's."""
    arrivals = [_request(0.0, 0, 1), _request(prefill_start, 1, 1), _request(3.0, 2, 1)]

    def run(max_steps):
        fleet = build_fleet(
            [ToyBackend(ttft=0.5, step=0.25)] * 2,
            scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=4),
        )
        counts = _merge_probe([device.scheduler for device in fleet])
        recorder = SpanRecorder()
        report = simulate_fleet(
            arrivals,
            fleet,
            _Scripted([1, 0, 0]),
            slo=SLOSpec(e2e_s=0.6),
            fail_fast=True,
            max_steps=max_steps,
            recorder=recorder,
        )
        assert report.early_exit and report.makespan_s == 0.75
        return report, recorder, counts["merged"]

    (coalesced, recorder, merged), (reference, recorder_ref, _) = run(None), run(1)
    assert merged == 2
    assert_same_trace(coalesced.to_csv(), reference.to_csv())
    assert [device.busy_s for device in coalesced.device_reports] == [
        device.busy_s for device in reference.device_reports
    ]
    for track in ("device0", "device1"):
        assert [span for span in recorder.spans() if span[1] == track] == [
            span for span in recorder_ref.spans() if span[1] == track
        ]
    assert [span[2:5] for span in recorder.spans() if span[1] == "device0"] == [
        ("prefill", prefill_start, 0.75 - prefill_start)
    ]


def _perfetto(recorder):
    """The recorder's Perfetto JSON without the ``coalesce`` instants'
    reasons (a ``max_steps=1`` run names its cap there)."""
    for event in recorder.instants("coalesce"):
        del event[5]["reason"]
    return recorder.to_perfetto()


@pytest.mark.parametrize("memory", [None, _dram(4)], ids=["slots", "memory"])
@pytest.mark.parametrize("num_devices", [1, 3], ids=["one-device", "fleet"])
def test_merged_runs_leave_every_observer_output_as_step_by_step(
    num_devices, memory
):
    """With 1-token generations every decode run is one step, so a
    coalesced run differs from its ``max_steps=1`` run only by merges:
    the device tracks hold the same spans in the same order, the memory
    tracks the same instants (on KV memory models whose DRAM fills and
    spills), and the critical path is the same.  On one device the whole
    Perfetto JSON (but for the ``coalesce`` instants' reasons) and the
    timeline are the same; a fleet's timeline folds its windows' busy
    seconds in another order, so those two columns agree to rounding,
    and every other column, the DRAM ones included, is the same."""
    payload = PAYLOAD.with_overrides(gen_tokens=1)
    arrivals = PoissonWorkload(2.5 * num_devices, payload, seed=3).generate(300)

    def run(max_steps):
        spans, timeline = SpanRecorder(), TimelineCollector(window_s=5.0)
        options = dict(max_steps=max_steps, recorder=TeeRecorder(spans, timeline))
        backend = ToyBackend(ttft=0.3, step=0.1)
        if num_devices == 1:
            scheduler = ContinuousBatchScheduler(max_batch=4, memory=memory)
            counts = _merge_probe([scheduler])
            report = simulate(arrivals, backend, scheduler, **options)
            devices = [report]
        else:
            fleet = build_fleet(
                [backend] * num_devices,
                scheduler_factory=lambda: ContinuousBatchScheduler(
                    max_batch=4, memory=memory
                ),
            )
            counts = _merge_probe([device.scheduler for device in fleet])
            report = simulate_fleet(arrivals, fleet, get_router("jsq"), **options)
            devices = report.device_reports
        busy = [device.busy_s for device in devices]
        memories = [device.memory for device in devices]
        return report, busy, memories, spans, timeline, counts["merged"]

    coalesced, busy, memories, spans, timeline, merged = run(None)
    reference, busy_ref, memories_ref, spans_ref, timeline_ref, _ = run(1)
    assert merged > 0
    assert coalesced.num_events < reference.num_events
    assert_same_trace(coalesced.to_csv(), reference.to_csv())
    assert busy == busy_ref
    assert memories == memories_ref
    assert_same_queue_stats(coalesced, reference)
    suffixes = [""] if num_devices == 1 else map(str, range(num_devices))
    for suffix in suffixes:
        track = "device" + suffix
        assert [span for span in spans.spans() if span[1] == track] == [
            span for span in spans_ref.spans() if span[1] == track
        ]
        track = "memory" + suffix
        assert [event for event in spans.events if event[1] == track] == [
            event for event in spans_ref.events if event[1] == track
        ]
    if memory is not None:
        assert any(event[1].startswith("memory") for event in spans.instants("spill"))
    report, report_ref = critical_path(spans), critical_path(spans_ref)
    assert report.attribution_rows() == report_ref.attribution_rows()
    assert report.chain_rows() == report_ref.chain_rows()
    if num_devices == 1:
        assert _perfetto(spans) == _perfetto(spans_ref)
        assert timeline.to_csv() == timeline_ref.to_csv()
        return
    rows, rows_ref = timeline.to_rows(), timeline_ref.to_rows()
    assert len(rows) == len(rows_ref)
    for row, row_ref in zip(rows, rows_ref):
        for name in ("busy_s", "utilization"):
            assert row.pop(name) == pytest.approx(row_ref.pop(name), rel=1e-12)
        assert row == row_ref


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
