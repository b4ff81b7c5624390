"""Fast-forward coalescing: equivalence battery and event-count wins.

The acceptance criterion for the coalesced event loop is *byte identity*:
for every scheduler and workload shape, the default run (`max_steps=None`)
must produce exactly the per-request trace CSV of the step-by-step
reference (`max_steps=1`) — same floats, same bytes.  These tests sweep
scheduler x workload for the single-device loop; the fleet-side battery
(including every router) lives in ``tests/fleet/test_fleet_coalescing.py``.
"""

import random
import time

import pytest

from serving_toys import (
    ToyBackend,
    assert_littles_law,
    assert_same_queue_stats,
    assert_same_trace,
    assert_timeline_queue_area,
)

from repro.api import InferenceRequest
from repro.obs import TimelineCollector
from repro.serving import (
    ContinuousBatchScheduler,
    FCFSScheduler,
    Occupancy,
    OnOffWorkload,
    PoissonWorkload,
    SLOSpec,
    StaticBatchScheduler,
    load_bundled_trace,
    simulate,
)
from repro.serving.simulator import _is_sorted

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24)


def _mixed_payload(rng: random.Random, index: int) -> InferenceRequest:
    """Heterogeneous generation lengths, so in-batch completions stagger."""
    return PAYLOAD.with_overrides(gen_tokens=rng.choice([1, 7, 24, 64]))


SCHEDULERS = {
    "fcfs": FCFSScheduler,
    "static": lambda: StaticBatchScheduler(max_batch=4),
    "continuous": lambda: ContinuousBatchScheduler(max_batch=4),
}

WORKLOADS = {
    "poisson": lambda: PoissonWorkload(3.0, _mixed_payload, seed=11).generate(150),
    "onoff": lambda: OnOffWorkload(
        8.0, _mixed_payload, on_seconds=2.0, off_seconds=3.0, seed=5
    ).generate(150),
    "diurnal": lambda: load_bundled_trace("diurnal").generate(150),
}


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_coalesced_run_is_byte_identical_to_step_by_step(
    scheduler_name, workload_name
):
    arrivals = WORKLOADS[workload_name]()
    slo = SLOSpec(ttft_s=10.0, e2e_s=60.0)
    reference = simulate(
        arrivals, ToyBackend(), SCHEDULERS[scheduler_name](), slo=slo, max_steps=1
    )
    timeline = TimelineCollector(window_s=10.0)
    coalesced = simulate(
        arrivals, ToyBackend(), SCHEDULERS[scheduler_name](), slo=slo, recorder=timeline
    )
    assert_same_trace(coalesced.to_csv(), reference.to_csv())
    assert coalesced.makespan_s == reference.makespan_s
    assert coalesced.busy_s == pytest.approx(reference.busy_s)
    assert_littles_law(coalesced)
    assert_littles_law(reference)
    assert_same_queue_stats(coalesced, reference)
    assert_timeline_queue_area(timeline, coalesced)


def test_coalescing_collapses_the_continuous_event_count():
    """The tentpole: long generations become a handful of occupancies."""
    payload = PAYLOAD.with_overrides(gen_tokens=256)
    arrivals = PoissonWorkload(1.0, payload, seed=0).generate(200)
    reference = simulate(
        arrivals, ToyBackend(), ContinuousBatchScheduler(max_batch=8), max_steps=1
    )
    coalesced = simulate(arrivals, ToyBackend(), ContinuousBatchScheduler(max_batch=8))
    assert_same_trace(coalesced.to_csv(), reference.to_csv())
    assert_littles_law(coalesced)
    assert_same_queue_stats(coalesced, reference)
    assert coalesced.num_events * 5 < reference.num_events


def test_intermediate_max_steps_is_also_equivalent():
    arrivals = PoissonWorkload(2.0, _mixed_payload, seed=9).generate(120)
    runs = [
        simulate(
            arrivals,
            ToyBackend(),
            ContinuousBatchScheduler(max_batch=4),
            max_steps=max_steps,
        )
        for max_steps in (1, 3, None)
    ]
    assert_same_trace(runs[1].to_csv(), runs[0].to_csv())
    assert_same_trace(runs[2].to_csv(), runs[0].to_csv())
    for run in runs:
        assert_littles_law(run)
        assert_same_queue_stats(run, runs[0])


def test_a_trace_mismatch_fails_fast_naming_the_first_differing_row():
    """Two 10,000-row traces that part after row 50: the helper reports
    the line counts and row 51 at once, without a diff of the strings."""
    header = "request_id,arrival_s,finish_s"
    want = [header] + [f"{i},{i * 0.5},{i * 0.5 + 1.0}" for i in range(10_000)]
    got = want[:51] + [f"{i},{i * 0.5},{i * 0.5 + 2.0}" for i in range(50, 10_000)]
    start = time.perf_counter()
    with pytest.raises(AssertionError) as excinfo:
        assert_same_trace("\n".join(got) + "\n", "\n".join(want) + "\n")
    assert time.perf_counter() - start < 1.0
    message = str(excinfo.value)
    assert "10001 lines vs 10001 expected" in message
    assert "first difference at row 51:" in message
    assert "'50,25.0,27.0'" in message and "'50,25.0,26.0'" in message
    assert len(message) < 500


def test_max_steps_must_be_positive():
    with pytest.raises(ValueError, match="max_steps"):
        simulate(
            PoissonWorkload(1.0, PAYLOAD, seed=0).generate(2),
            ToyBackend(),
            ContinuousBatchScheduler(),
            max_steps=0,
        )


def test_coalesced_occupancy_reports_its_steps():
    """A lone long request prefills and decodes as one merged occupancy:
    nothing can join its batch by the prefill's end, so the decode run
    from there is planned in the same call."""
    from repro.serving import ServingRequest
    from repro.serving.request import RequestRecord

    scheduler, cost = _scheduler()
    record = RequestRecord(
        ServingRequest(arrival_s=0.0, request_id=0, request=PAYLOAD)
    )
    scheduler.enqueue(record, 0.0)
    decode = scheduler.next_occupancy(0.0, cost)
    assert decode.kind == "decode" and decode.prefill_s == 1.0
    assert decode.steps == PAYLOAD.gen_tokens
    assert decode.completed == [record]
    # The end is the step clock accumulated one step at a time from the
    # prefill's end.
    end = 1.0
    for _ in range(PAYLOAD.gen_tokens):
        end += 0.1
    assert decode.end_s == end
    assert decode.end_time(0.0) == end
    assert decode.seconds == end - 1.0
    assert scheduler.next_occupancy(end, cost) is None


def _scheduler(memory=None):
    """A continuous scheduler with four slots over a 1 s prefill and
    0.1 s decode steps, and its cost model."""
    from repro.serving import BackendCostModel

    scheduler = ContinuousBatchScheduler(max_batch=4, memory=memory)
    return scheduler, BackendCostModel(ToyBackend(ttft=1.0, step=0.1))


def _decoding_scheduler(memory):
    """A memory-model continuous scheduler whose lone request (PAYLOAD)
    has prefilled on [0, 1] and is ready to decode at 0.1 s per step (the
    prefill is planned alone, as the step-by-step loop plans it)."""
    from repro.serving import ServingRequest
    from repro.serving.request import RequestRecord

    scheduler, cost = _scheduler(memory)
    record = RequestRecord(
        ServingRequest(arrival_s=0.0, request_id=0, request=PAYLOAD)
    )
    scheduler.enqueue(record, 0.0)
    assert scheduler.next_occupancy(0.0, cost, max_steps=1).kind == "prefill"
    return scheduler, cost, record


def _step_clock(start, steps):
    end = start
    for _ in range(steps):
        end += 0.1
    return end


def test_a_request_queued_mid_run_cuts_it_at_the_next_boundary():
    """With a free slot, a merged run is planned to its natural end, and a
    request that queues mid-run cuts it at its admission boundary, walked
    from the prefill's end (here: arrival at 1.25 -> stop at the 1.3
    boundary)."""
    from repro.serving import ServingRequest
    from repro.serving.request import RequestRecord

    scheduler, cost = _scheduler()
    record = RequestRecord(
        ServingRequest(arrival_s=0.0, request_id=0, request=PAYLOAD)
    )
    scheduler.enqueue(record, 0.0)
    decode = scheduler.next_occupancy(0.0, cost)
    assert decode.prefill_s == 1.0
    assert decode.steps == PAYLOAD.gen_tokens
    assert decode.completed == [record]
    # No request waiting: nothing to cut for.
    assert scheduler.cut(1.25) is None
    arrival = RequestRecord(
        ServingRequest(arrival_s=1.25, request_id=1, request=PAYLOAD)
    )
    scheduler.enqueue(arrival, 1.25)
    cut = scheduler.cut(1.25)
    assert cut is decode
    assert decode.steps == 3  # boundaries 1.1, 1.2, 1.3 >= 1.25
    assert decode.completed == []
    assert decode.end_s == _step_clock(1.0, 3)
    assert decode.seconds == decode.end_s - 1.0
    assert decode.prefill_s == 1.0  # still merged: the cut is past 1.0
    # The batch is back at the 1.3 boundary: the arrival is admitted next,
    # merged with the decode run after it, which ends when the first
    # request has decoded its remaining steps.
    assert scheduler.cut(1.26) is None  # a run is cut at most once
    rest = scheduler.next_occupancy(decode.end_s, cost)
    assert rest.prefill_s == 1.0
    assert rest.steps == PAYLOAD.gen_tokens - 3
    assert rest.completed == [record]
    assert scheduler.active == 1


def test_a_request_queued_by_the_prefill_s_end_cuts_the_merged_run_to_it():
    """A request that queues during a merged run's prefill, or at its very
    end, is admitted at the prefill's end: the run goes back to the bare
    prefill, and the batch to its state there."""
    from repro.serving import ServingRequest
    from repro.serving.request import RequestRecord

    for arrival_s in (0.5, 1.0):
        scheduler, cost = _scheduler()
        record = RequestRecord(ServingRequest(0.0, 0, PAYLOAD))
        scheduler.enqueue(record, 0.0)
        run = scheduler.next_occupancy(0.0, cost)
        arrival = RequestRecord(ServingRequest(arrival_s, 1, PAYLOAD))
        scheduler.enqueue(arrival, arrival_s)
        assert scheduler.cut(arrival_s) is run
        assert run.kind == "prefill" and run.prefill_s is None
        assert (run.seconds, run.end_s, run.steps, run.completed) == (1.0, 1.0, 1, [])
        assert run.note is None
        # The next planning call admits the second request at 1.0 and
        # decodes both: the first one's 24 steps are all still owed.
        rest = scheduler.next_occupancy(1.0, cost)
        assert rest.prefill_s == 1.0 and rest.steps == PAYLOAD.gen_tokens
        assert [member.request_id for member in rest.completed] == [0, 1]
        assert rest.end_s == _step_clock(2.0, PAYLOAD.gen_tokens)


@pytest.mark.parametrize(
    "arrival_s, merged",
    [(1.0, 1), (0.5, 0), (0.25, 0)],
    ids=["step-boundary", "prefill-end", "in-prefill"],
)
def test_an_arrival_on_a_step_boundary_cuts_the_run_right_there(arrival_s, merged):
    """Binary-exact steps put a step boundary at exactly t=1.0: the
    step-by-step loop finishes that step before the arrival at 1.0 is
    delivered and admits it at once, so the cut must end the merged run
    at 1.0, not at the next boundary.  One device knows its next arrival:
    one due by the first prefill's end (0.5) leaves that prefill alone."""
    from repro.serving import ServingRequest

    arrivals = [
        ServingRequest(0.0, 0, PAYLOAD.with_overrides(gen_tokens=8)),
        ServingRequest(arrival_s, 1, PAYLOAD.with_overrides(gen_tokens=2)),
    ]
    plans = []

    def run(max_steps):
        scheduler = ContinuousBatchScheduler(max_batch=4)
        plan = scheduler.next_occupancy

        def planned(*args, **kwargs):
            occupancy = plan(*args, **kwargs)
            plans.append((max_steps, occupancy))
            return occupancy

        scheduler.next_occupancy = planned
        return simulate(
            arrivals,
            ToyBackend(ttft=0.5, step=0.25),
            scheduler,
            max_steps=max_steps,
        )

    reference, coalesced = run(1), run(None)
    first = next(occupancy for max_steps, occupancy in plans if max_steps is None)
    assert (first.prefill_s is not None) == merged
    assert coalesced.records[1].prefill_start_s == max(arrival_s, 0.5)
    assert_same_trace(coalesced.to_csv(), reference.to_csv())
    assert coalesced.busy_s == reference.busy_s
    assert_same_queue_stats(coalesced, reference)


#: Bytes of KV one opt-6.7b token holds at 16 bits, and a 500-token prompt.
TOKEN_KV = 524_288
PROMPT_KV = 500 * TOKEN_KV


def test_memory_decode_runs_are_cut_like_slot_count_runs():
    """A memory-model run is planned to its natural end and cut by a
    request that queues mid-run; it books only the steps it ran, once it
    is over, so the DRAM high-water mark never sees the cut tail."""
    from repro.memory import MemorySpec
    from repro.serving import ServingRequest
    from repro.serving.request import RequestRecord

    spec = MemorySpec()
    scheduler, cost, record = _decoding_scheduler(memory=spec)
    decode = scheduler.next_occupancy(1.0, cost)
    assert decode.steps == PAYLOAD.gen_tokens
    # A short prompt (5,242,880 B) is smaller than the 21 steps of growth
    # the cut drops (11,010,048 B): a refunded over-booking would show.
    short = PAYLOAD.with_overrides(seq_len=10)
    scheduler.enqueue(
        RequestRecord(ServingRequest(arrival_s=1.25, request_id=1, request=short)),
        1.25,
    )
    assert scheduler.cut(1.25) is decode
    assert decode.steps == 3  # boundaries 1.1, 1.2, 1.3 >= 1.25
    assert decode.end_s == _step_clock(1.0, 3)
    assert scheduler.free_dram_bytes(decode.end_s) == (
        spec.dram_bytes - PROMPT_KV - 3 * TOKEN_KV
    )
    prefill = scheduler.next_occupancy(decode.end_s, cost, max_steps=1)
    assert prefill.kind == "prefill" and scheduler.active == 2
    assert scheduler.memory.pool.high_water_bytes == (
        PROMPT_KV + 3 * TOKEN_KV + 10 * TOKEN_KV
    )


def test_free_dram_is_read_as_of_now():
    """A router reading DRAM mid-run sees what the step-by-step loop has
    booked: the first step at the plan instant, then each step that
    started strictly before the read (an arrival on a step boundary is
    routed before that step is planned), and the member's release once
    its last step started."""
    from repro.fleet import Device
    from repro.memory import MemorySpec
    from repro.serving import ServingRequest
    from repro.serving.request import RequestRecord

    spec = MemorySpec()
    device = Device(
        ToyBackend(ttft=1.0, step=0.25),
        ContinuousBatchScheduler(max_batch=1, memory=spec),
    )
    scheduler = device.scheduler
    scheduler.enqueue(
        RequestRecord(ServingRequest(arrival_s=0.0, request_id=0, request=PAYLOAD)),
        0.0,
    )
    scheduler.next_occupancy(0.0, device.cost)  # prefill on [0, 1]
    decode = scheduler.next_occupancy(1.0, device.cost)
    assert decode.steps == PAYLOAD.gen_tokens
    held = spec.dram_bytes - PROMPT_KV
    assert scheduler.free_dram_bytes(1.0) == held - TOKEN_KV
    assert scheduler.free_dram_bytes(1.5) == held - 2 * TOKEN_KV
    assert scheduler.free_dram_bytes(1.6) == held - 3 * TOKEN_KV
    last_start = 1.0 + (PAYLOAD.gen_tokens - 1) * 0.25
    assert scheduler.free_dram_bytes(last_start) == held - 23 * TOKEN_KV
    assert scheduler.free_dram_bytes(decode.end_s) == spec.dram_bytes
    scheduler.finalize(decode.end_s)
    assert scheduler.memory.pool.used_bytes == 0
    assert scheduler.memory.pool.high_water_bytes == PROMPT_KV + 24 * TOKEN_KV


def test_occupancy_default_end_time_matches_seconds():
    occupancy = Occupancy("job", 2.5)
    assert occupancy.steps == 1
    assert occupancy.end_time(1.0) == 3.5


# -- sorted fast path ---------------------------------------------------------

def test_is_sorted_detects_order():
    sorted_arrivals = PoissonWorkload(2.0, PAYLOAD, seed=1).generate(20)
    assert _is_sorted(sorted_arrivals)
    assert _is_sorted(sorted_arrivals[:1])
    assert _is_sorted([])
    shuffled = list(reversed(sorted_arrivals))
    assert not _is_sorted(shuffled)


def test_simulate_accepts_presorted_unsorted_and_generator_streams():
    arrivals = PoissonWorkload(2.0, PAYLOAD, seed=1).generate(50)
    shuffled = list(arrivals)
    random.Random(3).shuffle(shuffled)
    from_sorted = simulate(arrivals, ToyBackend(), FCFSScheduler())
    from_shuffled = simulate(shuffled, ToyBackend(), FCFSScheduler())
    from_generator = simulate(iter(arrivals), ToyBackend(), FCFSScheduler())
    assert_same_trace(from_shuffled.to_csv(), from_sorted.to_csv())
    assert_same_trace(from_generator.to_csv(), from_sorted.to_csv())
    # The fast path must not reorder or mutate the caller's list.
    assert arrivals == PoissonWorkload(2.0, PAYLOAD, seed=1).generate(50)


def test_presorted_list_skips_the_sort(monkeypatch):
    import repro.serving.simulator as simulator_module

    def forbidden(*args, **kwargs):  # pragma: no cover - fails the test
        raise AssertionError("sorted() called for a pre-sorted list")

    monkeypatch.setattr(simulator_module, "sorted", forbidden, raising=False)
    arrivals = PoissonWorkload(2.0, PAYLOAD, seed=1).generate(30)
    report = simulate(arrivals, ToyBackend(), FCFSScheduler())
    assert report.num_completed == 30


# -- early exit (fail_fast) ---------------------------------------------------

def test_fail_fast_aborts_hopeless_runs_with_the_same_verdict():
    """An overloaded run fails the SLO either way; fail_fast just stops
    processing events once the failure is mathematically decided."""
    slo = SLOSpec(e2e_s=2.0, min_attainment=0.9)
    arrivals = PoissonWorkload(50.0, PAYLOAD, seed=2).generate(300)
    full = simulate(arrivals, ToyBackend(), FCFSScheduler(), slo=slo)
    fast = simulate(arrivals, ToyBackend(), FCFSScheduler(), slo=slo, fail_fast=True)
    assert not full.meets_slo() and not fast.meets_slo()
    assert fast.early_exit and not full.early_exit
    assert fast.num_events < full.num_events
    assert fast.num_completed < fast.num_requests


def test_fail_fast_leaves_passing_runs_untouched():
    slo = SLOSpec(e2e_s=1e6)
    arrivals = PoissonWorkload(0.5, PAYLOAD, seed=2).generate(50)
    full = simulate(arrivals, ToyBackend(), FCFSScheduler(), slo=slo)
    fast = simulate(arrivals, ToyBackend(), FCFSScheduler(), slo=slo, fail_fast=True)
    assert fast.meets_slo() and not fast.early_exit
    assert_same_trace(fast.to_csv(), full.to_csv())
    assert fast.num_events == full.num_events


def test_fail_fast_requires_an_slo():
    with pytest.raises(ValueError, match="fail_fast"):
        simulate(
            PoissonWorkload(1.0, PAYLOAD, seed=0).generate(2),
            ToyBackend(),
            FCFSScheduler(),
            fail_fast=True,
        )
