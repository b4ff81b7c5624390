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

from serving_toys import ToyBackend, assert_same_trace

from repro.api import InferenceRequest
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
    coalesced = simulate(
        arrivals, ToyBackend(), SCHEDULERS[scheduler_name](), slo=slo
    )
    assert_same_trace(coalesced.to_csv(), reference.to_csv())
    assert coalesced.makespan_s == reference.makespan_s
    assert coalesced.busy_s == pytest.approx(reference.busy_s)


def test_coalescing_collapses_the_continuous_event_count():
    """The tentpole: long generations become a handful of occupancies."""
    payload = PAYLOAD.with_overrides(gen_tokens=256)
    arrivals = PoissonWorkload(1.0, payload, seed=0).generate(200)
    reference = simulate(
        arrivals, ToyBackend(), ContinuousBatchScheduler(max_batch=8), max_steps=1
    )
    coalesced = simulate(arrivals, ToyBackend(), ContinuousBatchScheduler(max_batch=8))
    assert_same_trace(coalesced.to_csv(), reference.to_csv())
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
    """A lone long request decodes as one multi-step occupancy."""
    scheduler = ContinuousBatchScheduler(max_batch=4)
    backend = ToyBackend(ttft=1.0, step=0.1)
    from repro.serving import BackendCostModel, ServingRequest
    from repro.serving.request import RequestRecord

    cost = BackendCostModel(backend)
    record = RequestRecord(
        ServingRequest(arrival_s=0.0, request_id=0, request=PAYLOAD)
    )
    scheduler.enqueue(record, 0.0)
    prefill = scheduler.next_occupancy(0.0, cost)
    assert prefill.kind == "prefill" and prefill.steps == 1
    decode = scheduler.next_occupancy(1.0, cost)
    assert decode.kind == "decode"
    assert decode.steps == PAYLOAD.gen_tokens
    assert decode.completed == [record]
    # The end is the step clock accumulated one step at a time.
    end = 1.0
    for _ in range(PAYLOAD.gen_tokens):
        end += 0.1
    assert decode.end_s == end
    assert decode.end_time(1.0) == end


def _decoding_scheduler(memory=None):
    """A continuous scheduler whose lone request (PAYLOAD) has prefilled
    on [0, 1] and is ready to decode at 0.1 s per step."""
    from repro.serving import BackendCostModel, ServingRequest
    from repro.serving.request import RequestRecord

    scheduler = ContinuousBatchScheduler(max_batch=4, memory=memory)
    cost = BackendCostModel(ToyBackend(ttft=1.0, step=0.1))
    record = RequestRecord(
        ServingRequest(arrival_s=0.0, request_id=0, request=PAYLOAD)
    )
    scheduler.enqueue(record, 0.0)
    scheduler.next_occupancy(0.0, cost)  # prefill
    return scheduler, cost, record


def _step_clock(start, steps):
    end = start
    for _ in range(steps):
        end += 0.1
    return end


def test_a_request_queued_mid_run_cuts_it_at_the_next_boundary():
    """With a free slot, a decode run is planned to its natural end, and a
    request that queues mid-run cuts it at its admission boundary (here:
    arrival at 1.25 -> stop at the 1.3 boundary)."""
    from repro.serving import ServingRequest
    from repro.serving.request import RequestRecord

    scheduler, cost, record = _decoding_scheduler()
    decode = scheduler.next_occupancy(1.0, cost)
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
    # The batch is back at the 1.3 boundary: the arrival is admitted next,
    # and the first request still owes the remaining steps.
    assert scheduler.cut(1.26) is None  # a run is cut at most once
    prefill = scheduler.next_occupancy(decode.end_s, cost)
    assert prefill.kind == "prefill" and scheduler.active == 2
    rest = scheduler.next_occupancy(prefill.end_time(decode.end_s), cost)
    assert rest.steps == PAYLOAD.gen_tokens - 3


def test_an_arrival_on_a_step_boundary_cuts_the_run_right_there():
    """Binary-exact steps put a step boundary at exactly t=1.0: the
    step-by-step loop finishes that step before the arrival at 1.0 is
    delivered and admits it at once, so the cut must end the run at 1.0,
    not at the next boundary."""
    from repro.serving import ServingRequest

    arrivals = [
        ServingRequest(0.0, 0, PAYLOAD.with_overrides(gen_tokens=8)),
        ServingRequest(1.0, 1, PAYLOAD.with_overrides(gen_tokens=2)),
    ]
    runs = [
        simulate(
            arrivals,
            ToyBackend(ttft=0.5, step=0.25),
            ContinuousBatchScheduler(max_batch=4),
            max_steps=max_steps,
        )
        for max_steps in (1, None)
    ]
    assert runs[1].records[1].prefill_start_s == 1.0
    assert_same_trace(runs[1].to_csv(), runs[0].to_csv())


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
    prefill = scheduler.next_occupancy(decode.end_s, cost)
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
    device.finalize(decode.end_s)
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
