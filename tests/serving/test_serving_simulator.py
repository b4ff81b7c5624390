"""Tests for the event loop, the schedulers and the cost model."""

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest, get_backend
from repro.serving import (
    BackendCostModel,
    ContinuousBatchScheduler,
    FCFSScheduler,
    PoissonWorkload,
    ServingRequest,
    StaticBatchScheduler,
    simulate,
)


def _arrivals(times, payload):
    return [
        ServingRequest(arrival_s=t, request_id=i, request=payload)
        for i, t in enumerate(times)
    ]


PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=3)


# -- acceptance: event loop vs closed form ------------------------------------

def test_fcfs_single_request_matches_backend_total_seconds_exactly():
    """A lone request at t=0 finishes at RunResult.total_seconds (1e-9)."""
    request = InferenceRequest(model="opt-6.7b", config="S", seq_len=1000, gen_tokens=8)
    reference = get_backend("cambricon").run(request)
    report = simulate(
        [ServingRequest(arrival_s=0.0, request_id=0, request=request)],
        "cambricon",
        FCFSScheduler(),
    )
    record = report.records[0]
    assert record.finish_s == pytest.approx(reference.total_seconds, abs=1e-9)
    assert record.ttft_s == pytest.approx(reference.time_to_first_token_s, abs=1e-9)
    assert report.makespan_s == pytest.approx(reference.total_seconds, abs=1e-9)
    assert report.utilization == pytest.approx(1.0)


def test_continuous_single_request_matches_backend_total_seconds_exactly():
    request = InferenceRequest(model="opt-6.7b", config="S", seq_len=1000, gen_tokens=8)
    reference = get_backend("cambricon").run(request)
    report = simulate(
        [ServingRequest(arrival_s=0.0, request_id=0, request=request)],
        "cambricon",
        ContinuousBatchScheduler(max_batch=4),
    )
    assert report.records[0].finish_s == pytest.approx(
        reference.total_seconds, abs=1e-9
    )


# -- FCFS queueing ------------------------------------------------------------

def test_fcfs_queues_simultaneous_arrivals_back_to_back():
    backend = ToyBackend(ttft=1.0, step=0.1)  # job = 1.3 s
    report = simulate(_arrivals([0.0, 0.0], PAYLOAD), backend, FCFSScheduler())
    first, second = report.records
    assert first.finish_s == pytest.approx(1.3)
    assert second.prefill_start_s == pytest.approx(1.3)
    assert second.first_token_s == pytest.approx(2.3)
    assert second.finish_s == pytest.approx(2.6)
    assert second.queue_wait_s == pytest.approx(1.3)
    assert report.utilization == pytest.approx(1.0)


def test_fcfs_idle_gap_restarts_at_the_arrival():
    backend = ToyBackend(ttft=1.0, step=0.1)
    report = simulate(_arrivals([0.0, 10.0], PAYLOAD), backend, FCFSScheduler())
    second = report.records[1]
    assert second.prefill_start_s == pytest.approx(10.0)
    assert second.queue_wait_s == pytest.approx(0.0)
    assert report.makespan_s == pytest.approx(11.3)
    assert report.utilization == pytest.approx(2 * 1.3 / 11.3)


def test_arrivals_during_an_occupancy_wait_for_it():
    """The device is non-preemptive: a mid-job arrival queues until it ends."""
    backend = ToyBackend(ttft=1.0, step=0.1)
    report = simulate(_arrivals([0.0, 0.5], PAYLOAD), backend, FCFSScheduler())
    second = report.records[1]
    assert second.prefill_start_s == pytest.approx(1.3)
    assert second.queue_wait_s == pytest.approx(0.8)


# -- static batching ----------------------------------------------------------

def test_static_batch_prefills_and_releases_together():
    backend = ToyBackend(ttft=1.0, step=0.1)
    report = simulate(
        _arrivals([0.0, 0.0], PAYLOAD), backend, StaticBatchScheduler(max_batch=2)
    )
    first, second = report.records
    # One batch: shared prefill, lockstep decode, joint release.
    assert first.first_token_s == second.first_token_s == pytest.approx(1.0)
    assert first.finish_s == second.finish_s == pytest.approx(1.3)
    assert report.makespan_s == pytest.approx(1.3)


def test_static_batch_straggler_holds_the_batch():
    backend = ToyBackend(ttft=1.0, step=0.1)
    short = PAYLOAD.with_overrides(gen_tokens=1)
    long = PAYLOAD.with_overrides(gen_tokens=10)
    requests = [
        ServingRequest(arrival_s=0.0, request_id=0, request=short),
        ServingRequest(arrival_s=0.0, request_id=1, request=long),
    ]
    report = simulate(requests, backend, StaticBatchScheduler(max_batch=2))
    assert report.records[0].finish_s == report.records[1].finish_s
    assert report.records[0].finish_s == pytest.approx(1.0 + 10 * 0.1)


def test_static_batch_respects_max_batch():
    backend = ToyBackend(ttft=1.0, step=0.1)
    report = simulate(
        _arrivals([0.0] * 3, PAYLOAD), backend, StaticBatchScheduler(max_batch=2)
    )
    # Two batches: [r0, r1] then [r2].
    assert report.records[0].finish_s == pytest.approx(1.3)
    assert report.records[2].prefill_start_s == pytest.approx(1.3)
    assert report.records[2].finish_s == pytest.approx(2.6)


# -- continuous batching ------------------------------------------------------

def test_continuous_admits_prefill_between_decode_steps():
    backend = ToyBackend(ttft=1.0, step=0.1)
    report = simulate(
        _arrivals([0.0, 1.05], PAYLOAD), backend, ContinuousBatchScheduler(max_batch=4)
    )
    a, b = report.records
    # A prefills [0, 1], decodes its first step [1.0, 1.1]; B (arrived at
    # 1.05) is admitted at the step boundary: prefill [1.1, 2.1]; the two
    # then decode together until A's remaining 2 steps are done.
    assert a.first_token_s == pytest.approx(1.0)
    assert b.prefill_start_s == pytest.approx(1.1)
    assert b.first_token_s == pytest.approx(2.1)
    assert a.finish_s == pytest.approx(2.3)
    assert b.finish_s == pytest.approx(2.4)


def test_continuous_beats_fcfs_on_decode_heavy_concurrency():
    backend_a = ToyBackend(ttft=0.2, step=0.1)
    backend_b = ToyBackend(ttft=0.2, step=0.1)
    burst = _arrivals([0.0] * 8, PAYLOAD.with_overrides(gen_tokens=50))
    fcfs = simulate(burst, backend_a, FCFSScheduler())
    continuous = simulate(burst, backend_b, ContinuousBatchScheduler(max_batch=8))
    assert continuous.makespan_s < 0.5 * fcfs.makespan_s
    assert continuous.percentiles("e2e")["p95"] < fcfs.percentiles("e2e")["p95"]


def test_continuous_respects_batch_slots():
    backend = ToyBackend(ttft=1.0, step=0.1)
    report = simulate(
        _arrivals([0.0] * 3, PAYLOAD.with_overrides(gen_tokens=2)),
        backend,
        ContinuousBatchScheduler(max_batch=2),
    )
    third = report.records[2]
    # r2 cannot be admitted until one of r0/r1 leaves the batch.
    assert third.prefill_start_s > report.records[0].finish_s - 1e-12


# -- cost model ---------------------------------------------------------------

def test_cost_model_memoizes_profiles_across_queries():
    backend = ToyBackend()
    cost = BackendCostModel(backend)
    for _ in range(100):
        cost.ttft(PAYLOAD)
        cost.decode_step(PAYLOAD, batch_size=4)
        cost.total_seconds(PAYLOAD)
    assert backend.calls == 2  # one per distinct (request, batch width)


def test_cost_model_raises_on_oom_payloads():
    oversized = InferenceRequest(model="llama2-70b", seq_len=1000)
    with pytest.raises(ValueError, match="does not fit"):
        simulate(
            [ServingRequest(arrival_s=0.0, request_id=0, request=oversized)],
            "mlc-llm",
            FCFSScheduler(),
        )


def test_simulator_rejects_reused_schedulers_and_empty_streams():
    backend = ToyBackend()
    scheduler = FCFSScheduler()
    simulate(_arrivals([0.0], PAYLOAD), backend, scheduler)
    with pytest.raises(ValueError):
        simulate([], backend, FCFSScheduler())
    report = simulate(_arrivals([0.0], PAYLOAD), backend, scheduler)
    assert report.num_requests == 1  # a drained scheduler is reusable


# -- determinism --------------------------------------------------------------

def test_simulation_is_byte_identical_under_a_fixed_seed():
    """Same seed, same trace, same percentiles, byte-identical CSV."""
    def run():
        workload = PoissonWorkload(5.0, PAYLOAD, seed=42)
        return simulate(
            workload.generate(100), ToyBackend(), ContinuousBatchScheduler(max_batch=4)
        )

    a, b = run(), run()
    assert a.to_csv() == b.to_csv()
    assert a.percentiles("ttft") == b.percentiles("ttft")
    assert a.percentiles("e2e") == b.percentiles("e2e")
    assert a.makespan_s == b.makespan_s


def test_queue_depth_counts_only_waiting_requests():
    """A request being served is not 'waiting': a lone job shows depth 0."""
    backend = ToyBackend(ttft=1.0, step=0.1)
    report = simulate(_arrivals([0.0], PAYLOAD), backend, FCFSScheduler())
    assert report.max_queue_depth == 0
    assert report.mean_queue_depth == pytest.approx(0.0)


def test_queue_depth_tracks_the_fcfs_backlog():
    backend = ToyBackend(ttft=1.0, step=0.1)  # job = 1.3 s
    report = simulate(_arrivals([0.0, 0.0], PAYLOAD), backend, FCFSScheduler())
    # r1 waits exactly while r0 occupies the device: depth 1 for 1.3 of 2.6 s.
    assert report.max_queue_depth == 1
    assert report.mean_queue_depth == pytest.approx(0.5)


def test_queue_depth_sampling_is_deterministic_across_seeded_runs():
    """The queue-depth statistics reproduce exactly run over run."""
    def run():
        workload = PoissonWorkload(4.0, PAYLOAD, seed=13)
        return simulate(
            workload.generate(150), ToyBackend(), StaticBatchScheduler(max_batch=3)
        )

    a, b = run(), run()
    assert a.max_queue_depth == b.max_queue_depth
    assert a.mean_queue_depth == b.mean_queue_depth
