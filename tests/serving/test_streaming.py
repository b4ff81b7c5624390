"""Streaming traces: byte identity with the in-memory path, O(batch) state.

The contract of ``trace_sink``/``keep_records=False`` is exact: the bytes
written to the sink must equal ``ServingReport.to_csv()`` of the same run
kept in memory, for every scheduler and with coalescing on or off, and a
record-dropping run must answer every aggregate identically from its
streamed accumulators.
"""

import io
import random

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.serving import (
    ContinuousBatchScheduler,
    DigestSink,
    FCFSScheduler,
    PoissonWorkload,
    SLOSpec,
    StaticBatchScheduler,
    simulate,
)

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24)
SLO = SLOSpec(ttft_s=10.0, e2e_s=60.0)


def _mixed_payload(rng: random.Random, index: int) -> InferenceRequest:
    return PAYLOAD.with_overrides(gen_tokens=rng.choice([1, 7, 24, 64]))


SCHEDULERS = {
    "fcfs": FCFSScheduler,
    "static": lambda: StaticBatchScheduler(max_batch=4),
    "continuous": lambda: ContinuousBatchScheduler(max_batch=4),
}


def _arrivals():
    return PoissonWorkload(3.0, _mixed_payload, seed=11).generate(150)


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("max_steps", [None, 1])
def test_streamed_trace_is_byte_identical_to_to_csv(scheduler_name, max_steps):
    arrivals = _arrivals()
    factory = SCHEDULERS[scheduler_name]
    reference = simulate(
        arrivals, ToyBackend(), factory(), slo=SLO, max_steps=max_steps
    )
    sink = io.StringIO()
    simulate(
        arrivals,
        ToyBackend(),
        factory(),
        slo=SLO,
        max_steps=max_steps,
        trace_sink=sink,
    )
    assert sink.getvalue() == reference.to_csv()


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_record_dropping_run_streams_the_same_bytes(scheduler_name):
    arrivals = _arrivals()
    factory = SCHEDULERS[scheduler_name]
    reference = simulate(arrivals, ToyBackend(), factory(), slo=SLO)
    sink = io.StringIO()
    dropped = simulate(
        arrivals,
        ToyBackend(),
        factory(),
        slo=SLO,
        trace_sink=sink,
        keep_records=False,
    )
    assert sink.getvalue() == reference.to_csv()
    assert dropped.records == []


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_streamed_aggregates_match_the_in_memory_report(scheduler_name):
    arrivals = _arrivals()
    factory = SCHEDULERS[scheduler_name]
    reference = simulate(arrivals, ToyBackend(), factory(), slo=SLO)
    dropped = simulate(
        arrivals, ToyBackend(), factory(), slo=SLO, keep_records=False
    )
    assert dropped.streamed is not None
    assert dropped.num_requests == reference.num_requests
    assert dropped.num_completed == reference.num_completed
    assert dropped.total_output_tokens == reference.total_output_tokens
    for metric in ("ttft", "tpot", "e2e", "queue_wait"):
        assert dropped.percentiles(metric) == reference.percentiles(metric)
    assert dropped.throughput_rps == reference.throughput_rps
    assert dropped.tokens_per_second == reference.tokens_per_second
    assert dropped.slo_attainment() == reference.slo_attainment()
    assert dropped.goodput_rps() == reference.goodput_rps()
    assert dropped.meets_slo() == reference.meets_slo()
    assert dropped.mean_queue_depth == reference.mean_queue_depth
    assert dropped.max_queue_depth == reference.max_queue_depth


def test_record_dropping_report_refuses_to_csv():
    dropped = simulate(
        _arrivals(), ToyBackend(), FCFSScheduler(), slo=SLO, keep_records=False
    )
    with pytest.raises(ValueError, match="keep_records=False"):
        dropped.to_csv()


def test_trace_sink_accepts_a_path(tmp_path):
    arrivals = _arrivals()
    reference = simulate(arrivals, ToyBackend(), FCFSScheduler(), slo=SLO)
    path = tmp_path / "trace.csv"
    simulate(
        arrivals,
        ToyBackend(),
        FCFSScheduler(),
        slo=SLO,
        trace_sink=str(path),
        keep_records=False,
    )
    assert path.read_text() == reference.to_csv()


def test_lazy_generator_stream_matches_the_materialized_run():
    """A generator input with keep_records=False never materializes the
    stream yet produces the byte-identical trace of the list run."""
    workload = PoissonWorkload(3.0, _mixed_payload, seed=11)
    reference = simulate(
        workload.generate(150), ToyBackend(), FCFSScheduler(), slo=SLO
    )
    sink = DigestSink()
    simulate(
        workload.stream(150),
        ToyBackend(),
        FCFSScheduler(),
        slo=SLO,
        trace_sink=sink,
        keep_records=False,
    )
    expected = DigestSink()
    expected.write(reference.to_csv())
    assert sink.hexdigest() == expected.hexdigest()
    assert sink.bytes_written == expected.bytes_written


def test_workload_stream_yields_exactly_generate():
    workload = PoissonWorkload(3.0, _mixed_payload, seed=11)
    assert list(workload.stream(50)) == workload.generate(50)


def test_early_exit_trace_still_covers_every_request():
    """A fail_fast abort drains undelivered requests as blank rows, so the
    streamed trace matches the in-memory report's complete trace."""
    slo = SLOSpec(e2e_s=2.0, min_attainment=0.99)
    arrivals = PoissonWorkload(20.0, PAYLOAD, seed=3).generate(120)
    reference = simulate(
        arrivals, ToyBackend(), FCFSScheduler(), slo=slo, fail_fast=True
    )
    assert reference.num_completed < reference.num_requests
    sink = io.StringIO()
    simulate(
        arrivals,
        ToyBackend(),
        FCFSScheduler(),
        slo=slo,
        fail_fast=True,
        trace_sink=sink,
    )
    assert sink.getvalue() == reference.to_csv()
    assert sink.getvalue().count("\n") == len(arrivals) + 1


def test_fail_fast_rejects_an_uncounted_lazy_stream():
    workload = PoissonWorkload(3.0, PAYLOAD, seed=0)
    with pytest.raises(ValueError, match="total request count"):
        simulate(
            workload.stream(10),
            ToyBackend(),
            FCFSScheduler(),
            slo=SLO,
            fail_fast=True,
            keep_records=False,
        )


def test_lazy_stream_must_arrive_pre_sorted():
    requests = PoissonWorkload(3.0, PAYLOAD, seed=0).generate(10)
    shuffled = [requests[1], requests[0]] + requests[2:]
    with pytest.raises(ValueError, match="pre-sorted"):
        simulate(
            iter(shuffled),
            ToyBackend(),
            FCFSScheduler(),
            keep_records=False,
        )
