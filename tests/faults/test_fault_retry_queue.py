"""Retries landing on occupied timestamps: re-enqueue order stays total.

Client retries are pushed back onto the loop's one arrival source, which
hands out a stream arrival first at an equal time and re-entries in push
order.  These tests force
the nastiest case — several retries scheduled for the *same* instant, on
an instant that already carries arrivals and completions — and check that
the queue stays totally ordered: deterministic replays, sensible
queue-depth sweeps, and a TraceStreamer run that is byte-identical to the
kept-records run, and pin the tie rule itself.
"""

import io

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.faults import FaultSpec, RetryPolicy
from repro.serving import (
    ContinuousBatchScheduler,
    FCFSScheduler,
    PoissonWorkload,
    ServingRequest,
    SLOSpec,
    simulate,
)

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24)
SLO = SLOSpec(ttft_s=10.0, e2e_s=60.0)

#: Every attempt fails, retries come back 1 s later with no jitter: four
#: simultaneous arrivals produce four retries at the SAME timestamp, twice.
ALWAYS = FaultSpec(flaky_prob=1.0)
LOCKSTEP = RetryPolicy(max_attempts=3, backoff_s=1.0, multiplier=1.0)


def _burst():
    return [ServingRequest(1.0, rid, PAYLOAD) for rid in range(4)]


def _run(arrivals, **kwargs):
    return simulate(
        arrivals,
        ToyBackend(),
        ContinuousBatchScheduler(max_batch=4),
        slo=SLO,
        faults=ALWAYS,
        retry=LOCKSTEP,
        **kwargs,
    )


def test_duplicate_timestamp_retries_all_reenqueue_and_exhaust():
    report = _run(_burst())
    assert report.num_requests == 4
    for record in report.records:
        assert record.outcome == "failed"
        assert record.retries == 2  # attempts 2 and 3, both at shared instants
        assert record.attempts == 3
        # All three dispatch stamps exist and are strictly increasing.
        assert len(record.attempt_s) == 3
        assert record.attempt_s == sorted(set(record.attempt_s))
    assert report.faults.retries == 8
    assert report.faults.failed == 4


def test_duplicate_timestamp_replay_is_deterministic():
    first = _run(_burst())
    second = _run(_burst())
    assert first.to_csv() == second.to_csv()
    assert first.faults == second.faults
    assert [r.attempt_s for r in first.records] == [
        r.attempt_s for r in second.records
    ]


def test_queue_depth_sweep_sees_the_retry_waves():
    """Four retries re-enqueued at one instant must show up as queue
    pressure: max depth reaches the full wave on a single device."""
    report = simulate(
        _burst(),
        ToyBackend(),
        FCFSScheduler(),  # one request at a time: waves pile up
        slo=SLO,
        faults=ALWAYS,
        retry=LOCKSTEP,
    )
    assert report.max_queue_depth >= 3
    assert report.mean_queue_depth > 0.0


def test_streamed_retry_trace_is_byte_identical_to_kept_records():
    arrivals = PoissonWorkload(4.0, PAYLOAD, seed=2).generate(30)
    reference = _run(arrivals)
    sink = io.StringIO()
    dropped = _run(arrivals, trace_sink=sink, keep_records=False)
    assert sink.getvalue() == reference.to_csv()
    assert dropped.records == []
    assert dropped.faults == reference.faults
    assert dropped.max_queue_depth == reference.max_queue_depth
    assert dropped.mean_queue_depth == reference.mean_queue_depth
    assert dropped.slo_attainment() == reference.slo_attainment()


def test_a_stream_arrival_goes_before_a_retry_due_at_the_same_instant():
    """Request 0 finishes at 3.0 and flakes; its retry comes back at 4.0,
    the instant request 1 arrives.  The stream arrival queues first, so
    request 1 starts at 4.0 and the retry only once it is done, at 7.0."""
    payload = PAYLOAD.with_overrides(gen_tokens=2)
    report = simulate(
        [ServingRequest(0.0, 0, payload), ServingRequest(4.0, 1, payload)],
        ToyBackend(ttft=1.0, step=1.0),
        FCFSScheduler(),
        faults=FaultSpec(flaky_prob=0.5, seed=18),
        retry=RetryPolicy(max_attempts=2, backoff_s=1.0, multiplier=1.0),
    )
    first, second = report.records
    assert first.attempt_s == [0.0, 4.0]
    assert second.attempt_s == [4.0]
    assert second.prefill_start_s == 4.0
    assert first.prefill_start_s == 7.0
