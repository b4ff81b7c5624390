"""The FAULT event slot in the ordering contract, pinned.

``repro.serving.events`` promises that at one instant completions stamp
before fault transitions apply, and fault transitions apply before
arrivals are routed.  These tests pin the numeric kind values (they are
the contract — changing them silently would reorder every simultaneous
event) and the observable consequences: an occupancy ending exactly at a
crash instant keeps its tokens, while a request arriving exactly at a
crash instant already sees the device down.
"""

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.faults import FaultSpec
from repro.serving import FCFSScheduler, ServingRequest, simulate
from repro.serving.events import ARRIVAL, COMPLETION, FAULT, PLANNING

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=128, gen_tokens=2)


# -- the kind values ARE the contract -----------------------------------------

def test_kind_values_are_pinned():
    assert (COMPLETION, FAULT, ARRIVAL, PLANNING) == (0, 1, 2, 3)


# -- the behavioral consequences ----------------------------------------------
# ToyBackend(ttft=1, step=1) serves a gen_tokens=2 request in exactly 3 s,
# so arrivals at 0.0 and 3.0 put one completion and one arrival exactly at
# the crash instant of a (0, 3.0, 2.0) window.

def _run():
    arrivals = [
        ServingRequest(0.0, 0, PAYLOAD),
        ServingRequest(3.0, 1, PAYLOAD),
    ]
    return simulate(
        arrivals,
        ToyBackend(ttft=1.0, step=1.0),
        FCFSScheduler(),
        faults=FaultSpec(crash_windows=((0, 3.0, 2.0),)),
    )


def test_completion_at_the_crash_instant_keeps_its_tokens():
    report = _run()
    first = report.records[0]
    # Stamped BEFORE the simultaneous crash applied: finished, not re-queued.
    assert first.finish_s == 3.0
    assert first.outcome is None
    assert first.attempts == 1
    assert report.faults.requeued == 0


def test_arrival_at_the_crash_instant_sees_the_device_down():
    report = _run()
    second = report.records[1]
    # The crash applied BEFORE the arrival was delivered, so the request
    # could only start once the device recovered at 5.0.
    assert second.prefill_start_s == 5.0
    assert second.first_token_s == 6.0
    assert second.finish_s == 8.0
    assert second.outcome is None
    assert report.faults.crashes == 1 and report.faults.recoveries == 1
    assert report.faults.time_to_recover_s == (2.0,)
