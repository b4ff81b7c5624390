"""The seeded chaos acceptance run, pinned to the digit.

One fully-loaded scenario — the bundled diurnal trace on a four-replica
fleet behind the failover router, two overlapping crashes in the evening
peak, flaky verdicts with client retries, and a 20 s deadline — must
reproduce the exact availability, retry, time-to-recover and trace-hash
numbers recorded here.  Any drift in the fault engine, the event
ordering, the arrival source's re-entries or the failover router shows
up as a diff in this file before it shows up for a user.
"""

import hashlib

from serving_toys import ToyBackend

from repro.faults import FaultSpec, RetryPolicy
from repro.fleet import build_fleet, get_router, simulate_fleet
from repro.serving import ContinuousBatchScheduler, SLOSpec, load_bundled_trace

TRACE_SHA256 = "cb186f89b859e105f0e73e60b0b5533a9ae5ea299d3020137eb329bf49ad3ce9"


def _run(max_steps=None):
    arrivals = load_bundled_trace("diurnal").generate(150)
    fleet = build_fleet(
        [ToyBackend(ttft=1.0, step=0.1)] * 4,
        scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=4),
    )
    return simulate_fleet(
        arrivals,
        fleet,
        get_router("failover"),
        slo=SLOSpec(ttft_s=10.0, e2e_s=60.0),
        faults=FaultSpec(
            crash_windows=((0, 150.0, 25.0), (1, 155.0, 20.0)),
            flaky_prob=0.05,
            seed=13,
        ),
        retry=RetryPolicy(max_attempts=3, backoff_s=0.5),
        deadline_s=20.0,
        max_steps=max_steps,
    )


def test_chaos_acceptance_numbers_are_pinned():
    report = _run()
    faults = report.faults
    # Two mid-peak crashes, both recovered inside the run.
    assert faults.crashes == 2
    assert faults.recoveries == 2
    assert faults.time_to_recover_s == (25.0, 20.0)
    assert faults.mean_time_to_recover_s == 22.5
    assert faults.max_time_to_recover_s == 25.0
    assert faults.downtime_s == 45.0
    # Fleet-seconds lost to downtime, to the digit.
    assert faults.availability == 0.9645110410094639
    # Client-visible damage: retries absorbed the flaky verdicts, the
    # crash re-queue saved the in-flight request, five ran past deadline.
    assert faults.retries == 5
    assert faults.requeued == 1
    assert faults.shed == 0
    assert faults.timed_out == 5
    assert faults.failed == 0
    assert report.num_completed == 150
    assert report.slo_attainment() == 145 / 150


def test_chaos_acceptance_trace_is_byte_pinned():
    digest = hashlib.sha256(_run().to_csv().encode()).hexdigest()
    assert digest == TRACE_SHA256


def test_chaos_acceptance_survives_coalescing():
    coalesced = _run()
    stepwise = _run(max_steps=1)
    assert coalesced.to_csv() == stepwise.to_csv()
    assert coalesced.faults == stepwise.faults
