"""Fault-aware runs over lazily-streamed requests.

With ``keep_records=False`` a generator is consumed one request at a time
and never materialized, so nothing at close-out may read the stream
again.  Each resilience knob on its own, with and without a trace sink,
must reproduce the run fed the same requests as a list: same trace
bytes, same aggregates, same fault counters.
"""

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.faults import FaultSpec, RetryPolicy
from repro.fleet import build_fleet, get_router, simulate_fleet
from repro.serving import (
    ContinuousBatchScheduler,
    DigestSink,
    PoissonWorkload,
    SLOSpec,
    simulate,
)

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24)
SLO = SLOSpec(ttft_s=10.0, e2e_s=60.0)

#: One resilience knob per case, each tuned to actually fire.
KNOBS = {
    "faults": dict(
        faults=FaultSpec(
            crash_windows=((0, 4.0, 3.0),),
            slow_windows=((0, 12.0, 6.0, 2.5),),
            flaky_prob=0.05,
            seed=7,
        )
    ),
    "retry": dict(retry=RetryPolicy(max_attempts=3, backoff_s=0.5, hedge_after_s=2.0)),
    "deadline_s": dict(deadline_s=8.0),
}

#: The counter that proves each knob fired.
FIRED = {
    "faults": lambda report: report.crashes,
    "retry": lambda report: report.hedges,
    "deadline_s": lambda report: report.shed + report.timed_out,
}


def _arrivals():
    return PoissonWorkload(4.0, PAYLOAD, seed=5).generate(120)


def _run(shape, requests, sink, knob):
    kwargs = dict(slo=SLO, trace_sink=sink, keep_records=False, **KNOBS[knob])
    if shape == "serve":
        return simulate(
            requests, ToyBackend(), ContinuousBatchScheduler(max_batch=4), **kwargs
        )
    fleet = build_fleet(
        [ToyBackend(ttft=1.0, step=0.1)] * 3,
        scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=4),
    )
    return simulate_fleet(requests, fleet, get_router("failover"), **kwargs)


@pytest.mark.parametrize("with_sink", [False, True], ids=["no-sink", "digest-sink"])
@pytest.mark.parametrize("knob", sorted(KNOBS))
@pytest.mark.parametrize("shape", ["serve", "fleet"])
def test_lazy_stream_reproduces_the_list_run(shape, knob, with_sink):
    arrivals = _arrivals()
    outputs = []
    for requests in (arrivals, (request for request in arrivals)):
        sink = DigestSink() if with_sink else None
        report = _run(shape, requests, sink, knob)
        outputs.append(
            (
                sink.hexdigest() if sink is not None else None,
                report.summary_rows(),
                report.percentiles("ttft"),
                report.percentiles("e2e"),
                report.faults,
            )
        )
    listed, streamed = outputs
    assert streamed == listed
    assert FIRED[knob](listed[4]) > 0
