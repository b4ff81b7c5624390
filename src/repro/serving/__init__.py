"""Discrete-event multi-request serving simulator with SLO metrics.

The paper's cost model answers "how fast is one decode job"; this package
answers the serving question on top of it: *what happens when a stream of
timestamped requests hits that device?*  A seeded workload generator
emits :class:`ServingRequest` arrivals, a pluggable scheduler decides how
they share the device, any registered :class:`repro.api` backend prices
each occupancy (TTFT for prefills, ``decode_step_seconds`` for decode
steps), and the event loop produces a :class:`ServingReport` with latency
percentiles, queue depth, utilization, throughput and goodput under an
:class:`SLOSpec`::

    from repro.serving import (
        ContinuousBatchScheduler, PoissonWorkload, SLOSpec, simulate,
    )
    from repro.api import InferenceRequest

    payload = InferenceRequest(model="llama2-7b", config="L", gen_tokens=32)
    workload = PoissonWorkload(rate_qps=0.5, payload=payload, seed=0)
    report = simulate(
        workload.generate(500), "cambricon",
        ContinuousBatchScheduler(max_batch=8),
        slo=SLOSpec(ttft_s=5.0, e2e_s=60.0),
    )
    print(report.percentiles("ttft"), report.goodput_rps())

:func:`find_max_qps` then bisects the arrival rate for the highest load
the SLO sustains.  Everything is seeded and wall-clock free: the same
inputs give byte-identical reports on every machine.
"""

from repro.serving.capacity import CapacityResult, find_max_qps
from repro.serving.events import ARRIVAL, COMPLETION, FAULT, PLANNING
from repro.serving.metrics import (
    ServingReport,
    SLOSpec,
    StreamedMetrics,
    percentile,
)
from repro.serving.request import RequestRecord, ServingRequest
from repro.serving.stream import DigestSink, TraceStreamer
from repro.serving.scheduler import (
    ContinuousBatchScheduler,
    FCFSScheduler,
    Occupancy,
    Scheduler,
    StaticBatchScheduler,
)
from repro.serving.simulator import BackendCostModel, simulate
from repro.serving.workload import (
    ConstantRateWorkload,
    OnOffWorkload,
    PoissonWorkload,
    TraceWorkload,
    WorkloadGenerator,
    list_bundled_traces,
    load_bundled_trace,
    write_trace,
)

__all__ = [
    "ServingRequest",
    "RequestRecord",
    "WorkloadGenerator",
    "PoissonWorkload",
    "ConstantRateWorkload",
    "OnOffWorkload",
    "TraceWorkload",
    "write_trace",
    "list_bundled_traces",
    "load_bundled_trace",
    "Scheduler",
    "Occupancy",
    "FCFSScheduler",
    "StaticBatchScheduler",
    "ContinuousBatchScheduler",
    "BackendCostModel",
    "simulate",
    "ServingReport",
    "SLOSpec",
    "StreamedMetrics",
    "percentile",
    "CapacityResult",
    "find_max_qps",
    "COMPLETION",
    "FAULT",
    "ARRIVAL",
    "PLANNING",
    "TraceStreamer",
    "DigestSink",
]
