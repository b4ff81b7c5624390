"""Cambricon-LLM reproduction library.

A pure-Python model of the chiplet NPU + in-flash-computing architecture of
*Cambricon-LLM: A Chiplet-Based Hybrid Architecture for On-Device Inference
of 70B LLM* (MICRO 2024), including the NAND-flash and NPU substrates, the
hardware-aware tiling scheduler, the outlier-oriented on-die ECC, the
offloading baselines and the full benchmark harness that regenerates the
paper's tables and figures.

Quick start — the unified Backend/Request/Result API drives every system::

    from repro import ExperimentRunner, InferenceRequest, get_backend

    # One request on one backend:
    result = get_backend("cambricon").run(
        InferenceRequest(model="llama2-70b", config="L", seq_len=4000)
    )
    print(result.tokens_per_second, result.time_to_first_token_s)

    # A memoized grid across systems (Fig. 9 in four lines):
    runner = ExperimentRunner()
    results = runner.run_grid(
        backends=["cambricon", "flexgen-ssd", "flexgen-dram", "mlc-llm"],
        models=["llama2-7b", "llama2-70b"],
        configs=["S", "M", "L"],
    )
    print(results.to_markdown())

New systems plug in with ``register_backend("name", MyBackend)`` and
immediately work in grids and the ``python -m repro grid`` CLI.  The
lower-level models the backends build on (:class:`InferenceEngine`, the
baseline classes) and the ECC and accuracy studies remain available for
system-specific detail.

On top of the single-job API, :mod:`repro.serving` simulates *queues* of
timestamped requests — seeded workload generators, pluggable schedulers
(FCFS / static / continuous batching), SLO percentile reports and a
``find_max_qps`` capacity search — also exposed as ``python -m repro serve``.
:mod:`repro.fleet` scales that to multi-device clusters: routing policies,
tensor/pipeline sharding transforms and a ``size_fleet`` capacity planner
("how many chiplets for X qps under this SLO"), exposed as
``python -m repro fleet``.

Both event loops fast-forward through provably uneventful decode
stretches (occupancy coalescing), so million-step traces simulate in
seconds while staying byte-identical to the step-by-step reference;
``benchmarks/perf/`` tracks the trajectory in ``BENCH_serving.json``.

:mod:`repro.memory` models the flash-backed KV memory under all of it: a
:class:`MemorySpec` (DRAM budget + flash geometry) attached to a
continuous-batching scheduler makes admission capacity-aware — cold KV
spills to flash through a write-coalescing cache and a page-mapped FTL,
refills pay modeled channel time, sharding multiplies a replica's
capacity (rescuing OOM configs in ``size_fleet``), and the ``headroom``
router steers arrivals to the replica with the most free KV DRAM.

:mod:`repro.obs` watches all of it without perturbing any of it: a
:class:`SpanRecorder` passed to either event loop captures request
phases, admission verdicts, coalescing caps, spills and routing
decisions on the *simulated* clock (exportable as Perfetto/Chrome trace
JSON), a :class:`TimelineCollector` folds the same emissions into
fixed-width metric windows (rates, goodput, queue depth, utilization,
KV DRAM occupancy, exact per-window latency percentiles) with
SLO-burn-rate alert rules evaluated as windows close, a
:func:`critical_path` pass attributes where the tail latency and the
makespan actually went, and a :class:`MetricsRegistry` absorbs a
finished report into a Prometheus-text :class:`MetricsSnapshot`.
Attaching any of them never changes a trace CSV, a report, or a
makespan — the disabled path costs zero per-event work.  No module of
the package reads the wall clock; ``python3 simbench/run.py --trace 1``
splits the simulator's own wall-clock time by layer from outside it.

:mod:`repro.faults` turns the event loop into a chaos rig without
losing determinism: a :class:`FaultSpec` injects seeded crash / recover
windows, transient slowdowns and flaky per-attempt failures as FAULT
events on the simulated clock, a :class:`RetryPolicy` plus per-request
deadlines (and optional hedging) model client resilience, and
health-aware routing (``get_router("failover")``, or
``exclude_unhealthy=True`` on any policy) steers arrivals around dead
replicas.  Reports grow a :class:`FaultReport` — availability,
time-to-recover, shed / timed-out / failed / retried counts — and a
fixed seed replays the whole outage byte for byte.  With
``faults=None`` (and no retry policy or deadline) the loop's fault
handling never runs.
"""

from repro.api import (
    Backend,
    CambriconBackend,
    ExperimentRunner,
    FlexGenDRAMBackend,
    FlexGenSSDBackend,
    InferenceRequest,
    MLCLLMBackend,
    OffloadingBackend,
    ResultSet,
    RunResult,
    get_backend,
    list_backends,
    register_backend,
)
from repro.core import (
    CambriconLLMConfig,
    DecodeReport,
    InferenceEngine,
    TileShape,
    TilingStrategy,
    WorkloadPartition,
    cambricon_llm_l,
    cambricon_llm_m,
    cambricon_llm_s,
    get_config,
)
from repro.llm import DecodeWorkload, ModelSpec, get_model, list_models
from repro.flash import FlashGeometry, FlashTiming, SliceControl, SlicePolicy
from repro.npu import NPUSpec
from repro.baselines import FlexGenDRAM, FlexGenSSD, MLCLLM
from repro.ecc import BitFlipErrorModel, PageCodec, PageLayout
from repro.accuracy import ErrorInjectionStudy, ProxyLLM, paper_tasks
from repro.serving import (
    ContinuousBatchScheduler,
    FCFSScheduler,
    PoissonWorkload,
    ServingReport,
    SLOSpec,
    StaticBatchScheduler,
    find_max_qps,
    load_bundled_trace,
    simulate,
)
from repro.fleet import (
    Device,
    FleetReport,
    FleetSizingResult,
    JoinShortestQueueRouter,
    LeastWorkRouter,
    MemoryHeadroomRouter,
    RoundRobinRouter,
    Router,
    SLOAwareRouter,
    ShardedBackend,
    ShardingSpec,
    build_fleet,
    simulate_fleet,
    size_fleet,
)
from repro.memory import (
    KVFootprint,
    KVMemoryModel,
    MemoryReport,
    MemorySpec,
)
from repro.faults import (
    FaultInjector,
    FaultReport,
    FaultSpec,
    RetryPolicy,
)
from repro.obs import (
    AlertLog,
    BurnRateRule,
    MetricsRegistry,
    MetricsSnapshot,
    NullRecorder,
    Recorder,
    SpanRecorder,
    SustainedRule,
    TeeRecorder,
    ThresholdRule,
    TimelineCollector,
    critical_path,
    fleet_snapshot,
    serving_snapshot,
)

__version__ = "1.9.0"

__all__ = [
    "__version__",
    # unified API
    "Backend",
    "InferenceRequest",
    "RunResult",
    "ResultSet",
    "ExperimentRunner",
    "register_backend",
    "get_backend",
    "list_backends",
    "CambriconBackend",
    "OffloadingBackend",
    "FlexGenSSDBackend",
    "FlexGenDRAMBackend",
    "MLCLLMBackend",
    # core performance model
    "CambriconLLMConfig",
    "InferenceEngine",
    "DecodeReport",
    "TileShape",
    "TilingStrategy",
    "WorkloadPartition",
    "cambricon_llm_s",
    "cambricon_llm_m",
    "cambricon_llm_l",
    "get_config",
    # model zoo and workloads
    "ModelSpec",
    "DecodeWorkload",
    "get_model",
    "list_models",
    # substrates
    "FlashGeometry",
    "FlashTiming",
    "SliceControl",
    "SlicePolicy",
    "NPUSpec",
    # baselines
    "FlexGenSSD",
    "FlexGenDRAM",
    "MLCLLM",
    # reliability and accuracy studies
    "BitFlipErrorModel",
    "PageCodec",
    "PageLayout",
    "ErrorInjectionStudy",
    "ProxyLLM",
    "paper_tasks",
    # serving simulator
    "PoissonWorkload",
    "FCFSScheduler",
    "StaticBatchScheduler",
    "ContinuousBatchScheduler",
    "simulate",
    "ServingReport",
    "SLOSpec",
    "find_max_qps",
    "load_bundled_trace",
    # fleet simulator
    "Device",
    "FleetReport",
    "FleetSizingResult",
    "Router",
    "RoundRobinRouter",
    "JoinShortestQueueRouter",
    "LeastWorkRouter",
    "SLOAwareRouter",
    "MemoryHeadroomRouter",
    "ShardedBackend",
    "ShardingSpec",
    "build_fleet",
    "simulate_fleet",
    "size_fleet",
    # flash-backed KV memory model
    "MemorySpec",
    "KVFootprint",
    "KVMemoryModel",
    "MemoryReport",
    # fault injection and resilience
    "FaultSpec",
    "FaultInjector",
    "FaultReport",
    "RetryPolicy",
    # observability
    "Recorder",
    "NullRecorder",
    "SpanRecorder",
    "TeeRecorder",
    "TimelineCollector",
    "AlertLog",
    "ThresholdRule",
    "SustainedRule",
    "BurnRateRule",
    "critical_path",
    "MetricsRegistry",
    "MetricsSnapshot",
    "serving_snapshot",
    "fleet_snapshot",
]
