"""The benchmark's three workloads: seeded inputs, simulator set-up, timed run.

Each workload is an offline batch.  Its arrivals are a seeded open loop
generated here from ``--seed`` alone, so the host has no arrival schedule
to fall behind, and the simulator receives nothing but the generated
inputs.  Every run starts cold, as a CLI invocation does: set-up builds
the inputs and the simulator objects but prices no request shape, so the
paper model runs inside the timed region for every distinct shape.

Offered rates are a share of *measured* saturated throughput
(:meth:`Workload.saturated_rps`, checked by ``record.py``), never
``max_batch / solo latency``: prefill dominates a Cambricon-LLM-L device,
so that formula overloads it several times over.  Why each workload is
in the benchmark is stated once, in the repository's ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.api import ExperimentRunner, InferenceRequest
from repro.faults import FaultSpec, RetryPolicy
from repro.fleet import build_fleet, get_router, simulate_fleet
from repro.memory import MemorySpec
from repro.obs import TimelineCollector, burn_rate_pack
from repro.serving import (
    BackendCostModel,
    ContinuousBatchScheduler,
    DigestSink,
    ServingRequest,
    SLOSpec,
    simulate,
)

BACKEND = "cambricon"
MODEL = "llama2-7b"
CONFIG = "L"
MAX_BATCH = 8

#: The seed a run uses when none is given, and a seed kept out of every
#: tuning run; ``record.json`` pins the outputs of both.
DEFAULT_SEED = 0
HELD_OUT_SEED = 97

#: Requests per device in the burst that measures capacity: enough that
#: the burst's draining tail moves the figure by under 1%.
BURST_PER_DEVICE = 2000

#: (seq_len, gen_tokens) shapes drawn once, uniformly over requests, from
#: the pooled bundled ``diurnal`` + ``flash_crowd`` traces (so frequent
#: shapes and the long-generation tail both appear).  Fixed here rather
#: than re-drawn per run: every seed then prices the same shapes.
CATALOGUE: Tuple[Tuple[int, int], ...] = (
    (128, 121), (256, 4), (256, 9), (256, 13), (256, 24),
    (256, 53), (256, 70), (256, 81), (512, 7), (512, 11),
    (512, 22), (512, 29), (512, 33), (512, 36), (512, 112),
    (1024, 40), (1024, 91), (2048, 4), (2048, 74), (2048, 92),
)  # fmt: skip


def diurnal_arrivals(
    rng: random.Random, count: int, mean_qps: float, swing: float, days: int
) -> List[float]:
    """``count`` arrival times of a day-shaped Poisson process.

    The rate is ``mean_qps * (1 - swing * cos(2 pi t / day))``: quiet at
    midnight (t = 0), peaking at noon, with ``days`` days spanning the
    expected ``count / mean_qps`` seconds.  Drawn by thinning a Poisson
    process at the peak rate, which samples the modulated process exactly.
    """
    day = count / mean_qps / days
    peak = mean_qps * (1.0 + swing)
    omega = 2.0 * math.pi / day
    times: List[float] = []
    now = 0.0
    while len(times) < count:
        now += rng.expovariate(peak)
        if rng.random() * peak <= mean_qps * (1.0 - swing * math.cos(omega * now)):
            times.append(now)
    return times


class RowCountingSink(DigestSink):
    """The library's hashing sink, also counting the lines written."""

    def __init__(self) -> None:
        super().__init__()
        self.lines = 0

    def write(self, text: str) -> int:
        self.lines += text.count("\n")
        return super().write(text)


@dataclass
class Outcome:
    """What one timed run produced, read after the clock stops."""

    requests: int
    digest: str
    sim_ttft_p99_s: float
    sim_goodput_rps: float
    report: object
    trace_bytes: int
    #: Data rows in the trace CSV (its header excluded).
    trace_rows: int


@dataclass
class Prepared:
    """A workload ready to run: ``run`` is the timed region, ``finish``
    turns its return value into an :class:`Outcome` off the clock."""

    run: Callable[[], object]
    finish: Callable[[object], Outcome]
    #: Objects the traced run reads counters from after the run.
    cost_models: List[BackendCostModel]
    runner: ExperimentRunner
    timeline: Optional[TimelineCollector] = None


@dataclass(frozen=True)
class Workload:
    """One workload's constants.

    ``capacity_rps`` is the saturated throughput of its traffic on its
    devices, as :meth:`saturated_rps` measures it; the offered mean rate
    is ``load * capacity_rps``, and the diurnal peak is ``1 + swing``
    times that.
    """

    name: str
    shapes: Tuple[Tuple[int, int], ...]
    devices: int
    #: Fleet router name; None runs the single-device loop.
    router: Optional[str]
    #: Attach the paper's DRAM KV budget (``MemorySpec()``) to every device.
    memory: bool
    requests: int
    capacity_rps: float
    load: float
    swing: float
    days: int
    slo: SLOSpec

    @property
    def rate_qps(self) -> float:
        return self.load * self.capacity_rps

    def traffic(self, seed: int) -> List[Tuple[float, InferenceRequest]]:
        """The seeded inputs: ``(arrival_s, payload)`` in arrival order.

        Payload objects are shared per shape, as a replayed trace's are.
        """
        rng = random.Random(seed)
        times = diurnal_arrivals(
            rng, self.requests, self.rate_qps, self.swing, self.days
        )
        payloads = self._payloads()
        if len(payloads) == 1:
            return [(when, payloads[0]) for when in times]
        return [(when, payloads[rng.randrange(len(payloads))]) for when in times]

    def _payloads(self) -> List[InferenceRequest]:
        return [
            InferenceRequest(model=MODEL, config=CONFIG, seq_len=seq, gen_tokens=gen)
            for seq, gen in self.shapes
        ]

    def fleet(self, runner: ExperimentRunner):
        """Fresh devices sharing one (cold) profile cache."""
        memory = MemorySpec() if self.memory else None
        return build_fleet(
            [BACKEND] * self.devices,
            scheduler_factory=lambda: ContinuousBatchScheduler(
                max_batch=MAX_BATCH, memory=memory
            ),
            runner=runner,
        )

    def saturated_rps(self) -> float:
        """Measured capacity: completed requests per simulated second when
        ``BURST_PER_DEVICE`` requests per device, drawn from the workload's
        shapes, all arrive at t = 0 on fault-free devices."""
        rng = random.Random(DEFAULT_SEED)
        payloads = self._payloads()
        burst = [
            ServingRequest(0.0, index, payloads[rng.randrange(len(payloads))])
            for index in range(BURST_PER_DEVICE * self.devices)
        ]
        fleet = self.fleet(ExperimentRunner())
        report = simulate_fleet(burst, fleet, get_router(self.router or "jsq"))
        return report.throughput_rps

    def prepare(self, seed: int) -> Prepared:
        """Build the inputs and the simulator objects; price nothing."""
        return _PREPARE[self.name](self, seed)


def _prepare_trace_mix(w: Workload, seed: int) -> Prepared:
    arrivals = [
        ServingRequest(when, index, payload)
        for index, (when, payload) in enumerate(w.traffic(seed))
    ]
    runner = ExperimentRunner()
    cost = BackendCostModel(BACKEND, runner=runner)
    scheduler = ContinuousBatchScheduler(max_batch=MAX_BATCH)

    def run():
        report = simulate(arrivals, cost, scheduler, slo=w.slo)
        return report, report.to_csv()

    def finish(result) -> Outcome:
        report, text = result
        data = text.encode("utf-8")
        return Outcome(
            requests=w.requests,
            digest=hashlib.sha256(data).hexdigest(),
            sim_ttft_p99_s=report.percentiles("ttft")["p99"],
            sim_goodput_rps=report.goodput_rps(),
            report=report,
            trace_bytes=len(data),
            trace_rows=text.count("\n") - 1,
        )

    return Prepared(run, finish, [cost], runner)


def _fleet_finish(count: int, sink: RowCountingSink):
    def finish(report) -> Outcome:
        return Outcome(
            requests=count,
            digest=sink.hexdigest(),
            sim_ttft_p99_s=report.percentiles("ttft")["p99"],
            sim_goodput_rps=report.goodput_rps(),
            report=report,
            trace_bytes=sink.bytes_written,
            trace_rows=sink.lines - 1,
        )

    return finish


def _prepare_fleet_day(w: Workload, seed: int) -> Prepared:
    traffic = w.traffic(seed)
    # The request objects are built as the simulator pulls them, as a
    # streamed day would be.
    stream: Iterator[ServingRequest] = (
        ServingRequest(when, index, payload)
        for index, (when, payload) in enumerate(traffic)
    )
    runner = ExperimentRunner()
    fleet = w.fleet(runner)
    router = get_router(w.router)
    sink = RowCountingSink()

    def run():
        return simulate_fleet(
            stream, fleet, router, slo=w.slo, trace_sink=sink, keep_records=False
        )

    return Prepared(
        run, _fleet_finish(w.requests, sink), [device.cost for device in fleet], runner
    )


CHAOS_WINDOW_S = 120.0
#: Slow windows cover about 15% of device time, so a slowed 2048-token
#: prefill is several percent of requests and the p99 TTFT sits on that
#: plateau for nearly every seed; short repairs keep crash backlogs from
#: pushing it off.
CHAOS_FAULTS: Dict[str, float] = dict(
    crash_mtbf_s=16000.0,
    crash_mttr_s=300.0,
    slow_mtbf_s=4000.0,
    slow_duration_s=600.0,
    slow_factor=2.0,
    flaky_prob=0.01,
)
CHAOS_RETRY: Dict[str, float] = dict(
    max_attempts=3, backoff_s=5.0, multiplier=2.0, jitter=0.2
)
CHAOS_DEADLINE_S = 60.0


def _prepare_chaos_spill(w: Workload, seed: int) -> Prepared:
    # A materialized list: with faults and keep_records=False, a lazy
    # stream fails at close in this version of the simulator.
    arrivals = [
        ServingRequest(when, index, payload)
        for index, (when, payload) in enumerate(w.traffic(seed))
    ]
    runner = ExperimentRunner()
    fleet = w.fleet(runner)
    router = get_router(w.router, exclude_unhealthy=True)
    faults = FaultSpec(**CHAOS_FAULTS, seed=seed)
    retry = RetryPolicy(**CHAOS_RETRY, seed=seed)
    timeline = TimelineCollector(
        window_s=CHAOS_WINDOW_S,
        slo=w.slo,
        rules=burn_rate_pack(w.slo.min_attainment, CHAOS_WINDOW_S),
    )
    sink = RowCountingSink()

    def run():
        return simulate_fleet(
            arrivals,
            fleet,
            router,
            slo=w.slo,
            faults=faults,
            retry=retry,
            deadline_s=CHAOS_DEADLINE_S,
            trace_sink=sink,
            keep_records=False,
            recorder=timeline,
        )

    return Prepared(
        run,
        _fleet_finish(w.requests, sink),
        [device.cost for device in fleet],
        runner,
        timeline,
    )


_PREPARE = {
    "trace_mix": _prepare_trace_mix,
    "fleet_day": _prepare_fleet_day,
    "chaos_spill": _prepare_chaos_spill,
}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="trace_mix",
            shapes=CATALOGUE,
            devices=1,
            router=None,
            memory=False,
            requests=20000,
            capacity_rps=0.1807455198109344,
            load=0.35,
            swing=0.1,
            days=8,
            slo=SLOSpec(ttft_s=60.0, e2e_s=120.0, min_attainment=0.95),
        ),
        Workload(
            name="fleet_day",
            shapes=((512, 16),),
            devices=100,
            router="jsq",
            memory=False,
            requests=30000,
            capacity_rps=25.83718191592868,
            load=0.7,
            swing=0.1,
            days=1,
            slo=SLOSpec(ttft_s=10.0, e2e_s=15.0, min_attainment=0.95),
        ),
        Workload(
            name="chaos_spill",
            shapes=((256, 81), (512, 36), (1024, 91), (2048, 74)),
            devices=8,
            router="headroom",
            memory=True,
            requests=24000,
            capacity_rps=0.4720161765122749,
            load=0.72,
            swing=0.3,
            days=1,
            slo=SLOSpec(ttft_s=25.0, e2e_s=90.0, min_attainment=0.95),
        ),
    )
}
