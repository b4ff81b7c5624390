"""Tracked perf benchmarks for the serving / fleet / capacity hot paths.

Unlike the figure suite (which checks the *model's numbers*), this suite
tracks how fast the simulators themselves run, so every PR has a perf
trajectory to answer to.  Each scenario times the coalesced event loop
(the default) against the step-by-step reference (``max_steps=1``),
verifies the two produce byte-identical per-request trace CSVs, and
records wall-clock seconds plus events processed into ``BENCH_serving.json``::

    PYTHONPATH=src python benchmarks/perf/perf_serving.py --output BENCH_serving.json

Wall-clock numbers vary with the host; the events-processed counters and
the byte-identical flags are deterministic.  ``--check`` additionally
enforces the acceptance bars — a >= 10x event reduction (plus a 3x
wall-clock floor) on the 5k x 256-token continuous-batching scenario,
single-digit seconds and a streaming-RSS win on the million-request
scenarios, real spill traffic and a sub-15s wall clock on the KV-spill
scenario — and that every scenario stayed byte-identical; used by the
non-blocking CI perf job.  The cold-pricing scenario (``pricing``) adds
deterministic bars: the paper model searches tiles, and runs the channel
simulator, once per (config, model).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import subprocess
import sys
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))
sys.path.append(os.path.join(_REPO_ROOT, "simbench"))

from repro.api import CambriconBackend, ExperimentRunner, InferenceRequest  # noqa: E402
from repro.core import InferenceEngine, get_config  # noqa: E402
from repro.core.tiling import TilingStrategy  # noqa: E402
from repro.flash.simulator import ChannelSimulator  # noqa: E402
from repro.fleet import JoinShortestQueueRouter, build_fleet, simulate_fleet  # noqa: E402
from repro.memory import MemorySpec  # noqa: E402
from repro.obs import SpanRecorder, TimelineCollector  # noqa: E402
from repro.units import MiB  # noqa: E402
from repro.serving import (  # noqa: E402
    BackendCostModel,
    ContinuousBatchScheduler,
    DigestSink,
    PoissonWorkload,
    SLOSpec,
    WorkloadGenerator,
    find_max_qps,
    simulate,
)
from workloads import CATALOGUE, CONFIG, MODEL  # noqa: E402

BACKEND = "cambricon"
MAX_BATCH = 8

#: Shapes of the million-request scenarios (shared with the --rss-probe
#: subprocess, so both sides of the RSS comparison run the same workload).
STREAM_1M_REQUESTS = 1_000_000
STREAM_1M_GEN_TOKENS = 16


class DiurnalPoisson(WorkloadGenerator):
    """Poisson arrivals whose rate follows a compressed day curve.

    The instantaneous rate is ``base_qps * (1 + swing * sin(2*pi*t/period))``
    held piecewise-constant between arrivals — a deterministic, seeded
    stand-in for a diurnal production trace at any request count.
    """

    def __init__(self, base_qps, payload, *, period_s=600.0, swing=0.6, seed=0):
        super().__init__(payload, seed=seed)
        self.base_qps = base_qps
        self.period_s = period_s
        self.swing = swing

    def _arrival_times(self, num_requests, rng):
        times, now = [], 0.0
        scale = 2.0 * math.pi / self.period_s
        for _ in range(num_requests):
            rate = self.base_qps * (1.0 + self.swing * math.sin(scale * now))
            now += rng.expovariate(rate)
            times.append(now)
        return times


def _timed(fn):
    """Wall clock with the cyclic GC paused, as ``timeit`` does: a
    million-request run keeps enough containers live that full
    collections otherwise bill ~5% of noise onto whichever run they
    happen to interrupt."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        value = fn()
        return time.perf_counter() - start, value
    finally:
        if was_enabled:
            gc.enable()


def _timed_best(fn, trials=3):
    """Best-of-N wall clock (timeit's convention: the minimum is the
    run's true cost, everything above it is scheduler/cache noise —
    which on a busy CI host easily exceeds the bars' margins)."""
    seconds, value = _timed(fn)
    for _ in range(trials - 1):
        retry, _ = _timed(fn)
        seconds = min(seconds, retry)
    return seconds, value


def _overload_arrivals(payload, num_requests, *, rate_scale=1.5, seed=0):
    """A Poisson stream slightly above the batched service rate, so the
    device stays saturated and decode dominates (the paper's heavy-traffic
    regime, and the worst case for a per-step event loop)."""
    solo = BackendCostModel(BACKEND).total_seconds(payload)
    rate = rate_scale * MAX_BATCH / solo
    return PoissonWorkload(rate, payload, seed=seed).generate(num_requests)


def bench_serving_continuous(num_requests=5000, gen_tokens=256):
    """The tentpole scenario: 5k requests x 256-token generations under
    continuous batching, coalesced vs. step-by-step."""
    payload = InferenceRequest(model="llama2-7b", seq_len=512, gen_tokens=gen_tokens)
    arrivals = _overload_arrivals(payload, num_requests)
    # Warm the backend-profile cache so wall-clock measures the event
    # loop, not the (memoized) analytical backend evaluations.
    simulate(arrivals[:50], BACKEND, ContinuousBatchScheduler(max_batch=MAX_BATCH))

    baseline_s, baseline = _timed(
        lambda: simulate(
            arrivals,
            BACKEND,
            ContinuousBatchScheduler(max_batch=MAX_BATCH),
            max_steps=1,
        )
    )
    coalesced_s, coalesced = _timed(
        lambda: simulate(
            arrivals, BACKEND, ContinuousBatchScheduler(max_batch=MAX_BATCH)
        )
    )
    return {
        "num_requests": num_requests,
        "gen_tokens": gen_tokens,
        "seconds": coalesced_s,
        "events": coalesced.num_events,
        "uncoalesced_seconds": baseline_s,
        "uncoalesced_events": baseline.num_events,
        "speedup": baseline_s / coalesced_s,
        "events_ratio": baseline.num_events / coalesced.num_events,
        "byte_identical": baseline.to_csv() == coalesced.to_csv(),
    }


def bench_fleet_jsq(num_requests=2000, gen_tokens=128, num_devices=4):
    """Fleet loop: 4 continuous-batching replicas behind JSQ routing."""
    payload = InferenceRequest(model="llama2-7b", seq_len=512, gen_tokens=gen_tokens)
    arrivals = _overload_arrivals(
        payload, num_requests, rate_scale=1.5 * num_devices, seed=1
    )

    def run(max_steps):
        fleet = build_fleet(
            [BACKEND] * num_devices,
            scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=MAX_BATCH),
        )
        return simulate_fleet(
            arrivals, fleet, JoinShortestQueueRouter(), max_steps=max_steps
        )

    run(None)  # warm the profile caches
    baseline_s, baseline = _timed(lambda: run(1))
    coalesced_s, coalesced = _timed(lambda: run(None))
    return {
        "num_requests": num_requests,
        "gen_tokens": gen_tokens,
        "num_devices": num_devices,
        "seconds": coalesced_s,
        "events": coalesced.num_events,
        "uncoalesced_seconds": baseline_s,
        "uncoalesced_events": baseline.num_events,
        "speedup": baseline_s / coalesced_s,
        "events_ratio": baseline.num_events / coalesced.num_events,
        "byte_identical": baseline.to_csv() == coalesced.to_csv(),
    }


def bench_capacity_search(num_requests=400, gen_tokens=64):
    """Capacity search: early-exit on hopeless probes vs. full simulation.

    Half of every bisection is failing probes; ``fail_fast`` aborts them
    once attainment is mathematically decided.  The found rate must not
    change.
    """
    payload = InferenceRequest(model="llama2-7b", seq_len=512, gen_tokens=gen_tokens)
    slo = SLOSpec(ttft_s=20.0, e2e_s=120.0)

    def run(fail_fast):
        return find_max_qps(
            BACKEND,
            payload,
            slo,
            scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=MAX_BATCH),
            num_requests=num_requests,
            fail_fast=fail_fast,
        )

    run(True)  # warm the profile caches
    baseline_s, baseline = _timed(lambda: run(False))
    fast_s, fast = _timed(lambda: run(True))

    # Per-probe cost: replay every *failing* rate both ways and count the
    # events the early exit saved (deterministic, host-independent).
    cost = BackendCostModel(BACKEND)
    full_events = aborted_events = 0
    for rate, met in fast.probes:
        if met:
            continue
        arrivals = PoissonWorkload(rate, payload, seed=0).generate(num_requests)
        for fail_fast, bucket in ((False, "full"), (True, "aborted")):
            report = simulate(
                arrivals,
                cost,
                ContinuousBatchScheduler(max_batch=MAX_BATCH),
                slo=slo,
                fail_fast=fail_fast,
            )
            if bucket == "full":
                full_events += report.num_events
            else:
                aborted_events += report.num_events
    return {
        "num_requests": num_requests,
        "gen_tokens": gen_tokens,
        "seconds": fast_s,
        "uncoalesced_seconds": baseline_s,
        "speedup": baseline_s / fast_s,
        "probes": len(fast.probes),
        "max_qps": fast.max_qps,
        "failing_probe_events": aborted_events,
        "failing_probe_events_full": full_events,
        "events_ratio": full_events / aborted_events if aborted_events else 1.0,
        "byte_identical": fast.max_qps == baseline.max_qps
        and fast.probes == baseline.probes,
    }


def bench_serving_kv_spill_100k(num_requests=100_000, gen_tokens=8):
    """The memory-model hot path at scale: 100k requests against DRAM
    sized to 7.5 prompts, so every 8-deep batch spills KV to flash and
    decodes through the read-through regime (strictly single-step by
    design — the interesting numbers are wall clock staying flat and the
    coalesced/step-by-step traces staying byte-identical, not a speedup)."""
    payload = InferenceRequest(model="llama2-7b", seq_len=512, gen_tokens=gen_tokens)
    arrivals = _overload_arrivals(payload, num_requests, seed=4)
    spec = MemorySpec(dram_bytes=1920 * MiB)
    cost = BackendCostModel(BACKEND)

    def run(max_steps=None):
        return simulate(
            arrivals,
            cost,
            ContinuousBatchScheduler(max_batch=MAX_BATCH, memory=spec),
            max_steps=max_steps,
        )

    simulate(  # warm the profile cache
        arrivals[:50], cost, ContinuousBatchScheduler(max_batch=MAX_BATCH, memory=spec)
    )
    coalesced_s, coalesced = _timed_best(lambda: run())
    baseline_s, baseline = _timed(lambda: run(max_steps=1))
    memory = coalesced.memory
    return {
        "num_requests": num_requests,
        "gen_tokens": gen_tokens,
        "dram_bytes": spec.dram_bytes,
        "seconds": coalesced_s,
        "events": coalesced.num_events,
        "uncoalesced_seconds": baseline_s,
        "uncoalesced_events": baseline.num_events,
        "speedup": baseline_s / coalesced_s,
        "events_ratio": baseline.num_events / coalesced.num_events,
        "spill_events": memory.spill_events,
        "spill_bytes": memory.spill_bytes,
        "flash_pages_written": memory.flash_pages_written,
        "flash_pages_read": memory.flash_pages_read,
        "gc_erases": memory.erases,
        "byte_identical": baseline.to_csv() == coalesced.to_csv()
        and baseline.memory == coalesced.memory,
    }


def _serving_1m_workload():
    payload = InferenceRequest(
        model="llama2-7b", seq_len=512, gen_tokens=STREAM_1M_GEN_TOKENS
    )
    solo = BackendCostModel(BACKEND).total_seconds(payload)
    base = 0.9 * MAX_BATCH / solo
    return DiurnalPoisson(base, payload, seed=2), payload


def bench_serving_stream_1m(num_requests=STREAM_1M_REQUESTS):
    """Streaming tentpole, single device: one million requests through the
    heap-driven loop with ``keep_records=False``, trace digested on the
    fly.  Byte identity vs. the step-by-step reference is checked on the
    streamed digests (O(1) memory on both sides), and peak RSS is probed
    in subprocesses (``ru_maxrss`` is process-monotonic) for the streaming
    vs. record-keeping paths."""
    workload, payload = _serving_1m_workload()
    runner = ExperimentRunner()
    cost = BackendCostModel(BACKEND, runner=runner)

    def run(max_steps=None, sink=None):
        return simulate(
            workload.stream(num_requests),
            cost,
            ContinuousBatchScheduler(max_batch=MAX_BATCH),
            max_steps=max_steps,
            trace_sink=sink,
            keep_records=False,
        )

    simulate(  # warm the shared profile cache
        workload.generate(50), cost, ContinuousBatchScheduler(max_batch=MAX_BATCH)
    )
    seconds, report = _timed_best(lambda: run())
    digest = DigestSink()
    run(sink=digest)
    reference = DigestSink()
    baseline_s, _ = _timed(lambda: run(max_steps=1, sink=reference))
    rss = {
        mode: _peak_rss_probe(mode) for mode in ("streaming", "inmemory")
    }
    return {
        "num_requests": num_requests,
        "gen_tokens": STREAM_1M_GEN_TOKENS,
        "seconds": seconds,
        "events": report.num_events,
        "uncoalesced_seconds": baseline_s,
        "speedup": baseline_s / seconds,
        "events_ratio": 1.0,
        "trace_bytes": digest.bytes_written,
        "peak_rss_streaming_kb": rss["streaming"],
        "peak_rss_inmemory_kb": rss["inmemory"],
        "byte_identical": digest.hexdigest() == reference.hexdigest(),
    }


def bench_fleet_stream_1m(num_requests=STREAM_1M_REQUESTS, num_devices=100):
    """The tentpole acceptance scenario: one million diurnal-rate requests
    across a 100-device JSQ fleet in single-digit seconds, byte-identical
    (streamed digests) to the step-by-step reference."""
    payload = InferenceRequest(
        model="llama2-7b", seq_len=512, gen_tokens=STREAM_1M_GEN_TOKENS
    )
    runner = ExperimentRunner()
    solo = BackendCostModel(BACKEND, runner=runner).total_seconds(payload)
    base = 0.9 * num_devices * MAX_BATCH / solo
    workload = DiurnalPoisson(base, payload, seed=3)

    def run(max_steps=None, sink=None):
        fleet = build_fleet(
            [BACKEND] * num_devices,
            scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=MAX_BATCH),
            runner=runner,
        )
        return simulate_fleet(
            workload.stream(num_requests),
            fleet,
            JoinShortestQueueRouter(),
            max_steps=max_steps,
            trace_sink=sink,
            keep_records=False,
        )

    simulate(  # warm the shared profile cache
        workload.generate(50),
        BackendCostModel(BACKEND, runner=runner),
        ContinuousBatchScheduler(max_batch=MAX_BATCH),
    )
    seconds, report = _timed_best(lambda: run())
    digest = DigestSink()
    run(sink=digest)
    reference = DigestSink()
    baseline_s, _ = _timed(lambda: run(max_steps=1, sink=reference))
    return {
        "num_requests": num_requests,
        "gen_tokens": STREAM_1M_GEN_TOKENS,
        "num_devices": num_devices,
        "seconds": seconds,
        "events": report.num_events,
        "uncoalesced_seconds": baseline_s,
        "speedup": baseline_s / seconds,
        "events_ratio": 1.0,
        "trace_bytes": digest.bytes_written,
        "byte_identical": digest.hexdigest() == reference.hexdigest(),
    }


def _peak_rss_probe(mode):
    """Peak RSS (KB) of one 1M-request serving run, measured in a child
    process — ``ru_maxrss`` never decreases within a process, so the two
    modes must not share one."""
    result = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--rss-probe", mode],
        capture_output=True,
        text=True,
        check=True,
    )
    return int(result.stdout.strip().splitlines()[-1])


def _rss_probe_main(mode):
    """Child side of :func:`_peak_rss_probe`."""
    import resource

    workload, payload = _serving_1m_workload()
    scheduler = ContinuousBatchScheduler(max_batch=MAX_BATCH)
    if mode == "streaming":
        simulate(
            workload.stream(STREAM_1M_REQUESTS),
            BACKEND,
            scheduler,
            trace_sink=DigestSink(),
            keep_records=False,
        )
    elif mode == "inmemory":
        simulate(workload.generate(STREAM_1M_REQUESTS), BACKEND, scheduler)
    else:
        raise SystemExit(f"unknown --rss-probe mode {mode!r}")
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return 0


def bench_fault_overhead(num_requests=5000, gen_tokens=64):
    """The resilience contract, priced: the plain loop versus the loop
    with fault handling armed by a benign spec (nothing fires inside the
    makespan — the per-record fault bookkeeping itself is the cost, and
    the trace must stay byte-identical to the plain run), versus real chaos (a mid-run crash plus flaky
    verdicts and client retries, where coalesced must stay byte-identical
    to the step-by-step reference).  ``--check`` bounds the benign
    overhead and requires both identities."""
    from repro.faults import FaultSpec, RetryPolicy

    payload = InferenceRequest(model="llama2-7b", seq_len=512, gen_tokens=gen_tokens)
    arrivals = _overload_arrivals(payload, num_requests, seed=6)
    cost = BackendCostModel(BACKEND)
    benign = FaultSpec(crash_windows=((0, 1e12, 1.0),))
    chaos = FaultSpec(
        crash_windows=((0, 120.0, 30.0),), flaky_prob=0.01, seed=7
    )
    retry = RetryPolicy(max_attempts=3, backoff_s=0.5)

    def run(faults=None, retry=None, max_steps=None):
        return simulate(
            arrivals,
            cost,
            ContinuousBatchScheduler(max_batch=MAX_BATCH),
            faults=faults,
            retry=retry,
            max_steps=max_steps,
        )

    run()  # warm the profile cache
    bare_s, bare = _timed_best(lambda: run())
    benign_s, benign_report = _timed_best(lambda: run(faults=benign))
    chaos_s, chaos_report = _timed_best(lambda: run(faults=chaos, retry=retry))
    baseline_s, baseline = _timed(
        lambda: run(faults=chaos, retry=retry, max_steps=1)
    )
    return {
        "num_requests": num_requests,
        "gen_tokens": gen_tokens,
        "bare_seconds": bare_s,
        "benign_seconds": benign_s,
        "fault_overhead": benign_s / bare_s,
        "seconds": chaos_s,
        "events": chaos_report.num_events,
        "uncoalesced_seconds": baseline_s,
        "uncoalesced_events": baseline.num_events,
        "speedup": baseline_s / chaos_s,
        "events_ratio": baseline.num_events / chaos_report.num_events,
        "crashes": chaos_report.faults.crashes,
        "requeued": chaos_report.faults.requeued,
        "retries": chaos_report.faults.retries,
        "byte_identical": benign_report.to_csv() == bare.to_csv()
        and baseline.to_csv() == chaos_report.to_csv()
        and baseline.faults == chaos_report.faults,
    }


def bench_obs_overhead(num_requests=5000, gen_tokens=64):
    """The observability contract, priced: the continuous-batching loop
    bare (``recorder=None`` — the path every other scenario, including
    ``serving_stream_1M`` and its bars, runs on) and with a ``SpanRecorder``
    attached.  Byte identity across both is part of ``--check``; the
    recorded wall clock documents what opting in costs."""
    payload = InferenceRequest(model="llama2-7b", seq_len=512, gen_tokens=gen_tokens)
    arrivals = _overload_arrivals(payload, num_requests, seed=5)
    cost = BackendCostModel(BACKEND)

    def run(recorder=None):
        return simulate(
            arrivals,
            cost,
            ContinuousBatchScheduler(max_batch=MAX_BATCH),
            recorder=recorder,
        )

    run()  # warm the profile cache
    bare_s, bare = _timed_best(lambda: run())
    # Fresh recorder per trial: a shared one would accumulate events.
    recorded_s, _ = _timed_best(lambda: run(recorder=SpanRecorder()))
    recorder = SpanRecorder()
    recorded = run(recorder=recorder)
    return {
        "num_requests": num_requests,
        "gen_tokens": gen_tokens,
        "seconds": bare_s,
        "recorded_seconds": recorded_s,
        "recorder_overhead": recorded_s / bare_s,
        "events_recorded": len(recorder.events),
        "byte_identical": bare.to_csv() == recorded.to_csv(),
    }


def bench_timeline_overhead(num_requests=5000, gen_tokens=64, window_s=60.0):
    """The windowed-telemetry path, priced the same way: the loop bare
    versus with a ``TimelineCollector`` folding each resolved request and
    each ended occupancy into fixed windows (including the finalize-time
    queue-depth sweep).
    Byte identity is part of ``--check``; the fold's wall clock and the
    window count document what the timeline costs."""
    payload = InferenceRequest(model="llama2-7b", seq_len=512, gen_tokens=gen_tokens)
    arrivals = _overload_arrivals(payload, num_requests, seed=5)
    cost = BackendCostModel(BACKEND)
    slo = SLOSpec(ttft_s=10.0, e2e_s=60.0)

    def run(recorder=None):
        return simulate(
            arrivals,
            cost,
            ContinuousBatchScheduler(max_batch=MAX_BATCH),
            slo=slo,
            recorder=recorder,
        )

    run()  # warm the profile cache
    bare_s, bare = _timed_best(lambda: run())
    # Fresh collector per trial: finalized windows reject new emissions.
    observed_s, _ = _timed_best(
        lambda: run(recorder=TimelineCollector(window_s=window_s, slo=slo))
    )
    collector = TimelineCollector(window_s=window_s, slo=slo)
    observed = run(recorder=collector)
    rows = collector.to_rows()
    return {
        "num_requests": num_requests,
        "gen_tokens": gen_tokens,
        "window_s": window_s,
        "seconds": bare_s,
        "observed_seconds": observed_s,
        "timeline_overhead": observed_s / bare_s,
        "windows": len(rows),
        "completions_folded": sum(row["completions"] for row in rows),
        "byte_identical": (
            bare.to_csv() == observed.to_csv()
            and sum(row["completions"] for row in rows) == observed.num_completed
        ),
    }


@contextlib.contextmanager
def _counted(owner, name, counts):
    """Count the calls of ``owner.name`` into ``counts[name]`` while open."""
    original = vars(owner)[name]
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    setattr(owner, name, counted)
    try:
        yield
    finally:
        setattr(owner, name, original)


def bench_cold_pricing():
    """The paper model priced cold: the simulator benchmark's ``trace_mix``
    catalogue (20 shapes) at every batch width, through a fresh engine and
    cost model, on the closed-form and the simulated rate path.  Seconds
    are best-of-3 without counters.  The counts are deterministic: tile
    searches (``candidate_tiles`` calls) against the same count for one
    cold report of the model, and channel-simulator runs."""
    payloads = [
        InferenceRequest(model=MODEL, config=CONFIG, seq_len=seq_len, gen_tokens=gen)
        for seq_len, gen in CATALOGUE
    ]

    def engine(use_simulator):
        return InferenceEngine(get_config(CONFIG), use_simulator=use_simulator)

    def price(use_simulator):
        cost = BackendCostModel(CambriconBackend(engine=engine(use_simulator)))
        for payload in payloads:
            for batch in range(1, MAX_BATCH + 1):
                cost.ttft(payload, batch)
                cost.decode_step(payload, batch)

    paths = {}
    for path, use_simulator in (("closed_form", False), ("simulated", True)):
        seconds, _ = _timed_best(lambda: price(use_simulator))
        counts = {}
        with _counted(TilingStrategy, "candidate_tiles", counts), _counted(
            ChannelSimulator, "run", counts
        ):
            engine(use_simulator).decode_report(MODEL)
            report_searches = counts["candidate_tiles"]
            counts["candidate_tiles"] = counts["run"] = 0
            price(use_simulator)
        paths[path] = {
            "seconds": seconds,
            "tile_searches": counts["candidate_tiles"],
            "report_tile_searches": report_searches,
            "simulator_runs": counts["run"],
        }
    return {"shapes": len(payloads), "widths": MAX_BATCH, **paths}


def _pricing_failures(pricing):
    """The cold-pricing bars, for a catalogue of one (config, model): no
    more tile searches than one cold report makes, and at most one
    channel-simulator run."""
    failures = []
    for path in ("closed_form", "simulated"):
        row = pricing[path]
        if row["tile_searches"] > row["report_tile_searches"]:
            failures.append(
                f"{path} pricing searched tiles {row['tile_searches']} times, "
                f"over {row['report_tile_searches']} per (config, model)"
            )
    runs = pricing["simulated"]["simulator_runs"]
    if runs > 1:
        failures.append(
            f"simulated pricing ran the channel simulator {runs} times, "
            "over once per (config, model)"
        )
    return failures


SCENARIOS = {
    "serving_continuous_5k_256": bench_serving_continuous,
    "fleet_jsq_4dev_2k_128": bench_fleet_jsq,
    "capacity_search_fail_fast": bench_capacity_search,
    "serving_kv_spill_100k": bench_serving_kv_spill_100k,
    "serving_stream_1M": bench_serving_stream_1m,
    "fleet_100dev_1M": bench_fleet_stream_1m,
    "fault_overhead_5k_64": bench_fault_overhead,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default="BENCH_serving.json", help="where to write the JSON record"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless the acceptance bars hold (tentpole event "
        "reduction, single-digit-seconds 1M scenarios, streaming RSS) "
        "and all outputs match",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="PATH",
        help="committed BENCH_serving.json to compare against; fail on a "
        ">30%% wall-clock regression in any shared scenario",
    )
    parser.add_argument(
        "--rss-probe",
        default=None,
        choices=("streaming", "inmemory"),
        help=argparse.SUPPRESS,  # internal: child side of the RSS probes
    )
    args = parser.parse_args(argv)
    if args.rss_probe is not None:
        return _rss_probe_main(args.rss_probe)

    results = {}
    for name, bench in SCENARIOS.items():
        print(f"[{name}] running ...", flush=True)
        results[name] = bench()
        row = results[name]
        print(
            f"[{name}] {row['uncoalesced_seconds']:.2f}s -> {row['seconds']:.2f}s "
            f"({row['speedup']:.1f}x), identical={row['byte_identical']}"
        )

    print("[obs] running ...", flush=True)
    obs = bench_obs_overhead()
    print(
        f"[obs] bare {obs['seconds']:.2f}s, recorded {obs['recorded_seconds']:.2f}s "
        f"({obs['recorder_overhead']:.2f}x, {obs['events_recorded']} events), "
        f"identical={obs['byte_identical']}"
    )

    print("[obs.timeline] running ...", flush=True)
    timeline = bench_timeline_overhead()
    print(
        f"[obs.timeline] bare {timeline['seconds']:.2f}s, observed "
        f"{timeline['observed_seconds']:.2f}s "
        f"({timeline['timeline_overhead']:.2f}x, {timeline['windows']} windows), "
        f"identical={timeline['byte_identical']}"
    )
    obs["timeline"] = timeline

    print("[pricing] running ...", flush=True)
    pricing = bench_cold_pricing()
    for path in ("closed_form", "simulated"):
        row = pricing[path]
        print(
            f"[pricing.{path}] {pricing['shapes']} shapes x {pricing['widths']} "
            f"widths cold in {row['seconds']:.3f}s, {row['tile_searches']} tile "
            f"searches, {row['simulator_runs']} channel-simulator runs"
        )

    record = {
        "suite": "serving-perf",
        "schema_version": 1,
        "scenarios": results,
        "obs": obs,
        "pricing": pricing,
    }
    with open(args.output, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.check:
        failures = [
            name for name, row in results.items() if not row["byte_identical"]
        ]
        if not obs["byte_identical"]:
            failures.append("obs")
        if not obs["timeline"]["byte_identical"]:
            failures.append("obs.timeline")
        if failures:
            raise SystemExit(f"outputs diverged in: {', '.join(failures)}")
        failures = _pricing_failures(pricing)
        if failures:
            raise SystemExit("; ".join(failures))
        # Coalescing must still collapse an order of magnitude of events
        # (deterministic on every host) and clearly win on wall clock.
        # The wall-clock floor is deliberately lower than the events
        # ratio: optimizations that speed up the step-by-step baseline
        # shrink the ratio without making anything slower.
        tentpole = results["serving_continuous_5k_256"]
        if tentpole["events_ratio"] < 10.0:
            raise SystemExit(
                f"tentpole events ratio {tentpole['events_ratio']:.1f}x is "
                "below the 10x acceptance bar"
            )
        if tentpole["speedup"] < 3.0:
            raise SystemExit(
                f"tentpole speedup {tentpole['speedup']:.1f}x is below the "
                "3x wall-clock floor"
            )
        for name in ("serving_stream_1M", "fleet_100dev_1M"):
            wall = results[name]["seconds"]
            if wall >= 10.0:
                raise SystemExit(
                    f"{name} took {wall:.1f}s; the million-request bar is "
                    "single-digit seconds"
                )
        # The memory model must really spill (the scenario is pointless
        # otherwise) without wrecking the event loop's wall clock.
        kv_spill = results["serving_kv_spill_100k"]
        if kv_spill["spill_events"] == 0:
            raise SystemExit(
                "serving_kv_spill_100k never spilled; the DRAM budget no "
                "longer forces the flash path"
            )
        if kv_spill["seconds"] >= 15.0:
            raise SystemExit(
                f"serving_kv_spill_100k took {kv_spill['seconds']:.1f}s; "
                "the memory-model bar is 15 seconds for 100k requests"
            )
        # A benign spec arms the loop's fault handling with nothing to
        # do: it must stay byte-identical (checked above) and close on
        # wall clock — a widening gap means the fault bookkeeping costs
        # more than it should even when nothing fires.
        fault = results["fault_overhead_5k_64"]
        if fault["fault_overhead"] >= 3.0:
            raise SystemExit(
                f"benign fault-engine overhead {fault['fault_overhead']:.2f}x "
                "is over the 3x bar"
            )
        if fault["requeued"] == 0 and fault["retries"] == 0:
            raise SystemExit(
                "fault_overhead_5k_64 chaos run neither re-queued nor "
                "retried; the scenario no longer exercises the engine"
            )
        stream_rss = results["serving_stream_1M"]["peak_rss_streaming_kb"]
        record_rss = results["serving_stream_1M"]["peak_rss_inmemory_kb"]
        if stream_rss >= record_rss:
            raise SystemExit(
                f"streaming peak RSS {stream_rss} KB is not below the "
                f"record-keeping run's {record_rss} KB"
            )
        print(
            f"check ok: tentpole {tentpole['events_ratio']:.1f}x fewer "
            f"events ({tentpole['speedup']:.1f}x wall clock), 1M scenarios "
            "in single-digit seconds, streaming RSS below record-keeping, "
            "cold pricing searches tiles once per model, all outputs identical"
        )

    if args.compare:
        with open(args.compare) as handle:
            committed = json.load(handle).get("scenarios", {})
        regressions = []
        for name, row in results.items():
            old = committed.get(name, {}).get("seconds")
            if old is None:
                continue
            if row["seconds"] > 1.30 * old:
                regressions.append(
                    f"{name}: {old:.2f}s -> {row['seconds']:.2f}s "
                    f"({row['seconds'] / old:.2f}x)"
                )
        if regressions:
            raise SystemExit(
                "wall-clock regressions over 30% vs "
                f"{args.compare}: {'; '.join(regressions)}"
            )
        print(f"compare ok: no scenario regressed >30% vs {args.compare}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
