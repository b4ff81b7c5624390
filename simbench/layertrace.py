"""Per-layer counts and self time for one traced benchmark run.

The tracer wraps the public entry points of each simulator layer *from
the outside* (class attributes and module functions are swapped for
timing wrappers, and restored on exit), so nothing under ``src/`` changes.
A call stack bills nested time to the inner layer: a layer's self time is
its calls' wall time minus the time spent in wrapped calls beneath them.
The whole timed run is the root ``loop`` span, so ``loop`` keeps exactly
what no other layer claimed and the self times add up to the run's wall
time.  Only entry points some workload reaches are wrapped.  Aggregates
stay in memory; :meth:`LayerTracer.metrics` reads them once the run is
over.

Layers (this repository's modules):

* ``core`` — the paper model, entered through ``CambriconBackend.run``;
  ``candidate_tiles`` is reported as a part of it.
* ``api`` — ``BackendCostModel`` latency lookups and the
  ``ExperimentRunner`` profile cache.
* ``scheduler`` — ``ContinuousBatchScheduler.next_occupancy``.
* ``router`` — the fleet routers.
* ``memory`` — ``KVMemoryModel`` and its DRAM pool.
* ``stream`` — ``TraceStreamer`` (sink writes nest inside it) and
  ``ServingReport.to_csv``.
* ``metrics`` — ``StreamedMetrics.add_sample`` and ``metric_sample``.
* ``timeline`` — ``TimelineCollector`` emissions and finalize, which
  evaluates the alert rules.
* ``loop`` — the event loops, plus anything above not wrapped.
* ``faults`` — counters of the run's ``FaultReport`` (no time of its own:
  the fault engine is part of ``loop``).
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layers with time of their own (``faults`` has counters only).
LAYERS = (
    "core",
    "api",
    "scheduler",
    "loop",
    "router",
    "memory",
    "stream",
    "metrics",
    "timeline",
)

#: (module, attribute path, layer, counter): each wrapped entry point.
#: A counter name counts calls; ``None`` counts nothing.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("repro.api.adapters", "CambriconBackend.run", "core", "core.backend_runs"),
    # The api layer's counts come from the caches' own counters.
    ("repro.serving.simulator", "BackendCostModel.ttft", "api", None),
    ("repro.serving.simulator", "BackendCostModel.decode_step", "api", None),
    ("repro.serving.simulator", "BackendCostModel.profile", "api", None),
    ("repro.api.runner", "ExperimentRunner.run", "api", None),
    (
        "repro.serving.scheduler",
        "ContinuousBatchScheduler.next_occupancy",
        "scheduler",
        "scheduler.plans",
    ),
    ("repro.fleet.router", "JoinShortestQueueRouter.route", "router", "router.routes"),
    ("repro.fleet.router", "JoinShortestQueueRouter.attach", "router", None),
    ("repro.fleet.router", "JoinShortestQueueRouter.on_completed", "router", None),
    ("repro.fleet.router", "MemoryHeadroomRouter.route", "router", "router.routes"),
    ("repro.memory.model", "KVMemoryModel.footprint", "memory", "memory.calls"),
    ("repro.memory.model", "KVMemoryModel.spill", "memory", "memory.calls"),
    ("repro.memory.model", "KVMemoryModel.refill", "memory", "memory.calls"),
    ("repro.memory.model", "KVMemoryModel.discard", "memory", "memory.calls"),
    (
        "repro.memory.model",
        "KVMemoryModel.readthrough_seconds",
        "memory",
        "memory.calls",
    ),
    ("repro.memory.pool", "DramPool.admit", "memory", "memory.calls"),
    ("repro.memory.pool", "DramPool.release", "memory", "memory.calls"),
    ("repro.serving.stream", "TraceStreamer.register", "stream", None),
    ("repro.serving.stream", "TraceStreamer.finish", "stream", None),
    ("repro.serving.stream", "TraceStreamer.close", "stream", None),
    ("repro.serving.metrics", "ServingReport.to_csv", "stream", None),
    ("repro.serving.metrics", "StreamedMetrics.add_sample", "metrics", "metrics.folds"),
    ("repro.fleet.simulator", "metric_sample", "metrics", None),
    ("repro.faults.engine", "metric_sample", "metrics", None),
    ("repro.obs.timeline", "TimelineCollector.span", "timeline", "timeline.emissions"),
    (
        "repro.obs.timeline",
        "TimelineCollector.instant",
        "timeline",
        "timeline.emissions",
    ),
    ("repro.obs.timeline", "TimelineCollector.finalize", "timeline", None),
)

#: A part of a layer timed on its own (inclusive), without a stack frame.
PARTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.tiling", "TilingStrategy.candidate_tiles", "core.candidate_tiles"),
)


def _resolve(module_name: str, path: str):
    """``(owner, attribute name)`` for a dotted path inside a module."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if name not in vars(owner):
        raise AttributeError(f"{module_name}.{path} does not exist")
    return owner, name


class LayerTracer:
    """Install with ``with LayerTracer() as tracer:``; run the workload
    through :meth:`run`; read :meth:`metrics` afterwards."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: Dict[str, int] = {}
        self.part_s: Dict[str, float] = {}
        #: Entry points this version of the simulator does not have.
        self.missing: List[str] = []
        self.decode_plans = 0
        self.decode_steps = 0
        self.idle_plans = 0
        self.max_buffered = 0
        self.wall_s = 0.0
        self._stack: List[List[float]] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for module_name, path, layer, counter in ENTRY_POINTS:
            self._patch(
                module_name, path, lambda f, l=layer, c=counter: self._span(f, l, c)
            )
        for module_name, path, part in PARTS:
            self._patch(module_name, path, lambda f, p=part: self._part(f, p))
        self._patch(
            "repro.serving.scheduler",
            "ContinuousBatchScheduler.next_occupancy",
            self._plan_observer,
        )
        self._patch("repro.serving.stream", "TraceStreamer.close", self._close_observer)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, module_name: str, path: str, make: Callable) -> None:
        try:
            owner, name = _resolve(module_name, path)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{path}")
            return
        original = vars(owner)[name]
        self._restore.append((owner, name, original))
        setattr(owner, name, make(original))

    # -- wrappers --------------------------------------------------------------
    def _span(self, function: Callable, layer: str, counter: Optional[str]) -> Callable:
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter
        if counter is not None:
            counts.setdefault(counter, 0)

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _part(self, function: Callable, part: str) -> Callable:
        counts = self.counts
        part_s = self.part_s
        clock = time.perf_counter
        counts[part + "_calls"] = 0
        part_s[part + "_s"] = 0.0

        def wrapper(*args, **kwargs):
            counts[part + "_calls"] += 1
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                part_s[part + "_s"] += clock() - start

        return wrapper

    def _plan_observer(self, function: Callable) -> Callable:
        from repro.serving.scheduler import DECODE

        def wrapper(*args, **kwargs):
            occupancy = function(*args, **kwargs)
            if occupancy is None:
                self.idle_plans += 1
            elif occupancy.kind == DECODE:
                self.decode_plans += 1
                self.decode_steps += occupancy.steps
            return occupancy

        return wrapper

    def _close_observer(self, function: Callable) -> Callable:
        def wrapper(streamer, *args, **kwargs):
            try:
                return function(streamer, *args, **kwargs)
            finally:
                self.max_buffered = max(self.max_buffered, streamer.max_buffered)

        return wrapper

    # -- the run ---------------------------------------------------------------
    def run(self, function: Callable[[], object]) -> object:
        """Run ``function`` as the root ``loop`` span."""
        root = self._span(function, "loop", None)
        start = time.perf_counter()
        try:
            return root()
        finally:
            self.wall_s = time.perf_counter() - start

    # -- results ---------------------------------------------------------------
    def metrics(
        self, prepared, outcome
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Every per-layer metric of the run, by name, in two dicts: the
        exact ones (counts and ratios of counts, which repeat across runs of
        one seed) and the host times."""
        report = outcome.report
        counts = self.counts
        self_s = self.self_s
        exact: Dict[str, float] = {}
        timed: Dict[str, float] = {}

        exact["core.backend_runs"] = counts.get("core.backend_runs", 0)
        timed["core.backend_s"] = self_s["core"]
        tiles = "core.candidate_tiles"
        exact[f"{tiles}_calls"] = counts.get(f"{tiles}_calls", 0)
        timed[f"{tiles}_s"] = self.part_s.get(f"{tiles}_s", 0.0)

        latency_hits = latency_misses = 0
        seen = set()
        for cost in prepared.cost_models:
            if id(cost) in seen:
                continue
            seen.add(id(cost))
            info = cost.cache_info()
            latency_hits += info["latency_hits"]
            latency_misses += info["latency_misses"]
        profile = prepared.runner.cache_info()
        profile_lookups = profile["hits"] + profile["misses"]
        latency_lookups = latency_hits + latency_misses
        exact["api.profile_misses"] = profile["misses"]
        exact["api.profile_lookups"] = profile_lookups
        exact["api.profile_hit_ratio"] = _ratio(profile["hits"], profile_lookups)
        exact["api.latency_lookups"] = latency_lookups
        exact["api.latency_hit_ratio"] = _ratio(latency_hits, latency_lookups)
        timed["api.lookup_s"] = self_s["api"]

        plans = counts.get("scheduler.plans", 0)
        exact["scheduler.plans"] = plans
        timed["scheduler.plan_s"] = self_s["scheduler"]
        exact["scheduler.decode_plans"] = self.decode_plans
        exact["scheduler.steps_per_decode"] = _ratio(
            self.decode_steps, self.decode_plans
        )
        exact["scheduler.idle_plan_ratio"] = _ratio(self.idle_plans, plans)

        events = report.num_events
        exact["loop.events"] = events
        exact["loop.heap_max_depth"] = report.event_queue["max_depth"]
        timed["loop.self_s"] = self_s["loop"]
        timed["loop.ns_per_event"] = 1e9 * _ratio(self_s["loop"], events)

        exact["router.routes"] = counts.get("router.routes", 0)
        timed["router.s"] = self_s["router"]

        spill_events = spill_bytes = refill_bytes = erases = 0
        for memory in _memory_reports(report):
            spill_events += memory.spill_events
            spill_bytes += memory.spill_bytes
            refill_bytes += memory.refill_bytes
            erases += memory.erases
        exact["memory.calls"] = counts.get("memory.calls", 0)
        timed["memory.s"] = self_s["memory"]
        exact["memory.spill_events"] = spill_events
        exact["memory.spill_bytes"] = spill_bytes
        exact["memory.refill_bytes"] = refill_bytes
        exact["memory.gc_erases"] = erases

        faults = getattr(report, "faults", None)
        for name in ("crashes", "requeued", "retries", "shed", "timed_out"):
            exact[f"faults.{name}"] = getattr(faults, name) if faults is not None else 0

        exact["stream.rows"] = outcome.trace_rows
        exact["stream.bytes"] = outcome.trace_bytes
        timed["stream.s"] = self_s["stream"]
        exact["stream.max_buffered"] = self.max_buffered

        exact["metrics.folds"] = counts.get("metrics.folds", 0)
        timed["metrics.s"] = self_s["metrics"]

        timeline = prepared.timeline
        alerts = getattr(report, "alerts", None)
        exact["timeline.emissions"] = counts.get("timeline.emissions", 0)
        timed["timeline.s"] = self_s["timeline"]
        windows = timeline.to_rows() if timeline is not None else ()
        exact["timeline.windows"] = len(windows)
        exact["alerts.events"] = len(alerts) if alerts is not None else 0

        for layer in LAYERS:
            timed[f"{layer}.share"] = _ratio(self_s[layer], self.wall_s)
        return exact, timed


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _memory_reports(report):
    devices = getattr(report, "device_reports", None)
    reports = devices if devices is not None else [report]
    return [r.memory for r in reports if r.memory is not None]
