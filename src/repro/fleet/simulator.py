"""The event loop: many devices, one deterministic clock.

:func:`simulate_fleet` replays an arrival stream across a list of
devices; :func:`repro.serving.simulate` runs the same loop over a single
device.  The global clock advances over request arrivals (routed to a
device the moment they happen), per-device occupancy completions, and
the planning opportunities both create:

* completions due at the current time are stamped *before* new arrivals
  are delivered, and arrivals are delivered *before* idle devices plan;
* a device samples its queue depth at every planning attempt (and once at
  the end), so a 1-replica fleet reports exactly what ``simulate()``
  reports — records, busy seconds and queue-depth samples;
* routing happens at arrival time against the live device states, and
  every policy is deterministic, so a fixed workload seed fixes the device
  assignment (and the trace CSV) byte for byte.

The loop owns its event heap outright: a plain ``heapq`` list of
``(time, kind, index, seq)`` tuples, whose total order
(:mod:`repro.serving.events`) is what the determinism rests on, plus the
push/pop/depth counters it reports as ``event_queue``.  Arrivals stay
outside the heap and merge against its head.

Fault injection rides the same loop: ``faults``, ``retry`` or
``deadline_s`` arm a :mod:`repro.faults.engine` handler object that adds
two event sources — per-device fault transitions, which it hands to the
loop's heap through its ``rearm`` list, and a retry heap merged into the
arrival stage — plus crash, retry, hedge and outcome handling.  Unarmed
runs never touch it: the hot path below is the plain loop, with one
identity check at each hand-off point.

All devices may share one :class:`repro.api.runner.ExperimentRunner`:
a 16-device, 10k-request simulation still costs a handful of backend
evaluations because every replica of the same backend hits the same
memoized profiles.

Scale: the loop re-plans only the devices an event actually touched,
and — with ``trace_sink``/``keep_records=False`` — streams each
request's trace row out the moment it is stamped (a fleet row through
:func:`repro.fleet.report.fleet_trace_values`, exactly as
:meth:`FleetReport.to_csv` renders it) while folding exact metric
reservoirs per device, so a million-request, hundred-device day runs in
seconds holding O(in-flight) record state.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Sequence

from repro.api.runner import BackendLike, ExperimentRunner
from repro.faults.engine import _FaultRun
from repro.faults.spec import FaultSpec, RetryPolicy
from repro.fleet.device import Device, _QueueDepthStats
from repro.fleet.report import FLEET_TRACE_CSV_FIELDS, FleetReport, fleet_trace_values
from repro.fleet.router import JoinShortestQueueRouter, Router
from repro.fleet.sharding import ShardingSpec
from repro.obs.recorder import record_request_phases
from repro.serving.events import COMPLETION, FAULT
from repro.serving.metrics import (
    TRACE_CSV_FIELDS,
    ServingReport,
    SLOSpec,
    StreamedMetrics,
    metric_sample,
    trace_values,
)
from repro.serving.request import ServingRequest
from repro.serving.scheduler import FCFSScheduler
from repro.serving.simulator import _ArrivalSource
from repro.serving.stream import TraceSink, TraceStreamer


def build_fleet(
    backends: Sequence[BackendLike],
    *,
    scheduler_factory=FCFSScheduler,
    sharding: Optional[ShardingSpec] = None,
    runner: Optional[ExperimentRunner] = None,
    cost_cache: Optional[dict] = None,
) -> List[Device]:
    """One :class:`Device` per backend entry, all sharing ``runner``.

    ``backends`` may repeat a backend (or its registry name) to build N
    replicas, or mix different systems for a heterogeneous fleet.  Each
    device gets a *fresh* scheduler from ``scheduler_factory`` and, when
    ``sharding`` is given, the same sharding transform.  When no runner
    is passed the fleet still shares one, so N replicas of the same
    backend profile each request shape once, not N times.

    Replicas of the same (backend, sharding) also share one
    :class:`repro.serving.simulator.BackendCostModel`, so interned
    per-shape latencies are resolved once per fleet rather than once per
    device.  Pass a mutable ``cost_cache`` dict to extend that sharing
    across *many* fleets (the sizing search reuses one across every
    replica-count probe).
    """
    if not backends:
        raise ValueError("a fleet needs at least one backend")
    runner = runner if runner is not None else ExperimentRunner()
    shared = cost_cache if cost_cache is not None else {}
    devices = []
    for backend in backends:
        key = (backend if isinstance(backend, str) else id(backend), sharding)
        device = Device(
            backend,
            scheduler_factory(),
            sharding=sharding,
            runner=runner,
            cost=shared.get(key),
        )
        shared.setdefault(key, device.cost)
        devices.append(device)
    return devices


def simulate_fleet(
    requests: Iterable[ServingRequest],
    devices: Sequence[Device],
    router: Optional[Router] = None,
    *,
    slo: Optional[SLOSpec] = None,
    max_steps: Optional[int] = None,
    fail_fast: bool = False,
    trace_sink: Optional[TraceSink] = None,
    keep_records: bool = True,
    recorder=None,
    profiler=None,
    faults=None,
    retry=None,
    deadline_s: Optional[float] = None,
) -> FleetReport:
    """Run the arrival stream across the fleet and merge the timelines.

    ``max_steps`` caps each device's fast-forward coalescing exactly as in
    :func:`repro.serving.simulator.simulate` (None = coalesce freely,
    1 = step-by-step; both yield byte-identical trace CSVs).  With
    ``fail_fast`` (requires ``slo``) the loop aborts once attainment can
    no longer reach the threshold, which makes failing sizing probes cheap.

    ``trace_sink``/``keep_records`` stream the fleet trace exactly as in
    :func:`repro.serving.simulator.simulate`: rows (including the routed
    device column) are written in arrival order the moment each request is
    fully stamped, byte-identical to :meth:`FleetReport.to_csv`, and with
    ``keep_records=False`` the run holds O(in-flight) record state while
    the report answers every aggregate from exact streamed reservoirs
    (fleet-wide and per-device).  Lazy (non-list) streams combined with
    ``keep_records=False`` are consumed incrementally and cannot be used
    with ``fail_fast``.

    Observability mirrors :func:`repro.serving.simulator.simulate`:
    ``recorder`` receives per-replica occupancy spans (tracks
    ``device0..N``), per-request phase spans (track ``requests``, tagged
    with the routed device), router decision instants with per-candidate
    scores (track ``router``), and per-replica memory instants (tracks
    ``memory0..N``); ``profiler`` times the loop's dispatch/planning/fold
    phases on the wall clock.  Neither changes a single simulated float.

    Resilience: ``faults`` (a :class:`repro.faults.FaultSpec`), ``retry``
    (a :class:`repro.faults.RetryPolicy`) and ``deadline_s`` (per-request
    deadline, seconds) arm the loop's fault handling and put a
    :class:`repro.faults.FaultReport` on the report.  Crashed replicas
    abort and re-route their work at the crash instant; pair with
    ``get_router("failover")`` (or any router built with
    ``exclude_unhealthy=True``) to steer new arrivals around them until
    recovery.  With all three at their None defaults none of it runs.
    """
    _check_options(slo, max_steps, fail_fast, faults, retry, deadline_s)
    router = router if router is not None else JoinShortestQueueRouter()
    if getattr(router, "used", False):
        raise ValueError(
            "router already drove a simulation; use a fresh one "
            "(routers may carry state across route() calls)"
        )
    devices = list(devices)
    if not devices:
        raise ValueError("cannot simulate an empty fleet")
    for device in devices:
        if device.records or not device.idle:
            raise ValueError("devices already carry state; build a fresh fleet")
    source = _ArrivalSource(requests, keep_records, fail_fast)
    return _run(
        source,
        devices,
        router,
        fleet_shape=True,
        slo=slo,
        max_steps=max_steps,
        fail_fast=fail_fast,
        trace_sink=trace_sink,
        keep_records=keep_records,
        recorder=recorder,
        profiler=profiler,
        faults=faults,
        retry=retry,
        deadline_s=deadline_s,
    )


def _check_options(slo, max_steps, fail_fast, faults, retry, deadline_s) -> None:
    """Validate the run options :func:`simulate_fleet` and
    :func:`repro.serving.simulate` share."""
    if faults is not None and not isinstance(faults, FaultSpec):
        raise TypeError(f"faults must be a FaultSpec, got {type(faults).__name__}")
    if retry is not None and not isinstance(retry, RetryPolicy):
        raise TypeError(f"retry must be a RetryPolicy, got {type(retry).__name__}")
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError(f"deadline_s must be positive, got {deadline_s}")
    if max_steps is not None and max_steps < 1:
        raise ValueError("max_steps must be at least 1 when given")
    if fail_fast and slo is None:
        raise ValueError("fail_fast needs an SLOSpec to judge misses against")


def _run(
    source: _ArrivalSource,
    devices: List[Device],
    router: Router,
    *,
    fleet_shape: bool,
    slo: Optional[SLOSpec],
    max_steps: Optional[int],
    fail_fast: bool,
    trace_sink: Optional[TraceSink],
    keep_records: bool,
    recorder,
    profiler,
    faults,
    retry,
    deadline_s: Optional[float],
) -> FleetReport:
    """The event loop over validated inputs.

    ``fleet_shape`` False is the single-device report shape of
    :func:`repro.serving.simulate`: a trace CSV without the device
    column, one set of streamed reservoirs, the scheduler's own recorder
    track, and no routing instants or device tags on the recorder.
    """
    # Every input validated: only now does the router get claimed, so a
    # rejected call never poisons a router that routed nothing.
    router.used = True
    router.attach(devices)
    # Normalize the observability hooks once: with a disabled recorder
    # (None or NullRecorder) ``rec`` stays None and the hot loop pays only
    # identity checks.  Attached recorders on a fleet get per-replica
    # track names, so the Perfetto export renders one lane per
    # device/memory model.
    rec = recorder if recorder is not None and recorder.enabled else None
    device_tracks: List[str] = []
    if rec is not None:
        if fleet_shape:
            router.recorder = rec
        for index, device in enumerate(devices):
            scheduler = device.scheduler
            if fleet_shape:
                scheduler.track = f"device{index}"
            device_tracks.append(scheduler.track)
            scheduler.recorder = rec
            memory_model = device.memory
            if memory_model is not None:
                memory_model.recorder = rec
                if fleet_shape:
                    memory_model.track = f"memory{index}"
    # The profiler supplies its own clock — this module imports no time
    # source, matching the serving package's no-wall-clock rule.
    prof_add = profiler.add if profiler is not None else None
    prof_clock = profiler.clock if profiler is not None else None
    if not keep_records:
        for device in devices:
            device.queue_stats = _QueueDepthStats()

    # Arrivals are delivered in stream order, so appending each routed
    # index builds a list parallel to the trace rows.
    assignments: List[int] = []
    fleet_metrics: Optional[StreamedMetrics] = None
    device_metrics: Optional[List[StreamedMetrics]] = None
    streamer: Optional[TraceStreamer] = None
    # Routed-but-unfinished records (with their device index), tracked
    # only when an early exit could leave some behind; metrics-only runs
    # (no sink) skip the reorder buffer and feed the reservoirs directly
    # at completion time, attributing each sample by the completing
    # device's index.
    live: Optional[dict] = None
    if not keep_records:
        slo_met = 0 if slo is not None else None
        device_metrics = [StreamedMetrics(slo_met=slo_met) for _ in devices]
        # A single-device report carries its device's reservoirs.
        fleet_metrics = (
            StreamedMetrics(slo_met=slo_met) if fleet_shape else device_metrics[0]
        )
    if trace_sink is not None:
        if fleet_shape:
            header = FLEET_TRACE_CSV_FIELDS

            def row_of(record, index):
                return fleet_trace_values(record, slo, assignments, index)

        else:
            header = TRACE_CSV_FIELDS

            def row_of(record, index):
                return trace_values(record, slo)

        observers = []
        if fleet_metrics is not None:

            def observe(record, index):
                sample = metric_sample(record, slo)
                fleet_metrics.add_sample(sample)
                if fleet_shape and index < len(assignments):
                    device_metrics[assignments[index]].add_sample(sample)

            observers.append(observe)
        streamer = TraceStreamer(trace_sink, header, row_of, observers)
    elif fleet_metrics is not None and fail_fast:
        live = {}
    #: Bound per-device fold methods for the metrics-only fast path (no
    #: sink, no reorder buffer): one fold per record, merged at close.
    device_fold = (
        [metrics.fold for metrics in device_metrics]
        if streamer is None and device_metrics is not None
        else None
    )

    # The event heap (see repro.serving.events) and its debug counters:
    # ``seq`` doubles as the push count.
    heap: list = []
    seq = pops = heap_max_depth = 0
    # Devices whose state changed this event and therefore need a planning
    # attempt; everyone plans at t=0.
    touched = set(range(len(devices)))
    # Fault handling, armed only when asked for.  The devices' first fault
    # transitions join the heap before the first pass.
    fault_run: Optional[_FaultRun] = None
    if faults is not None or retry is not None or deadline_s is not None:
        fault_run = _FaultRun(
            devices,
            router,
            faults=faults,
            retry=retry,
            deadline_s=deadline_s,
            slo=slo,
            fail_fast=fail_fast,
            keep_records=keep_records,
            rec=rec,
            tag_device=fleet_shape,
            streamer=streamer,
            device_fold=device_fold,
            live=live,
            assignments=assignments,
            touched=touched,
        )
        for when, index in fault_run.rearm:
            seq += 1
            heapq.heappush(heap, (when, FAULT, index, seq))
        fault_run.rearm.clear()
        heap_max_depth = len(heap)

    now = 0.0
    num_events = 0
    missed = 0
    early_exit = False
    total = source.total
    #: Whether this pass moved a request (fault-aware runs: the wedge guard).
    progressed = False
    num_devices = len(devices)
    # Hot-loop locals: the body below runs a couple of million times on a
    # 1M-request day, so every repeated attribute lookup is hoisted once,
    # and the source's next arrival time is read straight off its
    # ``head_time`` attribute — shaving a method call from a path taken
    # once or more per event.
    source_pop = source.pop
    route = router.route
    on_completed = router.on_completed
    heap_push = heapq.heappush
    heap_pop = heapq.heappop
    #: Whether the router reads per-device work estimates, and the
    #: per-device scheduler enqueue hooks, hoisted for the arrival path.
    track_work = router.needs_work_estimates
    enqueues = [device.scheduler.enqueue for device in devices]
    try:
        while True:
            num_events += 1
            # 1. Stamp completions due now, then apply simultaneous fault
            # transitions: the heap yields completions before faults, each
            # in device-index order (see repro.serving.events).
            if heap and heap[0][0] <= now:
                if prof_add is not None:
                    t0 = prof_clock()
                while heap and heap[0][0] <= now:
                    event = heap_pop(heap)
                    pops += 1
                    index = event[2]
                    device = devices[index]
                    if fault_run is not None:
                        if event[1] == FAULT:
                            if fault_run.fault(index, now):
                                progressed = True
                            continue
                        if device._occupancy is None or device.busy_until != event[0]:
                            continue  # a crash aborted this occupancy
                        progressed = True
                    completed = device._occupancy.completed
                    device.busy_until = None
                    device._occupancy = None
                    if fault_run is not None:
                        for record in completed:
                            fault_run.member_done(index, device, record, now)
                    elif completed:
                        # Most completions are prefills with nothing to
                        # stamp, so the empty-list guard skips the loop.
                        device.outstanding -= len(completed)
                        for record in completed:
                            record.finish_s = now
                            if rec is not None:
                                record_request_phases(
                                    rec,
                                    "requests",
                                    record,
                                    {"device": index} if fleet_shape else None,
                                )
                            if track_work:
                                device.outstanding_work_s -= device.job_seconds(
                                    record
                                )
                            if fail_fast and not slo.met_by(record):
                                missed += 1
                            if streamer is not None:
                                streamer.finish(record)
                            elif device_fold is not None:
                                # Fold once, into the completing device's
                                # reservoirs; the fleet-wide view is merged
                                # from these at close time.
                                device_fold[index](record, slo)
                                if live is not None:
                                    del live[id(record)]
                    on_completed(index, device)
                    touched.add(index)
                if fault_run is not None:
                    # Each applied fault queued its device's next one; they
                    # join the heap only now, so a transition due at this
                    # same instant waits for the next pass.
                    for when, index in fault_run.rearm:
                        seq += 1
                        heap_push(heap, (when, FAULT, index, seq))
                        if len(heap) > heap_max_depth:
                            heap_max_depth = len(heap)
                    fault_run.rearm.clear()
                if prof_add is not None:
                    prof_add("fold", prof_clock() - t0)
                # Attainment can no longer reach the threshold even if
                # everything still in flight meets the SLO: the probe is
                # decided, stop here.
                if fail_fast:
                    if fault_run is not None:
                        missed = fault_run.missed
                    if missed and (total - missed) / total < slo.min_attainment:
                        early_exit = True
                        break
            # 2. Deliver and route arrivals due now, then due retries.
            if prof_add is not None:
                t0 = prof_clock()
            while True:
                due = source.head_time
                if due is None or due > now:
                    break
                record = source_pop()
                index = route(record, devices, now)
                if not 0 <= index < num_devices:
                    raise ValueError(
                        f"router {router.name!r} routed to device {index} "
                        f"of a {num_devices}-device fleet"
                    )
                assignments.append(index)
                device = devices[index]
                if device.backend_name is None:
                    # Resolve the display name (and fail fast on an OOM
                    # payload) on the device's first request.
                    device.backend_name = device.cost.profile(
                        record.source.request
                    ).backend_name
                if keep_records:
                    device.records.append(record)
                device.outstanding += 1
                if track_work:
                    device.outstanding_work_s += device.job_seconds(record)
                enqueues[index](record, now)
                if streamer is not None:
                    streamer.register(record)
                elif live is not None:
                    live[id(record)] = (record, index)
                touched.add(index)
                if fault_run is not None:
                    fault_run.arrived(record, index, now)
                    progressed = True
            if fault_run is not None and fault_run.deliver(now):
                progressed = True
            if prof_add is not None:
                prof_add("dispatch", prof_clock() - t0)
            # 3. Touched idle devices plan (sampling their queue depth as
            # they do), in device-index order.  Untouched devices need no
            # attempt: their schedulers saw no arrival and no completion,
            # so planning could only repeat the previous answer — skipping
            # it drops only redundant same-depth queue samples, which
            # leaves every derived queue statistic unchanged.  The horizon
            # handed to each scheduler is the next undelivered arrival; a
            # device with nothing pending and no arrivals left skips the
            # attempt.  Fault-aware runs cap the horizon further, at the
            # next retry delivery, the next fault anywhere and the
            # shortest retry backoff (see repro.faults.engine).
            horizon = source.head_time
            if fault_run is not None:
                horizon = fault_run.horizon(horizon, now)
            if touched:
                if prof_add is not None:
                    t0 = prof_clock()
                # A single touched device (the common case: one arrival or
                # one completion) needs no sort.
                order = touched if len(touched) == 1 else sorted(touched)
                for index in order:
                    device = devices[index]
                    if device.busy_until is None and device.up:
                        scheduler = device.scheduler
                        if horizon is not None or scheduler.pending:
                            occupancy = scheduler.next_occupancy(
                                now, device.cost, horizon=horizon, max_steps=max_steps
                            )
                            if fault_run is not None:
                                # Queue drops (shed, cancelled) since the
                                # router last looked: resync its index.
                                gate = device.gate
                                if gate.removed:
                                    gate.removed = 0
                                    on_completed(index, device)
                            stats = device.queue_stats
                            if stats is not None:
                                stats.add(now, scheduler.waiting)
                            else:
                                device.queue_depth.append((now, scheduler.waiting))
                            if occupancy is not None:
                                seconds = occupancy.seconds
                                if seconds < 0:
                                    raise ValueError(
                                        "occupancy duration must be non-negative"
                                    )
                                end = occupancy.end_s
                                if end is None:
                                    end = now + seconds
                                device.busy_until = end
                                device.busy_s += seconds
                                device._occupancy = occupancy
                                seq += 1
                                heap_push(heap, (end, COMPLETION, index, seq))
                                if len(heap) > heap_max_depth:
                                    heap_max_depth = len(heap)
                                progressed = True
                                if rec is not None:
                                    rec.span(
                                        device_tracks[index],
                                        occupancy.kind,
                                        now,
                                        end,
                                        {
                                            "steps": occupancy.steps,
                                            "completed": len(
                                                occupancy.completed
                                            ),
                                        },
                                    )
                touched.clear()
                if prof_add is not None:
                    prof_add("planning", prof_clock() - t0)
            # 4. Advance to the next event, or stop.
            if fault_run is None:
                if heap:
                    next_completion = heap[0][0]
                    if horizon is None or next_completion <= horizon:
                        now = next_completion
                    else:
                        now = horizon
                else:
                    if horizon is None:
                        stuck = sum(device.scheduler.pending for device in devices)
                        if stuck:
                            raise RuntimeError(
                                f"schedulers report {stuck} pending requests "
                                "but planned no work"
                            )
                        break
                    now = horizon
            else:
                # Shedding while planning can resolve requests too.
                if fail_fast:
                    missed = fault_run.missed
                    if missed and (total - missed) / total < slo.min_attainment:
                        early_exit = True
                        break
                # Fault schedules can be infinite, so a fault-aware run
                # ends when every delivered request resolved and the
                # stream is dry — not when the heap does.
                head = source.head_time
                if fault_run.open_requests == 0 and head is None:
                    break
                next_time = heap[0][0] if heap else None
                if head is not None and (next_time is None or head < next_time):
                    next_time = head
                now = fault_run.next_time(next_time, progressed)
                progressed = False

        for device in devices:
            device.finalize(now)
            if device.backend_name is None:
                # A replica that received no traffic still resolves its
                # display name against the stream's first payload
                # (memoized, and the same fail-fast OOM check).
                device.backend_name = device.cost.profile(
                    source.first_request
                ).backend_name
        if fault_run is not None:
            fault_run.close(now)
        if streamer is not None:
            streamer.close(tail=source.tail())
        elif fleet_metrics is not None:
            # No sink, so no reorder buffer ran: count whatever an early
            # exit left unfinished (still attributed to its routed device),
            # then build the fleet-wide reservoirs by merging the
            # per-device ones — the same value multiset the streamer's
            # observer accumulates incrementally — plus the undelivered
            # tail, which has no device (exactly as the observer counts it).
            if live:
                for record, index in live.values():
                    device_fold[index](record, slo)
            if fleet_shape:
                for part in device_metrics:
                    fleet_metrics.merge_from(part)
            for record in source.tail():
                fleet_metrics.fold(record, slo)
    finally:
        if streamer is not None:
            streamer.release()

    # A time-resolved recorder closes its windows on the makespan and may
    # return an AlertLog for the report; nothing it does can touch the
    # trace or the clock.
    alerts = rec.finalize_run(now) if rec is not None else None

    device_reports = []
    for index, device in enumerate(devices):
        streamed = None
        if device_metrics is not None:
            streamed = device_metrics[index]
            streamed.queue_depth_area = device.queue_stats.area
            streamed.max_queue_depth = device.queue_stats.max_depth
        memory = device.memory
        device_reports.append(
            ServingReport(
                backend_name=device.backend_name,
                scheduler_name=device.scheduler.name,
                records=device.records,
                makespan_s=now,
                busy_s=device.busy_s,
                queue_depth=device.queue_depth,
                slo=slo,
                streamed=streamed,
                memory=memory.report() if memory is not None else None,
            )
        )
    return FleetReport(
        router_name=router.name,
        device_reports=device_reports,
        records=source.records if keep_records else [],
        assignments=assignments,
        makespan_s=now,
        slo=slo,
        num_events=num_events,
        early_exit=early_exit,
        streamed=fleet_metrics,
        event_queue={"pushes": seq, "pops": pops, "max_depth": heap_max_depth},
        alerts=alerts,
        faults=fault_run.report if fault_run is not None else None,
    )
