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
  reports — records, busy seconds and queue-depth statistics;
* routing happens at arrival time against the live device states, and
  every policy is deterministic, so a fixed workload seed fixes the device
  assignment (and the trace CSV) byte for byte;
* an occupancy books its busy seconds, emits its recorder span and
  folds into the timelines once, when it ends: at its completion, at a
  crash (the crash instant) or at the loop's close (the makespan), so a
  device is never busy past the makespan and its spans add up to its
  busy time.

The loop owns its event heap outright: a plain ``heapq`` list of
``(time, kind, index, seq)`` tuples, whose total order
(:mod:`repro.serving.events`) is what the determinism rests on, plus the
push/pop/depth counters it reports as ``event_queue``.  Deliveries stay
outside the heap: one arrival source
(:class:`repro.serving.simulator._ArrivalSource`) holds the request
stream and the re-entries pushed onto it, hands out a stream arrival
first at an equal time, and its head merges against the heap's.  Every
delivery — a stream arrival, a client retry, a hedge, or a request a
crash re-queues — reaches a device through the loop's one ``dispatch``.
The way out is one too: a request drops its hold on a device (the
router's ``outstanding`` signals) only in ``leave`` — at a completion,
a shed or a cancellation in the queue, or a crash eviction — and a
served request is stamped, spanned and resolved only in ``finish``.
Kept records are filed once, at the close, each under the device its
trace row names.  Every run ends by one rule: no delivered request is
unresolved and the stream is dry.  A device's completion is *live*
while its ``seq`` is the device's ``live_seq``; a decode run cut short
(``Scheduler.cut``) or an occupancy a crash aborted leaves a superseded
completion behind, which is skipped when popped and dropped from the
head of the heap before the clock advances, so it never costs a loop
pass.

Fault injection rides the same loop: ``faults``, ``retry`` or
``deadline_s`` arm a :mod:`repro.faults.engine` handler object that
makes the fault decisions — per-device fault transitions, which it hands
to the loop's heap through its ``rearm`` list, client retries and hedge
timers, which it pushes onto the arrival source, crash eviction, hedge
pairing and outcomes, and its exits go through ``leave`` and
``finish``.  Unarmed runs never touch it: the hot path below is the
plain loop, with one identity check at each hand-off point.

All devices may share one :class:`repro.api.runner.ExperimentRunner`:
a 16-device, 10k-request simulation still costs a handful of backend
evaluations because every replica of the same backend hits the same
memoized profiles.

One aggregate path: every record folds once, when it resolves
(completion, shed, timeout, failure or hedge win), into the
:class:`repro.serving.metrics.StreamedMetrics` reservoirs of the device
it resolved on, and the fleet-wide view is merged from the devices' at
the end.  Every report reads those reservoirs alone, whatever
``keep_records`` and ``trace_sink`` say.  A
:class:`repro.obs.TimelineCollector` folds at the same two points: the
record and its sample in ``resolve``, and each occupancy with its DRAM
level in ``end_occupancy``.  The loop splits ``recorder=`` once
(:func:`repro.obs.timeline.split_observers`), so only span recorders
reach the schedulers and routers, and a run a timeline alone observes
builds no span and no decision instant.

Scale: the loop re-plans only the devices an event actually touched, a
decode run is split only by a request routed to its own device, and —
with ``trace_sink``/``keep_records=False`` — renders each request's
trace row once, when it resolves, from the sample its fold read (as
:meth:`FleetReport.to_csv` renders it), writes the rows in batches and
drops the record, so a million-request, hundred-device day runs in
seconds holding O(in-flight) record state.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Iterable, List, Optional, Sequence

from repro.api.runner import BackendLike, ExperimentRunner
from repro.faults.engine import _FaultRun
from repro.faults.spec import FaultSpec, RetryPolicy
from repro.fleet.device import Device
from repro.fleet.report import FleetReport
from repro.fleet.router import JoinShortestQueueRouter, Router
from repro.fleet.sharding import ShardingSpec
from repro.obs.recorder import record_request_phases
from repro.obs.timeline import split_observers
from repro.serving.events import COMPLETION, FAULT
from repro.serving.metrics import ServingReport, SLOSpec, StreamedMetrics, metric_sample
from repro.serving.request import ServingRequest
from repro.serving.scheduler import FCFSScheduler
from repro.serving.simulator import _ArrivalSource
from repro.serving.stream import TraceSink, TraceStreamer

#: Consecutive loop passes in which no request moved before the loop
#: declares itself wedged (see step 4 of :func:`_run`).
_MAX_IDLE_PASSES = 10_000


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
    :class:`repro.serving.simulator.BackendCostModel`, so memoized
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
    device column) are rendered as each request resolves and written in
    arrival order, in batches, byte-identical to
    :meth:`FleetReport.to_csv`.  Every run folds each record into the
    reservoirs of the device it resolves on, and the fleet-wide and
    per-device aggregates read those alone; ``keep_records`` only decides
    whether the records (and ``to_csv``) survive the run, so with
    ``keep_records=False`` it holds O(in-flight) record state and reports
    the same aggregates.  A device report keeps the records its trace
    rows name, in arrival order.  Lazy (non-list) streams combined with
    ``keep_records=False`` are consumed incrementally and cannot be used
    with ``fail_fast``.

    Observability mirrors :func:`repro.serving.simulator.simulate`:
    ``recorder`` receives per-replica occupancy spans (tracks
    ``device0..N``), per-request phase spans (track ``requests``, tagged
    with the routed device), router decision instants with per-candidate
    scores (track ``router``), and per-replica memory instants (tracks
    ``memory0..N``); a timeline in it is fed the loop's folds instead.
    It never changes a single simulated float.

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
    # Every run resolves each device's backend name by its close.
    for device in devices:
        if device.backend_name is not None or not device.idle:
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
        recorder=recorder,
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
    if deadline_s is not None and not 0 < deadline_s < inf:
        raise ValueError(f"deadline_s must be positive and finite, got {deadline_s}")
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
    recorder,
    faults,
    retry,
    deadline_s: Optional[float],
) -> FleetReport:
    """The event loop over validated inputs.

    ``fleet_shape`` False is the single-device report shape of
    :func:`repro.serving.simulate`: a trace CSV without the device
    column, the device's reservoirs as the whole run's, the scheduler's
    own recorder track, and no routing instants or device tags on the
    recorder.
    """
    # Every input validated: only now does the router get claimed, so a
    # rejected call never poisons a router that routed nothing.
    router.used = True
    router.attach(devices)
    # Normalize the observability hooks once: with a disabled recorder
    # (None or NullRecorder) ``rec`` stays None and the hot loop pays only
    # identity checks.  An enabled one splits into the span recorders
    # (``spans``: every span, and the scheduler, router and loop
    # instants) and the timelines (the folds in ``resolve`` and
    # ``end_occupancy``); the memory models and the fault engine emit to
    # the whole of it.  Attached recorders on a fleet get per-replica
    # track names, so the Perfetto export renders one lane per
    # device/memory model.
    rec = recorder if recorder is not None and recorder.enabled else None
    spans, timelines = split_observers(rec)
    device_tracks: List[str] = []
    if rec is not None:
        if fleet_shape:
            router.recorder = spans
        for index, device in enumerate(devices):
            scheduler = device.scheduler
            if fleet_shape:
                scheduler.track = f"device{index}"
            device_tracks.append(scheduler.track)
            scheduler.recorder = spans
            memory_model = device.memory
            if memory_model is not None:
                memory_model.recorder = rec
                if fleet_shape:
                    memory_model.track = f"memory{index}"

    def end_occupancy(index: int, device: Device, end: float) -> list:
        """The one point an occupancy ends: its completion, a crash abort
        (at the crash instant) or the loop's close (at the makespan).  Book
        its busy seconds (the planned ones if it ran to its end), record
        the scheduler's ``coalesce`` and ``dram`` instants and its span,
        fold it into the timelines with its DRAM level, and return the
        records it completes."""
        occupancy = device._occupancy
        start = occupancy.start_s
        if end == device.busy_until:
            device.busy_s += occupancy.seconds
        else:
            device.busy_s += end - start
        device.busy_until = None
        device._occupancy = None
        if spans is not None:
            track = device_tracks[index]
            note = occupancy.note
            if note is not None:
                # A decode run: its instants were held until it ended.
                spans.instant(track, "coalesce", start, note)
                if occupancy.dram is not None:
                    spans.instant(
                        device.memory.track,
                        "dram",
                        start,
                        {"used_bytes": occupancy.dram},
                    )
            spans.span(
                track,
                occupancy.kind,
                start,
                end,
                {"steps": occupancy.steps, "completed": len(occupancy.completed)},
            )
        if timelines:
            for timeline in timelines:
                timeline.span(index, start, end, occupancy.dram)
        return occupancy.completed

    # Stream arrivals are delivered in stream order, so appending each
    # routed index builds a list parallel to the trace rows.
    assignments: List[int] = []
    # Every record folds once, into the reservoirs of the device it
    # resolves on; the fleet-wide view is merged from these at close.
    slo_met = 0 if slo is not None else None
    device_metrics = [StreamedMetrics(slo_met=slo_met) for _ in devices]
    folds = [metrics.add_sample for metrics in device_metrics]
    streamer: Optional[TraceStreamer] = None
    if trace_sink is not None:
        streamer = TraceStreamer(trace_sink, assignments if fleet_shape else None)
    # The one table of delivered requests not yet resolved: id(record) ->
    # (record, trace-row position).  The end rule reads it, a retry, a
    # crash re-queue or a hedge win re-points the row's device cell
    # through it, and an early exit folds what it still holds.
    live: dict = {}
    #: Resolved requests that missed the SLO (the ``fail_fast`` tally).
    missed = 0

    def resolve(record, index: int, sample) -> None:
        """Fold a record that just resolved on device ``index`` (``sample``
        is its :func:`metric_sample`) into the device's reservoirs and the
        timelines, tally a ``fail_fast`` miss, and render its trace row
        from the same sample.  A record's stamps and its ``assignments``
        cell are final once it resolves: nothing stamps it again (a losing
        attempt runs to an ignored end), and a hedge win re-points the
        cell before it resolves the primary."""
        nonlocal missed
        folds[index](sample)
        if fail_fast and not sample[5]:
            missed += 1
        if streamer is not None:
            streamer.finish(record, sample)
        if timelines:
            for timeline in timelines:
                timeline.resolved(record, sample)
        del live[id(record)]

    # Devices whose state changed this event and therefore need a planning
    # attempt; everyone plans at t=0.
    touched = set(range(len(devices)))
    num_devices = len(devices)
    route = router.route
    #: Whether the router reads per-device work estimates, and the
    #: per-device scheduler enqueue hooks, hoisted for dispatch.
    track_work = router.needs_work_estimates
    enqueues = [device.scheduler.enqueue for device in devices]

    def dispatch(record, now: float) -> int:
        """Route one delivery (a stream arrival, a retry, a hedge or a crash
        re-queue) at ``now`` and queue it on its device; return the device
        index.  Every request reaches a device through here."""
        index = route(record, devices, now)
        if not 0 <= index < num_devices:
            raise ValueError(
                f"router {router.name!r} routed to device {index} "
                f"of a {num_devices}-device fleet"
            )
        device = devices[index]
        if device.backend_name is None:
            # Resolve the display name (and fail fast on an OOM payload)
            # on the device's first request.
            device.backend_name = device.cost.profile(
                record.source.request
            ).backend_name
        device.outstanding += 1
        if track_work:
            device.outstanding_work_s += device.job_seconds(record)
        enqueues[index](record, now)
        touched.add(index)
        return index

    def leave(device: Device, record) -> None:
        """Drop ``record``'s hold on ``device``: the one way out of a device,
        for a completion, a shed or cancelled queue member and a crash
        eviction alike (``dispatch`` is the one way in)."""
        device.outstanding -= 1
        if track_work:
            device.outstanding_work_s -= device.job_seconds(record)

    def finish(record, index: int, now: float) -> None:
        """Stamp a served request's ``finish_s`` on device ``index``, emit
        its request-phase spans and resolve it."""
        record.finish_s = now
        if spans is not None:
            record_request_phases(
                spans, "requests", record, {"device": index} if fleet_shape else None
            )
        resolve(record, index, metric_sample(record, slo))

    # The event heap (see repro.serving.events) and its debug counters:
    # ``seq`` doubles as the push count.
    heap: list = []
    seq = pops = heap_max_depth = 0
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
            rec=rec,
            resolve=resolve,
            leave=leave,
            finish=finish,
            end_occupancy=end_occupancy,
            dispatch=dispatch,
            push=source.push,
            assignments=assignments,
            live=live,
            touched=touched,
        )
        for when, index in fault_run.rearm:
            seq += 1
            heapq.heappush(heap, (when, FAULT, index, seq))
        fault_run.rearm.clear()
        heap_max_depth = len(heap)

    now = 0.0
    num_events = 0
    early_exit = False
    total = source.total
    #: Whether this pass moved a request, and how many passes in a row
    #: moved none (the wedge guard).
    progressed = False
    idle_passes = 0
    # Hot-loop locals: the body below runs a couple of million times on a
    # 1M-request day, so every repeated attribute lookup is hoisted once,
    # and the source's next delivery time is read straight off its
    # ``head_time`` attribute — shaving a method call from a path taken
    # once or more per event.
    source_pop = source.pop
    on_completed = router.on_completed
    heap_push = heapq.heappush
    heap_pop = heapq.heappop
    try:
        while True:
            num_events += 1
            # 1. Stamp completions due now, then apply simultaneous fault
            # transitions: the heap yields completions before faults, each
            # in device-index order (see repro.serving.events).
            if heap and heap[0][0] <= now:
                while heap and heap[0][0] <= now:
                    event = heap_pop(heap)
                    pops += 1
                    index = event[2]
                    device = devices[index]
                    if fault_run is not None and event[1] == FAULT:
                        if fault_run.fault(index, now):
                            progressed = True
                        continue
                    if event[3] != device.live_seq:
                        continue  # superseded by a cut or a crash abort
                    progressed = True
                    # Each member leaves the device; a fault run judges
                    # whether it was served before the loop finishes it.
                    for record in end_occupancy(index, device, now):
                        leave(device, record)
                        if fault_run is None or fault_run.served(index, record, now):
                            finish(record, index, now)
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
                # Attainment can no longer reach the threshold even if
                # everything still in flight meets the SLO: the probe is
                # decided, stop here.
                if fail_fast:
                    if missed and (total - missed) / total < slo.min_attainment:
                        early_exit = True
                        break
            # 2. Deliver what the source holds due now: stream arrivals
            # first, then retries and hedge timers in push order.
            while True:
                due = source.head_time
                if due is None or due > now:
                    break
                action, record = source_pop()
                if action is None:
                    index = dispatch(record, now)
                    live[id(record)] = (record, len(assignments))
                    assignments.append(index)
                    if streamer is not None:
                        streamer.register(record)
                    if fault_run is not None:
                        fault_run.arrived(record, index, now)
                    progressed = True
                elif fault_run.reenter(action, record, now):
                    progressed = True
            # 3. Touched idle devices with pending work plan (sampling
            # their queue depth as they do), in device-index order.  The
            # devices skipped could only repeat their previous answer:
            # an untouched scheduler saw no arrival and no completion, and
            # one with nothing pending is idle with an empty queue, which
            # its last sample already says (a crash samples the queue it
            # empties).  Skipping them drops only redundant same-depth
            # samples, which leaves every derived queue statistic
            # unchanged.  A touched busy device's queue changed, and its
            # scheduler may cut the in-flight decode run short to admit a
            # request (Scheduler.cut): the device is then busy until the
            # new end, and its completion is pushed afresh, superseding the
            # old one.  Busy time is booked once an occupancy ends.
            if touched:
                # A single touched device (the common case: one arrival or
                # one completion) needs no sort.
                order = touched if len(touched) == 1 else sorted(touched)
                for index in order:
                    device = devices[index]
                    if device.busy_until is not None:
                        occupancy = device.scheduler.cut(now)
                        if occupancy is not None:
                            end = occupancy.end_s
                            device.busy_until = end
                            seq += 1
                            device.live_seq = seq
                            heap_push(heap, (end, COMPLETION, index, seq))
                            if len(heap) > heap_max_depth:
                                heap_max_depth = len(heap)
                    elif device.up:
                        scheduler = device.scheduler
                        if scheduler.pending:
                            occupancy = scheduler.next_occupancy(
                                now, device.cost, max_steps=max_steps
                            )
                            if fault_run is not None:
                                # Queue drops (shed, cancelled) since the
                                # router last looked: resync its index.
                                gate = device.gate
                                if gate.removed:
                                    gate.removed = 0
                                    on_completed(index, device)
                            device.queue_stats.add(now, scheduler.waiting)
                            if occupancy is not None:
                                seconds = occupancy.seconds
                                if seconds < 0:
                                    raise ValueError(
                                        "occupancy duration must be non-negative"
                                    )
                                end = occupancy.end_s
                                if end is None:
                                    end = now + seconds
                                occupancy.start_s = now
                                device.busy_until = end
                                device._occupancy = occupancy
                                seq += 1
                                device.live_seq = seq
                                heap_push(heap, (end, COMPLETION, index, seq))
                                if len(heap) > heap_max_depth:
                                    heap_max_depth = len(heap)
                                progressed = True
                touched.clear()
            # 4. Advance to the next event, or stop.  Superseded
            # completions at the head of the heap are dropped first, so
            # they never cost a pass.
            while heap:
                event = heap[0]
                if event[3] == devices[event[2]].live_seq or event[1] != COMPLETION:
                    break
                heap_pop(heap)
                pops += 1
            # Shedding while planning can resolve requests too.
            if fail_fast:
                if missed and (total - missed) / total < slo.min_attainment:
                    early_exit = True
                    break
            # The one end rule: every delivered request resolved and the
            # stream is dry.  A re-entry still queued then is a hedge timer
            # whose primary resolved, and fault schedules can be infinite,
            # so neither keeps the run going.
            if not live and source.stream_time is None:
                break
            next_time = heap[0][0] if heap else None
            head = source.head_time
            if head is not None and (next_time is None or head < next_time):
                next_time = head
            if next_time is None:
                raise RuntimeError(
                    f"{len(live)} delivered requests are unresolved but no "
                    "event is scheduled to make progress"
                )
            # Random fault schedules are infinite, so a run whose requests
            # can no longer move would spin through fault transitions
            # forever.  A plain run moves a request on every pass.
            if progressed:
                progressed = False
                idle_passes = 0
            else:
                idle_passes += 1
                if idle_passes > _MAX_IDLE_PASSES:
                    raise RuntimeError(
                        "fault events keep advancing the clock but no request "
                        f"progressed in {_MAX_IDLE_PASSES} consecutive events"
                    )
            now = next_time

        for index, device in enumerate(devices):
            device.finalize(now)
            if device._occupancy is not None:
                # Still in flight when the loop stops (an early exit, or a
                # fault-aware run whose requests all resolved): it ends at
                # the makespan.
                end_occupancy(index, device, now)
            if device.backend_name is None:
                # A replica that received no traffic still resolves its
                # display name against the stream's first payload
                # (memoized, and the same fail-fast OOM check).
                device.backend_name = device.cost.profile(
                    source.first_request
                ).backend_name
        if fault_run is not None:
            fault_run.close(now)
        # What an early exit left unresolved folds into the device its
        # trace row names; what it never delivered has no device, and
        # folds into the fleet-wide view only.  A single-device report
        # carries its device's reservoirs.
        for record, position in live.values():
            sample = metric_sample(record, slo)
            folds[assignments[position]](sample)
            if streamer is not None:
                streamer.finish(record, sample)
        fleet_metrics = device_metrics[0]
        if fleet_shape:
            fleet_metrics = StreamedMetrics(slo_met=slo_met)
            for part in device_metrics:
                fleet_metrics.merge_from(part)
        tail = [(record, metric_sample(record, slo)) for record in source.tail()]
        for _, sample in tail:
            fleet_metrics.add_sample(sample)
        if streamer is not None:
            streamer.close(tail)
    finally:
        if streamer is not None:
            streamer.release()

    # A time-resolved recorder closes its windows on the makespan and may
    # return an AlertLog for the report; nothing it does can touch the
    # trace or the clock.
    alerts = rec.finalize_run(now) if rec is not None else None

    # Kept records are filed once, each under the device its trace row names.
    records = source.records if source.records is not None else []
    filed: List[list] = [[] for _ in devices]
    for record, index in zip(records, assignments):
        filed[index].append(record)
    device_reports = []
    for device, streamed, kept in zip(devices, device_metrics, filed):
        streamed.queue_depth_area = device.queue_stats.area
        streamed.max_queue_depth = device.queue_stats.max_depth
        memory = device.memory
        device_reports.append(
            ServingReport(
                backend_name=device.backend_name,
                scheduler_name=device.scheduler.name,
                records=kept,
                makespan_s=now,
                busy_s=device.busy_s,
                slo=slo,
                streamed=streamed,
                memory=memory.report() if memory is not None else None,
            )
        )
    return FleetReport(
        router_name=router.name,
        device_reports=device_reports,
        records=records,
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
