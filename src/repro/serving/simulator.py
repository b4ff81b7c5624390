"""Single-device serving and the backend cost oracle.

:func:`simulate` replays an arrival stream on one device: it runs the
fleet event loop (:mod:`repro.fleet.simulator`) over a one-device fleet
and reports it as a single device.  The loop advances a virtual clock
over request arrivals and device-occupancy completions, with the
scheduler deciding what the device does next.  Time comes exclusively
from the workload's arrival stamps and the backend's analytical
latencies; nothing here reads the wall clock, so a run is a pure
function of ``(requests, scheduler, backend)`` and is exactly
reproducible.  ``trace_sink``/``keep_records=False`` stream each
request's trace row out as soon as it is fully stamped and drop the
record, so a million-request run holds O(in-flight batch) record state;
the exact metric reservoirs every report reads accumulate either way.

The :class:`BackendCostModel` turns any registered
:class:`repro.api.backend.Backend` into the device model: it profiles
each distinct request shape once through a memoizing
:class:`repro.api.runner.ExperimentRunner` and serves every simulated
occupancy from that cache, so a 10 000-request simulation typically costs
only a handful of backend evaluations (one per distinct shape x batch
width), each cheap because the backend itself pays once per context
(a Cambricon backend prices a model's weights once, and a context's
report, prefill and energy once, for every width).  On top of the
profile cache it memoizes every scalar latency by value, per (request,
batch width, field), so equal payloads share one entry however many
payload objects a workload builds.  The continuous scheduler reads it
once per (payload object, batch width), for single and mixed batches
alike, and serves the rest of a run from its own identity memos.

Fast-forward coalescing (the invariant)
---------------------------------------

A scheduler may answer a planning call with a single occupancy covering
``k`` decode steps instead of ``k`` one-step occupancies: the steps up to
the next in-batch completion.  This is an equivalence, not an
approximation, because nothing observable can happen strictly inside the
coalesced interval: the batch composition is frozen until the next
in-batch completion, and a request that queues on the device while a
batch slot is free *cuts* the interval (``Scheduler.cut``) at the first
step boundary at or after its arrival — the boundary where the
step-by-step loop would admit it.  A request routed to another device
leaves the interval alone.  Under the KV memory model the interval
books its KV growth only once it is over, and a router reads each
device's DRAM as of the current instant, as the step-by-step loop has
booked it (``Scheduler.free_dram_bytes(now)``).  Coalescing
schedulers accumulate the interval's end one step-duration at a time
(never as one ``k * step`` product), and a cut re-walks it the same way
from the interval's start, so the clock visits exactly the same floats
as the step-by-step loop and the per-request trace CSV is
byte-identical between ``max_steps=None`` (coalesced, the default) and
``max_steps=1`` (uncoalesced) runs.  Queue depth is sampled at planning
attempts: every per-request stamp (and hence every CSV cell and SLO
metric) is exact, while the (time, depth) sample stream is simply
resolved at occupancy granularity — arrivals that queue behind a busy
device are first sampled when the interval ends, which is also the first
moment the uncoalesced loop could have *acted* on them.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.api.backend import get_backend
from repro.api.request import InferenceRequest
from repro.api.result import RunResult
from repro.api.runner import BackendLike, ExperimentRunner
from repro.serving.metrics import ServingReport, SLOSpec
from repro.serving.request import RequestRecord, ServingRequest
from repro.serving.scheduler import FCFSScheduler, Scheduler
from repro.serving.stream import TraceSink

#: Cache-miss sentinel distinguishing "absent" from a legitimate 0.0 latency.
_MISSING = object()


class BackendCostModel:
    """Per-phase latency oracle over one backend, memoized across queries.

    A backend given by name becomes one instance at construction, so
    every profile goes to the same object: a backend that memoizes work
    across batch widths (the Cambricon decode reports) keeps that memo
    for this model's lifetime, and it is discarded with it.
    """

    def __init__(
        self, backend: BackendLike, runner: Optional[ExperimentRunner] = None
    ):
        self._backend = get_backend(backend) if isinstance(backend, str) else backend
        self._runner = runner if runner is not None else ExperimentRunner()
        #: (request, batch width, field) -> seconds; see :meth:`_latency`.
        self._latency_cache: dict = {}
        self._hits = 0
        self._misses = 0

    @property
    def backend_name(self) -> str:
        return self._backend.name

    def _latency(
        self, request: InferenceRequest, batch_size: Optional[int], field: str
    ) -> float:
        """One scalar latency, memoized locally so the event loop's inner
        per-step queries skip the request rebuild and the runner's lookup."""
        batch = batch_size if batch_size is not None else request.batch_size
        key = (request, batch, field)
        value = self._latency_cache.get(key, _MISSING)
        if value is _MISSING:
            self._misses += 1
            value = getattr(self.profile(request, batch_size), field)
            self._latency_cache[key] = value
        else:
            self._hits += 1
        return value

    def profile(
        self, request: InferenceRequest, batch_size: Optional[int] = None
    ) -> RunResult:
        """The backend's :class:`RunResult` for ``request`` (cached).

        ``batch_size`` overrides the request's own batch width — that is
        how schedulers price batched prefills and decode steps.  A request
        the backend cannot hold is a configuration error for a serving
        study, so OOM raises instead of silently skewing the metrics.
        """
        if batch_size is not None and batch_size != request.batch_size:
            request = request.with_overrides(batch_size=batch_size)
        result = self._runner.run(self._backend, request)
        if result.out_of_memory:
            raise ValueError(
                f"{request.model_name} does not fit on {result.backend_name}; "
                f"a serving workload must use requests the backend can hold "
                f"({result.error})"
            )
        return result

    def ttft(self, request: InferenceRequest, batch_size: Optional[int] = None) -> float:
        """Prefill occupancy: seconds until the first token is available."""
        return self._latency(request, batch_size, "time_to_first_token_s")

    def decode_step(
        self, request: InferenceRequest, batch_size: Optional[int] = None
    ) -> float:
        """One decode step at the given batch width (the step clock)."""
        return self._latency(request, batch_size, "decode_step_seconds")

    def total_seconds(self, request: InferenceRequest) -> float:
        """The whole job run alone: prefill plus every decode step."""
        return self._latency(request, None, "total_seconds")

    def cache_info(self) -> Dict[str, int]:
        """Latency-lookup and backend-profile cache counters.

        ``latency_*`` counts this model's scalar lookups (a miss is a
        lookup that had to consult :meth:`profile`); ``profile_*`` is the
        shared :class:`ExperimentRunner`'s view, which spans every cost
        model attached to that runner.
        """
        profile = self._runner.cache_info()
        return {
            "latency_hits": self._hits,
            "latency_misses": self._misses,
            "latency_size": len(self._latency_cache),
            "profile_hits": profile["hits"],
            "profile_misses": profile["misses"],
            "profile_size": profile["size"],
        }


#: What ``simulate`` accepts as the device model: a registered backend
#: name, a backend object, or an already-built (possibly shared) cost model.
CostLike = Union[BackendLike, BackendCostModel]


def _is_sorted(requests: Sequence[ServingRequest]) -> bool:
    """Whether the stream is already in (arrival time, request id) order."""
    for index in range(len(requests) - 1):
        if requests[index + 1] < requests[index]:
            return False
    return True


def _ordered_requests(requests: Iterable[ServingRequest]) -> List[ServingRequest]:
    """The stream as a sorted list, skipping the sort for pre-sorted lists.

    Workload generators and trace replays already emit sorted lists, so
    the common case is a single O(n) monotonicity scan; anything else
    (unsorted lists, generators) keeps the defensive sort.
    """
    if isinstance(requests, list) and _is_sorted(requests):
        return requests
    return sorted(requests)


class _ArrivalSource:
    """The one source of a run's deliveries: its request stream, of any
    stream type, plus the re-entries pushed onto it.

    Each stream request becomes its :class:`RequestRecord` in one place,
    :meth:`_record`, when it is delivered (or, after an early exit, when
    :meth:`tail` hands it out undelivered).  ``keep_records=True`` also
    keeps every record so built in :attr:`records`, in stream order, for
    the report; otherwise a record stays transient.  Lists and tuples are
    sorted (or scanned, when already in order) and know their
    :attr:`total`; any other iterable is consumed lazily with a
    one-request lookahead — it must arrive pre-sorted, and its total is
    unknown, which is why ``fail_fast`` (whose attainment arithmetic
    needs the total) rejects it.

    A re-entry is a record coming back at a later time with an action
    (the fault engine's client retries and hedge timers): :meth:`push`
    queues it, and :meth:`pop` hands out the next delivery, a stream
    arrival first at an equal time and re-entries in push order.
    ``head_time`` — the next delivery's time, or None — and
    ``stream_time`` — the next stream arrival's, or None once the stream
    is dry — are plain attributes kept current by :meth:`push` and
    :meth:`pop`, so the event loop reads them without a method call (they
    are consulted several times per event).  ``first_request`` is
    captured at construction and stays readable after a lazy stream has
    drained.
    """

    __slots__ = (
        "records",
        "total",
        "first_request",
        "head_time",
        "stream_time",
        "_items",
        "_head",
        "_reentries",
        "_pushes",
    )

    def __init__(
        self, requests: Iterable[ServingRequest], keep_records: bool, fail_fast: bool
    ):
        self.records: Optional[List[RequestRecord]] = [] if keep_records else None
        self.total: Optional[int] = None
        if keep_records or isinstance(requests, (list, tuple)):
            requests = _ordered_requests(requests)
            self.total = len(requests)
        self._items: Iterator[ServingRequest] = iter(requests)
        self._head: Optional[ServingRequest] = next(self._items, None)
        if self._head is None:
            raise ValueError("cannot simulate an empty request stream")
        if fail_fast and self.total is None:
            raise ValueError(
                "fail_fast needs the total request count; pass a list instead of "
                "a lazy stream (or keep_records=True to materialize it)"
            )
        self.stream_time: Optional[float] = self._head.arrival_s
        self.head_time: Optional[float] = self.stream_time
        self.first_request: InferenceRequest = self._head.request
        #: Re-entries as (time, push count, action, record).
        self._reentries: list = []
        self._pushes = 0

    def _record(self, request: ServingRequest) -> RequestRecord:
        """Build the record of one stream request, keeping it if asked."""
        record = RequestRecord(request)
        if self.records is not None:
            self.records.append(record)
        return record

    def push(self, time_s: float, action: int, record: RequestRecord) -> None:
        """Queue ``record`` to come back at ``time_s`` with ``action``."""
        self._pushes += 1
        heapq.heappush(self._reentries, (time_s, self._pushes, action, record))
        if self.head_time is None or time_s < self.head_time:
            self.head_time = time_s

    def pop(self) -> Tuple[Optional[int], RequestRecord]:
        """The next delivery as ``(action, record)``: a re-entry's action,
        or None for a stream arrival."""
        reentries = self._reentries
        stream_time = self.stream_time
        if reentries and (stream_time is None or reentries[0][0] < stream_time):
            _, _, action, record = heapq.heappop(reentries)
        else:
            action = None
            head = self._head
            self._head = nxt = next(self._items, None)
            if nxt is None:
                stream_time = None
            else:
                stream_time = nxt.arrival_s
                # Explicit (arrival, id) comparison: the dataclass `<`
                # builds two tuples per call, and this runs once per
                # request.  Sorted lists pass trivially; a lazy stream is
                # checked here.
                if stream_time < head.arrival_s or (
                    stream_time == head.arrival_s
                    and nxt.request_id < head.request_id
                ):
                    raise ValueError(
                        "a lazily-streamed request iterable must arrive "
                        f"pre-sorted (saw {stream_time:g}s after "
                        f"{head.arrival_s:g}s); "
                        "pass a list to let the simulator sort it"
                    )
            self.stream_time = stream_time
            record = self._record(head)
        if reentries and (stream_time is None or reentries[0][0] < stream_time):
            self.head_time = reentries[0][0]
        else:
            self.head_time = stream_time
        return action, record

    def tail(self) -> Iterator[RequestRecord]:
        """Stream records never delivered to a device (early exit)."""
        head = self._head
        undelivered = self._items if head is None else chain((head,), self._items)
        return map(self._record, undelivered)


def simulate(
    requests: Iterable[ServingRequest],
    backend: CostLike,
    scheduler: Optional[Scheduler] = None,
    *,
    slo: Optional[SLOSpec] = None,
    runner: Optional[ExperimentRunner] = None,
    max_steps: Optional[int] = None,
    fail_fast: bool = False,
    trace_sink: Optional[TraceSink] = None,
    keep_records: bool = True,
    recorder=None,
    faults=None,
    retry=None,
    deadline_s: Optional[float] = None,
) -> ServingReport:
    """Run the arrival stream to completion and return the report.

    Semantics:

    * arrivals are delivered to the scheduler the moment the simulated
      clock reaches them; the device is non-preemptive, so an arrival
      during an occupancy waits for the occupancy to end before it can
      be planned;
    * when the scheduler has nothing to run, the clock jumps straight to
      the next arrival (idle time costs nothing to simulate);
    * the queue depth is sampled at every planning attempt, giving the
      exact step function of waiting requests over time.

    The run is the fleet event loop (:mod:`repro.fleet.simulator`) over
    a single :class:`repro.fleet.device.Device` behind a round-robin
    router, reported as one device: a plain trace CSV without a device
    column, the scheduler's own recorder track, no routing instants.

    ``scheduler`` defaults to a fresh :class:`FCFSScheduler`.  ``backend``
    may be a pre-built :class:`BackendCostModel` to share latency caches
    across runs; otherwise pass a shared ``runner`` to reuse backend
    profiles (the capacity search does both across its whole bisection).

    ``max_steps`` caps fast-forward coalescing per occupancy (None, the
    default, lets schedulers coalesce freely; 1 forces the step-by-step
    loop — see the module docstring for why both produce byte-identical
    traces).  With ``fail_fast`` (requires ``slo``) the loop aborts as
    soon as enough requests have definitively missed the SLO that
    attainment can no longer reach ``slo.min_attainment``; the returned
    report then carries partially-stamped records, still fails
    :meth:`ServingReport.meets_slo`, and sets ``early_exit``.

    Streaming output: ``trace_sink`` (a path or a file-like object)
    receives the trace CSV byte-identical to :meth:`ServingReport.to_csv`,
    rows in arrival order: each row is rendered once, when its request
    resolves, and written in batches.  Every run folds each record, once, into exact
    :class:`repro.serving.metrics.StreamedMetrics` reservoirs when it
    resolves, and every aggregate metric (percentiles, attainment,
    goodput, queue depth) reads them alone.  ``keep_records`` only
    decides whether the records (and ``to_csv``) survive the run:
    ``keep_records=False`` drops each record once it resolved and
    streamed, so a million-request run holds O(in-flight batch) record
    state, and the report carries empty ``records`` and the same
    aggregates.  With ``keep_records=False`` a non-list ``requests``
    iterable is consumed lazily (it must already be sorted), so even the
    arrival stream never materializes; lazy streams cannot be combined
    with ``fail_fast`` (its attainment arithmetic needs the total request
    count up front).

    Observability: ``recorder`` (a :class:`repro.obs.Recorder`) receives
    sim-time spans and instants — one span per device occupancy, one
    QUEUE/PREFILL/DECODE span set per finished request, plus the
    scheduler's and memory model's decision instants.  A
    :class:`repro.obs.TimelineCollector`, alone or in a ``TeeRecorder``,
    is fed the loop's folds instead: each request as it resolves and each
    occupancy as it ends, plus the memory and fault instants.  Every
    emission is a read-only observation, so attaching a recorder never
    changes the trace, the report, or the makespan; a disabled recorder
    (None or ``NullRecorder``) costs nothing per event.

    Resilience: ``faults`` (a :class:`repro.faults.FaultSpec`), ``retry``
    (a :class:`repro.faults.RetryPolicy`) and ``deadline_s`` (per-request
    deadline, seconds) arm the loop's fault handling and put a
    :class:`repro.faults.FaultReport` on the report.  A crash re-queues
    the device's work on the same device, where it waits out the
    recovery.  With all three at their None defaults none of it runs.
    """
    # The loop lives in repro.fleet, which imports this module.
    from repro.fleet.device import Device
    from repro.fleet.router import RoundRobinRouter
    from repro.fleet.simulator import _check_options, _run

    _check_options(slo, max_steps, fail_fast, faults, retry, deadline_s)
    scheduler = scheduler if scheduler is not None else FCFSScheduler()
    if isinstance(backend, BackendCostModel):
        cost = backend
    else:
        cost = BackendCostModel(backend, runner=runner)
    # The device rejects a scheduler that already has pending requests.
    device = Device(backend, scheduler, cost=cost)
    source = _ArrivalSource(requests, keep_records, fail_fast)
    # Resolve the display name (and fail fast on an OOM payload) up front.
    device.backend_name = cost.profile(source.first_request).backend_name
    fleet = _run(
        source,
        [device],
        RoundRobinRouter(),
        fleet_shape=False,
        slo=slo,
        max_steps=max_steps,
        fail_fast=fail_fast,
        trace_sink=trace_sink,
        recorder=recorder,
        faults=faults,
        retry=retry,
        deadline_s=deadline_s,
    )
    return replace(
        fleet.device_reports[0],
        records=fleet.records,
        num_events=fleet.num_events,
        early_exit=fleet.early_exit,
        event_queue=fleet.event_queue,
        alerts=fleet.alerts,
        faults=fleet.faults,
    )
