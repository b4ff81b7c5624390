"""SLO specifications and the serving report.

The :class:`ServingReport` is to the serving simulator what
:class:`repro.api.result.RunResult` is to a single job: the one container
every consumer (CLI, capacity search, tests, notebooks) reads.  It holds
the device timeline and the folded :class:`StreamedMetrics` reservoirs,
and derives latency percentiles (TTFT, time-per-output-token,
end-to-end), queue depth, utilization, throughput and — against an
:class:`SLOSpec` — attainment and goodput from them alone.

Every aggregate has one path: the event loop folds each record once, the
moment it resolves, through :func:`metric_sample` (the one derivation of
a record's floats, which the trace rows and :meth:`SLOSpec.met_by` read
too), and a report built from a record list folds that list on
construction.  :func:`trace_line` renders every trace row, kept or
streamed, reusing the cell text its trace already rendered
(:class:`TraceCells`).  A report is exactly as deterministic as the
simulation that produced it: the same seed yields the same reservoirs
and a byte-identical :meth:`ServingReport.to_csv`.
"""

from __future__ import annotations

import csv
import io
from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import TYPE_CHECKING, Dict, List, MutableSequence, Optional, Sequence, Tuple

from repro.serving.request import RequestRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.faults.report import FaultReport
    from repro.memory import MemoryReport
    from repro.obs.alerts import AlertLog

#: Percentiles reported for every latency metric.
REPORT_PERCENTILES = (50.0, 95.0, 99.0)

#: Per-request trace columns written by :meth:`ServingReport.to_csv`.
TRACE_CSV_FIELDS = [
    "request_id",
    "arrival_s",
    "model",
    "config",
    "seq_len",
    "gen_tokens",
    "batch_size",
    "prefill_start_s",
    "first_token_s",
    "finish_s",
    "queue_wait_s",
    "ttft_s",
    "tpot_s",
    "e2e_s",
    "slo_met",
]

#: Fleet trace columns: the serving trace plus the routed device.
FLEET_TRACE_CSV_FIELDS = ["request_id", "device"] + TRACE_CSV_FIELDS[1:]


#: One record's ``(queue_wait, ttft, tpot, e2e, tokens, met)``: :func:`metric_sample`.
MetricSample = Tuple[
    Optional[float], Optional[float], Optional[float], Optional[float], int, Optional[bool]
]


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Deterministic and dependency-free (no numpy); returns None on empty
    input so report tables can render a "-" instead of a misleading 0.
    """
    if not values:
        return None
    return percentile_of_sorted(sorted(values), q)


def percentile_of_sorted(ordered: Sequence[float], q: float) -> Optional[float]:
    """:func:`percentile` over an already-sorted sequence (no re-sort).

    :class:`ServingReport` sorts each metric's values once and answers
    every p50/p95/p99 query from the same sorted list through this helper.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be between 0 and 100")
    if not ordered:
        return None
    if len(ordered) == 1:
        return ordered[0]
    position = (q / 100.0) * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


@dataclass
class StreamedMetrics:
    """Exact metric reservoirs: what every report's aggregates read.

    Every run folds each record into its device's reservoirs once, the
    moment the record resolves, whatever ``keep_records`` says; the
    fleet-wide view is merged from the devices' at the end.  The
    reservoirs hold the stamped float values themselves — nothing is
    approximated or binned — in fold order, not arrival order.
    """

    #: Attached SLO-met counter; None when the run carried no SLOSpec.
    slo_met: Optional[int] = None
    num_requests: int = 0
    num_completed: int = 0
    total_output_tokens: int = 0
    #: The reservoirs are compact C-double arrays: one million samples
    #: cost 8 MB instead of ~32 MB of boxed floats, and ``array('d')``
    #: stores the exact IEEE doubles :func:`metric_sample` computes.
    ttfts: MutableSequence[float] = field(default_factory=lambda: array("d"))
    tpots: MutableSequence[float] = field(default_factory=lambda: array("d"))
    e2es: MutableSequence[float] = field(default_factory=lambda: array("d"))
    queue_waits: MutableSequence[float] = field(default_factory=lambda: array("d"))
    #: Time-weighted integral of the device's waiting-queue depth (for
    #: the mean) and its maximum, as the scheduler's ``finalize`` returns
    #: them when the run ends (zero on a fleet-wide view).
    queue_depth_area: float = 0.0
    max_queue_depth: int = 0

    def add_sample(self, sample: MetricSample) -> None:
        """Fold one record's :func:`metric_sample` into the reservoirs.

        A partially-stamped record (from an ``early_exit`` run) adds only
        the values it has, and counts as completed only once finished.
        """
        queue_wait, ttft, tpot, e2e, tokens, met = sample
        self.num_requests += 1
        if queue_wait is not None:
            self.queue_waits.append(queue_wait)
        if ttft is not None:
            self.ttfts.append(ttft)
            if tpot is not None:
                self.tpots.append(tpot)
        if e2e is not None:
            self.e2es.append(e2e)
            self.num_completed += 1
            self.total_output_tokens += tokens
        if met is not None:
            if self.slo_met is None:
                self.slo_met = 0
            if met:
                self.slo_met += 1

    def merge_from(self, other: "StreamedMetrics") -> None:
        """Fold another reservoir set into this one (counts add, values
        concatenate).

        The event loop folds each record once into its device's
        reservoirs and builds the fleet-wide view by merging at the end.
        Queue-depth aggregates are not merged: each is one scheduler's
        queue, and a timeline holds the fleet-wide depth over time.
        """
        self.num_requests += other.num_requests
        self.num_completed += other.num_completed
        self.total_output_tokens += other.total_output_tokens
        self.ttfts.extend(other.ttfts)
        self.tpots.extend(other.tpots)
        self.e2es.extend(other.e2es)
        self.queue_waits.extend(other.queue_waits)
        if other.slo_met is not None:
            self.slo_met = (self.slo_met or 0) + other.slo_met


def metric_sample(record: RequestRecord, slo: Optional[SLOSpec]) -> MetricSample:
    """One record's ``(queue_wait, ttft, tpot, e2e, tokens, met)`` values.

    The one derivation of a record's floats: the event loop computes it
    once, when the record resolves, for both its fold and its streamed
    trace row (:func:`trace_line`), and :meth:`SLOSpec.met_by` reads its
    verdict, so a value can never differ between them.  ``None`` marks a
    stamp the record never received (``tpot`` needs both the first token
    and the finish; ``tokens`` is 0 until finished); ``met`` is ``None``
    when no SLO is given.
    """
    source = record.source
    arrival = source.arrival_s
    prefill = record.prefill_start_s
    first = record.first_token_s
    finish = record.finish_s
    queue_wait = None if prefill is None else prefill - arrival
    ttft = None if first is None else first - arrival
    tpot = None
    e2e = None
    tokens = 0
    if finish is not None:
        e2e = finish - arrival
        request = source.request
        tokens = request.total_generated_tokens
        if first is not None:
            tpot = (finish - first) / request.gen_tokens
    if slo is None:
        met: Optional[bool] = None
    elif record.outcome is not None or first is None or finish is None:
        # A terminal fault outcome (shed / timed_out / failed) is an SLO
        # miss even when the record carries full latency stamps — a
        # timed-out request did finish, but past its deadline.
        met = False
    else:
        met = not (
            (slo.ttft_s is not None and ttft > slo.ttft_s)
            or (slo.tpot_s is not None and tpot > slo.tpot_s)
            or (slo.e2e_s is not None and e2e > slo.e2e_s)
        )
    return queue_wait, ttft, tpot, e2e, tokens, met


@dataclass(frozen=True)
class SLOSpec:
    """Per-request latency objectives plus the required attainment.

    A request *meets* the SLO when every non-None threshold holds for it;
    a run meets the SLO when at least ``min_attainment`` of its requests
    do.  Goodput counts only the meeting requests.
    """

    ttft_s: Optional[float] = None
    tpot_s: Optional[float] = None
    e2e_s: Optional[float] = None
    min_attainment: float = 0.95

    def __post_init__(self) -> None:
        if self.ttft_s is None and self.tpot_s is None and self.e2e_s is None:
            raise ValueError("an SLO needs at least one latency threshold")
        for name in ("ttft_s", "tpot_s", "e2e_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when given")
        if not 0.0 < self.min_attainment <= 1.0:
            raise ValueError("min_attainment must be in (0, 1]")

    def met_by(self, record: RequestRecord) -> bool:
        """Whether one completed request satisfies every threshold.

        A request that never produced its first token or never finished
        cannot have met a latency objective, whatever the thresholds —
        and neither can one a fault-injected run marked with a terminal
        ``outcome`` (shed, timed out, or permanently failed), however
        fast its surviving stamps look.
        """
        return metric_sample(record, self)[5]


@dataclass
class ServingReport:
    """Everything one simulation run produced."""

    backend_name: str
    scheduler_name: str
    #: The per-request records of a ``keep_records=True`` run (empty
    #: otherwise).  No aggregate reads them: only :meth:`to_csv` and
    #: judging the run against another :class:`SLOSpec` do.
    records: List[RequestRecord]
    #: Simulated time when the last occupancy ended.
    makespan_s: float
    #: Total device-busy seconds (sum of occupancy durations).
    busy_s: float
    slo: Optional[SLOSpec] = None
    #: Event-loop iterations the simulation processed (None when the
    #: report was built outside the event loop); with fast-forward
    #: coalescing this is far below the number of decode steps simulated.
    num_events: Optional[int] = None
    #: True when a ``fail_fast`` run aborted early because SLO attainment
    #: could no longer reach the threshold (records are partially stamped).
    early_exit: bool = False
    #: The folded reservoirs every aggregate below reads: the event
    #: loop's, or — for a report built from a record list alone — the
    #: list folded on construction.
    streamed: Optional[StreamedMetrics] = None
    #: Snapshot of the flash-backed KV memory counters
    #: (:class:`repro.memory.MemoryReport`); None when the scheduler ran
    #: without a memory model.
    memory: Optional["MemoryReport"] = None
    #: Event-heap debug counters (``{"pushes", "pops", "max_depth"}``,
    #: counted by the event loop); None when the report was built outside
    #: the event loop.  Deterministic — a pure function of the event
    #: sequence — and absorbed by the :mod:`repro.obs.metrics` registry.
    event_queue: Optional[Dict[str, int]] = None
    #: :class:`repro.obs.alerts.AlertLog` from an attached
    #: :class:`~repro.obs.timeline.TimelineCollector` with alert rules;
    #: None when the run carried no alerting observer.  Pure metadata —
    #: never consulted by any metric on this report.
    alerts: Optional["AlertLog"] = None
    #: Resilience counters (:class:`repro.faults.FaultReport`) from a
    #: fault-injected run; None on plain runs.
    faults: Optional["FaultReport"] = None

    def __post_init__(self) -> None:
        if self.streamed is None:
            self.streamed = StreamedMetrics(slo_met=None if self.slo is None else 0)
            for record in self.records:
                self.streamed.add_sample(metric_sample(record, self.slo))
        #: metric name -> sorted values, so repeated percentile queries
        #: sort each metric once.
        self._sorted_metrics: Dict[str, List[float]] = {}

    # -- basic counts --------------------------------------------------------
    @property
    def num_requests(self) -> int:
        return self.streamed.num_requests

    @property
    def completed_records(self) -> List[RequestRecord]:
        """Kept records that ran to their last token (all, normally)."""
        return [record for record in self.records if record.completed]

    @property
    def num_completed(self) -> int:
        return self.streamed.num_completed

    @property
    def total_output_tokens(self) -> int:
        return self.streamed.total_output_tokens

    # -- latency metrics -----------------------------------------------------
    # Each list holds a value for every record that has the stamps the
    # metric needs, in fold order (not arrival order), so a run where
    # nothing (or not everything) completed still reports: the
    # percentiles simply cover fewer requests, or are None when empty.
    @property
    def ttfts(self) -> List[float]:
        return list(self.streamed.ttfts)

    @property
    def tpots(self) -> List[float]:
        return list(self.streamed.tpots)

    @property
    def e2es(self) -> List[float]:
        return list(self.streamed.e2es)

    @property
    def queue_waits(self) -> List[float]:
        return list(self.streamed.queue_waits)

    def _sorted_metric(self, metric: str) -> List[float]:
        """One metric's values, sorted once and cached across queries."""
        values = self._sorted_metrics.get(metric)
        if values is None:
            streamed = self.streamed
            values = sorted(
                {
                    "ttft": streamed.ttfts,
                    "tpot": streamed.tpots,
                    "e2e": streamed.e2es,
                    "queue_wait": streamed.queue_waits,
                }[metric]
            )
            self._sorted_metrics[metric] = values
        return values

    def percentiles(self, metric: str = "ttft") -> Dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` for one latency metric.

        ``metric`` is ``"ttft"``, ``"tpot"``, ``"e2e"`` or ``"queue_wait"``.
        The metric's values are sorted once on the first query and reused
        for every percentile thereafter.
        """
        values = self._sorted_metric(metric)
        return {f"p{q:g}": percentile_of_sorted(values, q) for q in REPORT_PERCENTILES}

    # -- rates and occupancy -------------------------------------------------
    @property
    def utilization(self) -> float:
        """Fraction of the makespan the device spent busy."""
        return self.busy_s / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def throughput_rps(self) -> float:
        """Completed requests per simulated second."""
        return self.num_completed / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def tokens_per_second(self) -> float:
        """Generated tokens per simulated second across the whole run."""
        return (
            self.total_output_tokens / self.makespan_s if self.makespan_s > 0 else 0.0
        )

    @property
    def max_queue_depth(self) -> int:
        return self.streamed.max_queue_depth

    @property
    def mean_queue_depth(self) -> float:
        """Time-weighted mean waiting-queue depth over the makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return self.streamed.queue_depth_area / self.makespan_s

    # -- SLO -----------------------------------------------------------------
    def _slo(self, slo: Optional[SLOSpec]) -> SLOSpec:
        spec = slo if slo is not None else self.slo
        if spec is None:
            raise ValueError("no SLOSpec attached to this report or given")
        return spec

    @property
    def _dropped_records(self) -> bool:
        """Whether the run streamed its records away (``keep_records=False``)."""
        return not self.records and self.num_requests > 0

    def _met_count(self, spec: SLOSpec) -> int:
        """Requests meeting ``spec``: the folded counter for the run's own
        SLO, the kept records re-judged for any other."""
        if spec == self.slo:
            return self.streamed.slo_met
        if self._dropped_records:
            raise ValueError(
                "this report streamed its records away; SLO counts exist "
                "only for the SLOSpec the simulation ran with"
            )
        return sum(1 for record in self.records if spec.met_by(record))

    def slo_attainment(self, slo: Optional[SLOSpec] = None) -> float:
        """Fraction of requests individually meeting the SLO."""
        spec = self._slo(slo)
        if not self.num_requests:
            return 0.0
        return self._met_count(spec) / self.num_requests

    def goodput_rps(self, slo: Optional[SLOSpec] = None) -> float:
        """SLO-meeting requests per simulated second.

        Counted directly (not attainment x throughput): attainment is a
        fraction of *all* requests while throughput counts *completed*
        ones, and the two denominators differ when a run leaves requests
        unfinished.
        """
        spec = self._slo(slo)
        if self.makespan_s <= 0:
            return 0.0
        return self._met_count(spec) / self.makespan_s

    def meets_slo(self, slo: Optional[SLOSpec] = None) -> bool:
        """Whether attainment reaches the SLO's ``min_attainment``."""
        spec = self._slo(slo)
        return self.slo_attainment(spec) >= spec.min_attainment

    # -- export --------------------------------------------------------------
    def summary_rows(self) -> Tuple[List[str], List[List[object]]]:
        """(headers, rows) for :func:`repro.reporting.print_table`."""
        ttft = self.percentiles("ttft")
        tpot = self.percentiles("tpot")
        e2e = self.percentiles("e2e")
        rows: List[List[object]] = [
            ["backend", self.backend_name],
            ["scheduler", self.scheduler_name],
            ["requests", self.num_requests],
            ["makespan (s)", self.makespan_s],
            ["throughput (req/s)", self.throughput_rps],
            ["throughput (token/s)", self.tokens_per_second],
            ["device utilization (%)", 100.0 * self.utilization],
            ["TTFT p50/p95/p99 (s)", percentile_triplet(ttft)],
            ["TPOT p50/p95/p99 (ms)", percentile_triplet(tpot, scale=1e3)],
            ["e2e p50/p95/p99 (s)", percentile_triplet(e2e)],
            ["queue depth mean/max", f"{self.mean_queue_depth:.2f}/{self.max_queue_depth}"],
        ]
        if self.event_queue is not None:
            heap = self.event_queue
            rows.append(
                [
                    "event heap push/pop/depth",
                    f"{heap['pushes']}/{heap['pops']}/{heap['max_depth']}",
                ]
            )
        if self.memory is not None:
            rows.extend([label, value] for label, value in self.memory.rows())
        if self.faults is not None:
            rows.extend([label, value] for label, value in self.faults.rows())
        if self.slo is not None:
            rows.extend(
                [
                    ["SLO attainment (%)", 100.0 * self.slo_attainment()],
                    ["goodput (req/s)", self.goodput_rps()],
                    ["meets SLO", self.meets_slo()],
                ]
            )
        if self.alerts is not None:
            rows.append(
                [
                    "alerts (fired/resolved)",
                    f"{len(self.alerts.fires())}/{len(self.alerts.resolves())}",
                ]
            )
        return ["metric", "value"], rows

    def to_markdown(self) -> str:
        """The summary table as GitHub-flavoured markdown."""
        from repro.reporting import format_markdown_table

        headers, rows = self.summary_rows()
        return format_markdown_table(headers, rows)

    def to_csv(self, path: Optional[str] = None) -> str:
        """The per-request trace as CSV; byte-identical under a fixed seed."""
        if self._dropped_records:
            raise ValueError(
                "this report streamed its records away (keep_records=False); "
                "the per-request trace was written to the run's trace_sink"
            )
        return trace_csv(self.records, self.slo, None, path)


#: Entries a trace's payload and latency text tables hold before they are
#: reset, as the schedulers' payload memos are when a workload overflows
#: them.  Kept small: on a run whose latencies are mostly distinct, a
#: larger table holds more text alive for few more hits.
TRACE_CELLS = 512

_VERDICT_CELLS = {None: "", True: "True", False: "False"}


class TraceCells:
    """The cell text one trace renders once and then reuses.

    Each trace owns one (a :class:`~repro.serving.stream.TraceStreamer`,
    or one :func:`trace_csv` call), so a second trace starts empty.  Every
    entry is the text ``csv.writer`` writes for its value:

    * ``payloads``: ``id(payload) -> (payload, text)``, a payload's five
      cells (``model`` to ``batch_size``) once per payload object.  The
      stored payload pins its id, so a hit is always that payload, as in
      the scheduler's ``_ttft_memo``.
    * ``pairs``: ``(model name, config) -> text``, the two cells that can
      need quoting, through ``csv.writer`` once per distinct pair.
    * ``latencies``: a latency float -> its ``repr``.  It never holds a
      zero, because ``0.0 == -0.0`` while their reprs differ, nor
      anything but a float, because ``2 == 2.0`` while ``repr`` writes
      ``2`` and ``2.0``.

    ``payloads`` and ``latencies`` are reset when they reach
    :data:`TRACE_CELLS` entries.
    """

    __slots__ = ("payloads", "pairs", "latencies")

    def __init__(self) -> None:
        self.payloads: Dict[int, Tuple[object, str]] = {}
        self.pairs: Dict[Tuple[str, Optional[str]], str] = {}
        self.latencies: Dict[float, str] = {}


def _latency_text(value: Optional[float], latencies: Dict[float, str]) -> str:
    """A latency's cell: blank for None, else its ``repr``, read from
    ``latencies`` (and filed there on a miss) for a non-zero float."""
    if value.__class__ is not float or not value:
        return "" if value is None else repr(value)
    text = latencies.get(value)
    if text is None:
        text = repr(value)
        if len(latencies) >= TRACE_CELLS:
            latencies.clear()
        latencies[value] = text
    return text


def trace_line(
    record: RequestRecord, sample: MetricSample, device: object, cells: TraceCells
) -> str:
    """One record's trace CSV row, newline included, byte for byte as
    ``csv.writer`` renders it: the one renderer of every trace row.

    ``sample`` is the record's :func:`metric_sample` (a streamed row reads
    the one its fold read).  ``device`` None renders a single-device row;
    anything else is the device cell after the request id (a fleet row).
    Floats render as their ``repr``, as ``csv.writer`` writes them, and
    unstamped cells are blank.  Text repeats from row to row, so ``cells``
    (the trace's :class:`TraceCells`) serves the payload cells and the
    non-zero float latencies, and a prefill start equal to a non-zero
    arrival of its own type reuses the arrival's text.
    """
    queue_wait, ttft, tpot, e2e, _, met = sample
    source = record.source
    request = source.request
    payloads = cells.payloads
    hit = payloads.get(id(request))
    if hit is not None:
        payload = hit[1]
    else:
        pairs = cells.pairs
        key = (request.model_name, request.config)
        text = pairs.get(key)
        if text is None:
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerow([key[0], key[1] or ""])
            text = pairs[key] = buffer.getvalue()[:-1]
        payload = f"{text},{request.seq_len},{request.gen_tokens},{request.batch_size}"
        if len(payloads) >= TRACE_CELLS:
            payloads.clear()
        payloads[id(request)] = (request, payload)
    arrival = source.arrival_s
    arrived = repr(arrival)
    prefill = record.prefill_start_s
    if prefill is None:
        started = ""
    elif prefill == arrival and prefill and prefill.__class__ is arrival.__class__:
        started = arrived
    else:
        started = repr(prefill)
    first = record.first_token_s
    finish = record.finish_s
    latencies = cells.latencies
    lead = source.request_id if device is None else f"{source.request_id},{device}"
    return (
        f"{lead},{arrived},{payload},{started},"
        f"{'' if first is None else repr(first)},"
        f"{'' if finish is None else repr(finish)},"
        f"{_latency_text(queue_wait, latencies)},{_latency_text(ttft, latencies)},"
        f"{_latency_text(tpot, latencies)},{_latency_text(e2e, latencies)},"
        f"{_VERDICT_CELLS[met]}\n"
    )


def trace_csv(
    records: Sequence[RequestRecord],
    slo: Optional[SLOSpec],
    assignments: Optional[List[int]],
    path: Optional[str],
) -> str:
    """The trace CSV of ``records`` (in arrival order), also written to
    ``path`` when given.  A fleet passes ``assignments``, its routed
    devices in arrival order, for the device column: blank for a request
    an ``early_exit`` run never routed."""
    header, devices = TRACE_CSV_FIELDS, repeat(None)
    if assignments is not None:
        header, devices = FLEET_TRACE_CSV_FIELDS, chain(assignments, repeat(""))
    # Written as rendered: the rows' objects are never all alive at once.
    buffer = io.StringIO()
    buffer.write(",".join(header) + "\n")
    cells = TraceCells()
    for record, device in zip(records, devices):
        buffer.write(trace_line(record, metric_sample(record, slo), device, cells))
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    return text


def percentile_triplet(values: Dict[str, Optional[float]], scale: float = 1.0) -> str:
    cells = []
    for key in ("p50", "p95", "p99"):
        value = values[key]
        cells.append("-" if value is None else f"{scale * value:.3f}")
    return "/".join(cells)
