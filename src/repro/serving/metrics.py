"""SLO specifications and the serving report.

The :class:`ServingReport` is to the serving simulator what
:class:`repro.api.result.RunResult` is to a single job: the one container
every consumer (CLI, capacity search, tests, notebooks) reads.  It holds
the completed per-request records plus the device timeline and derives
latency percentiles (TTFT, time-per-output-token, end-to-end), queue
depth over time, utilization, throughput and — against an
:class:`SLOSpec` — attainment and goodput.

Everything is a pure function of the records, so a report is exactly as
deterministic as the simulation that produced it: the same seed yields a
byte-identical :meth:`ServingReport.to_csv`.
"""

from __future__ import annotations

import csv
import io
from array import array
from dataclasses import dataclass, field
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
    """Exact metric reservoirs for runs that drop their records.

    When ``simulate(..., keep_records=False)`` streams records out instead
    of keeping them, it folds each record into the reservoirs at the
    moment the record leaves the loop.  The reservoirs hold the same
    stamped float values the in-memory properties would have derived from
    the record list — nothing is approximated or binned — so percentiles,
    attainment and goodput computed from a streamed run match the
    in-memory run bit for bit; only the per-request trace rows are gone
    (or, with a ``trace_sink``, on disk).
    """

    #: Attached SLO-met counter; None when the run carried no SLOSpec.
    slo_met: Optional[int] = None
    num_requests: int = 0
    num_completed: int = 0
    total_output_tokens: int = 0
    #: The reservoirs are compact C-double arrays: one million samples
    #: cost 8 MB instead of ~32 MB of boxed floats, and ``array('d')``
    #: stores the exact same IEEE doubles the record properties compute,
    #: so every percentile still matches the in-memory run bit for bit.
    ttfts: MutableSequence[float] = field(default_factory=lambda: array("d"))
    tpots: MutableSequence[float] = field(default_factory=lambda: array("d"))
    e2es: MutableSequence[float] = field(default_factory=lambda: array("d"))
    queue_waits: MutableSequence[float] = field(default_factory=lambda: array("d"))
    #: Time-weighted integral of the waiting-queue depth (for the mean)
    #: and its maximum — the two aggregates the sample list would feed.
    queue_depth_area: float = 0.0
    max_queue_depth: int = 0

    def add_sample(
        self,
        sample: "Tuple[Optional[float], Optional[float], Optional[float], Optional[float], int, Optional[bool]]",
    ) -> None:
        """Fold one precomputed :func:`metric_sample` into the reservoirs.

        The event loop derives each record's values once and feeds the
        same tuple to both the fleet-wide and the per-device reservoirs,
        with bit-identical results (the sample carries the exact floats
        the record properties compute).
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

    def fold(self, record: RequestRecord, slo: Optional["SLOSpec"]) -> None:
        """Fold one (possibly partially-stamped) record into the reservoirs.

        The stamp conditions mirror the :class:`ServingReport` metric
        properties exactly, so partially-stamped records from an
        ``early_exit`` run contribute to precisely the same metrics.
        This is the per-record hot path of metrics-only (no trace sink)
        streaming runs; the arithmetic is the same expressions as
        :func:`metric_sample`, so the reservoirs are bit-identical.
        """
        source = record.source
        arrival = source.arrival_s
        first = record.first_token_s
        finish = record.finish_s
        self.num_requests += 1
        prefill = record.prefill_start_s
        if prefill is not None:
            self.queue_waits.append(prefill - arrival)
        ttft = None
        if first is not None:
            ttft = first - arrival
            self.ttfts.append(ttft)
        if finish is not None:
            e2e = finish - arrival
            self.e2es.append(e2e)
            self.num_completed += 1
            request = source.request
            self.total_output_tokens += request.total_generated_tokens
            if first is not None:
                tpot = (finish - first) / request.gen_tokens
                self.tpots.append(tpot)
                if slo is not None:
                    if record.outcome is None and not (
                        (slo.ttft_s is not None and ttft > slo.ttft_s)
                        or (slo.tpot_s is not None and tpot > slo.tpot_s)
                        or (slo.e2e_s is not None and e2e > slo.e2e_s)
                    ):
                        met = self.slo_met
                        self.slo_met = 1 if met is None else met + 1
                    elif self.slo_met is None:
                        self.slo_met = 0
                return
        if slo is not None and self.slo_met is None:
            self.slo_met = 0

    def merge_from(self, other: "StreamedMetrics") -> None:
        """Fold another reservoir set into this one (counts add, values
        concatenate).

        The fleet loop folds each record once into its device's
        reservoirs and builds the fleet-wide view by merging at the end —
        the multiset of values is identical to folding every record
        twice, so every percentile/attainment/goodput answer is too.
        Queue-depth aggregates are deliberately not merged: they are
        per-device quantities (the fleet report never sums them).
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


def metric_sample(
    record: RequestRecord, slo: Optional[SLOSpec]
) -> Tuple[
    Optional[float], Optional[float], Optional[float], Optional[float], int, Optional[bool]
]:
    """One record's ``(queue_wait, ttft, tpot, e2e, tokens, met)`` values.

    Computes every derived metric the record's properties (and
    :meth:`SLOSpec.met_by`) would — each exactly once, with the identical
    float expressions, so folding the sample into a
    :class:`StreamedMetrics` matches :meth:`StreamedMetrics.fold` bit for
    bit.  ``None`` marks a stamp the record never received; ``met`` is
    ``None`` when the run carried no SLO.
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
        if record.outcome is not None:
            return False
        if record.first_token_s is None or record.finish_s is None:
            return False
        if self.ttft_s is not None and record.ttft_s > self.ttft_s:
            return False
        if self.tpot_s is not None and record.tpot_s > self.tpot_s:
            return False
        if self.e2e_s is not None and record.e2e_s > self.e2e_s:
            return False
        return True


@dataclass
class ServingReport:
    """Everything one simulation run produced."""

    backend_name: str
    scheduler_name: str
    records: List[RequestRecord]
    #: Simulated time when the last occupancy ended.
    makespan_s: float
    #: Total device-busy seconds (sum of occupancy durations).
    busy_s: float
    #: (time, waiting-queue depth) samples at every event boundary.
    queue_depth: List[Tuple[float, int]]
    slo: Optional[SLOSpec] = None
    #: Event-loop iterations the simulation processed (None when the
    #: report was built outside the event loop); with fast-forward
    #: coalescing this is far below the number of decode steps simulated.
    num_events: Optional[int] = None
    #: True when a ``fail_fast`` run aborted early because SLO attainment
    #: could no longer reach the threshold (records are partially stamped).
    early_exit: bool = False
    #: Metric reservoirs from a ``keep_records=False`` run; when set,
    #: ``records`` is empty and every metric below reads from here (the
    #: values are the exact stamps the record list would have carried).
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
        #: metric name -> sorted values, so repeated percentile queries
        #: sort each metric once (records are not expected to mutate
        #: after the report is built).
        self._sorted_metrics: Dict[str, List[float]] = {}

    # -- basic counts --------------------------------------------------------
    @property
    def num_requests(self) -> int:
        if self.streamed is not None:
            return self.streamed.num_requests
        return len(self.records)

    @property
    def completed_records(self) -> List[RequestRecord]:
        """Records that ran to their last token (all of them, normally)."""
        return [record for record in self.records if record.completed]

    @property
    def num_completed(self) -> int:
        if self.streamed is not None:
            return self.streamed.num_completed
        return len(self.completed_records)

    @property
    def total_output_tokens(self) -> int:
        if self.streamed is not None:
            return self.streamed.total_output_tokens
        return sum(record.output_tokens for record in self.completed_records)

    # -- latency metrics -----------------------------------------------------
    # Each list draws only on the lifecycle stamps a record actually has,
    # so a run where nothing (or not everything) completed still reports:
    # the percentiles simply cover fewer requests, or are None when empty.
    @property
    def ttfts(self) -> List[float]:
        if self.streamed is not None:
            # The streamed reservoir is a compact double array; hand out
            # the list the record-keeping path would have produced.
            return list(self.streamed.ttfts)
        return [
            record.ttft_s
            for record in self.records
            if record.first_token_s is not None
        ]

    @property
    def tpots(self) -> List[float]:
        if self.streamed is not None:
            return list(self.streamed.tpots)
        return [
            record.tpot_s
            for record in self.records
            if record.first_token_s is not None and record.finish_s is not None
        ]

    @property
    def e2es(self) -> List[float]:
        if self.streamed is not None:
            return list(self.streamed.e2es)
        return [record.e2e_s for record in self.completed_records]

    @property
    def queue_waits(self) -> List[float]:
        if self.streamed is not None:
            return list(self.streamed.queue_waits)
        return [
            record.queue_wait_s
            for record in self.records
            if record.prefill_start_s is not None
        ]

    def _sorted_metric(self, metric: str) -> List[float]:
        """One metric's values, sorted once and cached across queries."""
        values = self._sorted_metrics.get(metric)
        if values is None:
            values = sorted(
                {
                    "ttft": self.ttfts,
                    "tpot": self.tpots,
                    "e2e": self.e2es,
                    "queue_wait": self.queue_waits,
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
        if self.streamed is not None:
            return self.streamed.max_queue_depth
        return max((depth for _, depth in self.queue_depth), default=0)

    @property
    def mean_queue_depth(self) -> float:
        """Time-weighted mean waiting-queue depth over the makespan."""
        if self.streamed is not None:
            if self.makespan_s <= 0:
                return 0.0
            return self.streamed.queue_depth_area / self.makespan_s
        if self.makespan_s <= 0 or len(self.queue_depth) < 2:
            return float(self.queue_depth[0][1]) if self.queue_depth else 0.0
        area = 0.0
        for (t0, depth), (t1, _) in zip(self.queue_depth, self.queue_depth[1:]):
            area += depth * (t1 - t0)
        return area / self.makespan_s

    # -- SLO -----------------------------------------------------------------
    def _slo(self, slo: Optional[SLOSpec]) -> SLOSpec:
        spec = slo if slo is not None else self.slo
        if spec is None:
            raise ValueError("no SLOSpec attached to this report or given")
        return spec

    def _met_count(self, spec: SLOSpec) -> int:
        """Requests meeting ``spec`` — from records, or the streamed counter."""
        if self.streamed is not None:
            if spec != self.slo or self.streamed.slo_met is None:
                raise ValueError(
                    "this report streamed its records away; SLO counts exist "
                    "only for the SLOSpec the simulation ran with"
                )
            return self.streamed.slo_met
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
        if self.streamed is not None:
            raise ValueError(
                "this report streamed its records away (keep_records=False); "
                "the per-request trace was written to the run's trace_sink"
            )
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(TRACE_CSV_FIELDS)
        for record in self.records:
            writer.writerow(trace_values(record, self.slo))
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", newline="") as handle:
                handle.write(text)
        return text


def trace_values(record: RequestRecord, slo: Optional[SLOSpec]) -> List[object]:
    """One record's cells in :data:`TRACE_CSV_FIELDS` order; blank cells
    for unstamped times.

    Shared by :meth:`ServingReport.to_csv`, the fleet trace export and
    the streaming trace sinks, so every trace CSV in the repo renders a
    record identically (``csv.writer`` formats each value exactly as the
    former ``DictWriter`` did — same ``str()`` float rendering, same
    quoting rules — keeping streamed and post-hoc traces byte-identical).
    """
    request = record.request
    incomplete = record.first_token_s is None or record.finish_s is None
    return [
        record.request_id,
        record.arrival_s,
        request.model_name,
        request.config or "",
        request.seq_len,
        request.gen_tokens,
        request.batch_size,
        _blank_if_none(record.prefill_start_s),
        _blank_if_none(record.first_token_s),
        _blank_if_none(record.finish_s),
        "" if record.prefill_start_s is None else record.queue_wait_s,
        "" if record.first_token_s is None else record.ttft_s,
        "" if incomplete else record.tpot_s,
        "" if record.finish_s is None else record.e2e_s,
        "" if slo is None else slo.met_by(record),
    ]


def _blank_if_none(value: Optional[float]) -> object:
    return "" if value is None else value


def percentile_triplet(values: Dict[str, Optional[float]], scale: float = 1.0) -> str:
    cells = []
    for key in ("p50", "p95", "p99"):
        value = values[key]
        cells.append("-" if value is None else f"{scale * value:.3f}")
    return "/".join(cells)
