"""The fleet-level report: merged timelines plus per-device breakdowns.

A :class:`FleetReport` is to :func:`repro.fleet.simulator.simulate_fleet`
what :class:`repro.serving.metrics.ServingReport` is to the single-device
loop — and it is built *from* per-device ``ServingReport`` objects, one
per replica, all sharing the fleet makespan.  Aggregate latency
percentiles, throughput, goodput and attainment are read from the
fleet-wide reservoirs (the devices' merged, plus any request an early
exit never routed); utilization, queue depth and request counts stay
visible per device, along with the imbalance between the busiest and
idlest replica that routing policies are judged by.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.serving.metrics import (
    SLOSpec,
    ServingReport,
    StreamedMetrics,
    percentile_triplet,
    trace_csv,
)
from repro.serving.request import RequestRecord


@dataclass
class FleetReport:
    """Everything one fleet simulation produced."""

    router_name: str
    #: One per replica, each carrying that device's reservoirs, busy
    #: seconds and queue-depth statistics (and its records, when kept);
    #: ``makespan_s`` is the fleet makespan on all.
    device_reports: List[ServingReport]
    #: Records in global arrival order (the merged timeline); empty unless
    #: the run kept its records.
    records: List[RequestRecord]
    #: Device index each record was routed to, parallel to ``records``.
    assignments: List[int]
    makespan_s: float
    slo: Optional[SLOSpec] = None
    #: Global event-loop iterations (None when built outside the loop);
    #: with fast-forward coalescing this is far below the step count.
    num_events: Optional[int] = None
    #: True when a ``fail_fast`` run aborted early because SLO attainment
    #: could no longer reach the threshold (records are partially stamped).
    early_exit: bool = False
    #: The fleet-wide reservoirs every merged metric reads (folded from
    #: ``records`` when None, as :class:`ServingReport` does).
    streamed: Optional[StreamedMetrics] = None
    #: Global event-heap debug counters (``{"pushes", "pops",
    #: "max_depth"}``); None when built outside the event loop.
    event_queue: Optional[Dict[str, int]] = None
    #: :class:`repro.obs.alerts.AlertLog` from an attached
    #: :class:`~repro.obs.timeline.TimelineCollector` with alert rules;
    #: None when the run carried no alerting observer.
    alerts: Optional["AlertLog"] = None
    #: Resilience counters (:class:`repro.faults.FaultReport`) from a
    #: fault-injected run; None on plain runs.
    faults: Optional["FaultReport"] = None

    # -- fleet shape ---------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.device_reports)

    @property
    def device_names(self) -> List[str]:
        return [report.backend_name for report in self.device_reports]

    # -- merged metrics (same derivations as ServingReport) ------------------
    @cached_property
    def _merged(self) -> ServingReport:
        """The whole fleet viewed as one device (cached)."""
        return ServingReport(
            backend_name="fleet",
            scheduler_name=self.router_name,
            records=self.records,
            makespan_s=self.makespan_s,
            busy_s=sum(report.busy_s for report in self.device_reports),
            slo=self.slo,
            num_events=self.num_events,
            streamed=self.streamed,
            event_queue=self.event_queue,
        )

    @property
    def num_requests(self) -> int:
        return self._merged.num_requests

    @property
    def num_completed(self) -> int:
        return self._merged.num_completed

    def percentiles(self, metric: str = "ttft") -> Dict[str, Optional[float]]:
        """Aggregate p50/p95/p99 for ``"ttft"``/``"tpot"``/``"e2e"``/``"queue_wait"``."""
        return self._merged.percentiles(metric)

    @property
    def throughput_rps(self) -> float:
        return self._merged.throughput_rps

    @property
    def tokens_per_second(self) -> float:
        return self._merged.tokens_per_second

    def slo_attainment(self, slo: Optional[SLOSpec] = None) -> float:
        return self._merged.slo_attainment(slo)

    def goodput_rps(self, slo: Optional[SLOSpec] = None) -> float:
        return self._merged.goodput_rps(slo)

    def meets_slo(self, slo: Optional[SLOSpec] = None) -> bool:
        return self._merged.meets_slo(slo)

    # -- balance -------------------------------------------------------------
    @property
    def utilizations(self) -> List[float]:
        """Per-device busy fraction of the fleet makespan."""
        return [report.utilization for report in self.device_reports]

    @property
    def mean_utilization(self) -> float:
        return sum(self.utilizations) / self.num_devices

    @property
    def imbalance(self) -> float:
        """Busiest-minus-idlest utilization: 0 is a perfectly level fleet."""
        utils = self.utilizations
        return max(utils) - min(utils)

    @property
    def requests_per_device(self) -> List[int]:
        return [report.num_requests for report in self.device_reports]

    # -- export --------------------------------------------------------------
    def summary_rows(self) -> Tuple[List[str], List[List[object]]]:
        """(headers, rows) for :func:`repro.reporting.print_table`."""
        merged = self._merged
        ttft = merged.percentiles("ttft")
        tpot = merged.percentiles("tpot")
        e2e = merged.percentiles("e2e")
        utils = self.utilizations
        rows: List[List[object]] = [
            ["devices", self.num_devices],
            ["router", self.router_name],
            ["requests", self.num_requests],
            ["makespan (s)", self.makespan_s],
            ["throughput (req/s)", self.throughput_rps],
            ["throughput (token/s)", self.tokens_per_second],
            ["fleet utilization (%)", 100.0 * self.mean_utilization],
            [
                "utilization min/max (%)",
                f"{100.0 * min(utils):.1f}/{100.0 * max(utils):.1f}",
            ],
            ["imbalance (util max-min)", self.imbalance],
            ["TTFT p50/p95/p99 (s)", percentile_triplet(ttft)],
            ["TPOT p50/p95/p99 (ms)", percentile_triplet(tpot, scale=1e3)],
            ["e2e p50/p95/p99 (s)", percentile_triplet(e2e)],
        ]
        if self.event_queue is not None:
            heap = self.event_queue
            rows.append(
                [
                    "event heap push/pop/depth",
                    f"{heap['pushes']}/{heap['pops']}/{heap['max_depth']}",
                ]
            )
        if self.num_completed != self.num_requests:
            rows.insert(3, ["completed", self.num_completed])
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

    def per_device_rows(self) -> Tuple[List[str], List[List[object]]]:
        """One row per replica: the routing/balance view of the run."""
        headers = [
            "device",
            "scheduler",
            "requests",
            "utilization (%)",
            "busy (s)",
            "queue mean/max",
        ]
        rows = []
        for index, report in enumerate(self.device_reports):
            rows.append(
                [
                    f"{index}:{report.backend_name}",
                    report.scheduler_name,
                    report.num_requests,
                    100.0 * report.utilization,
                    report.busy_s,
                    f"{report.mean_queue_depth:.2f}/{report.max_queue_depth}",
                ]
            )
        return headers, rows

    def to_markdown(self) -> str:
        """The summary table as GitHub-flavoured markdown."""
        from repro.reporting import format_markdown_table

        headers, rows = self.summary_rows()
        return format_markdown_table(headers, rows)

    def to_csv(self, path: Optional[str] = None) -> str:
        """Per-request trace with device assignment; byte-stable under a seed.

        Every record gets a row: requests an ``early_exit`` run never
        routed carry a blank device cell (their timing cells are already
        blank), matching the single-device report's complete trace.
        """
        if not self.records and self.num_requests:
            raise ValueError(
                "this report was built with keep_records=False; pass "
                "trace_sink= to simulate_fleet to stream the trace instead"
            )
        return trace_csv(self.records, self.slo, self.assignments, path)
