"""Time-resolved telemetry: the event loop's folds, in fixed windows.

A :class:`TimelineCollector` answers *what was true at time t* instead
of *what happened over the whole run*.  It is fed where the reports
fold: each request as it resolves (:meth:`~TimelineCollector.resolved`,
with the :func:`~repro.serving.metrics.metric_sample` the report's fold
read), each device occupancy as it ends (:meth:`~TimelineCollector.span`,
with the KV DRAM level its scheduler stamped on it), and each change a
scheduler makes to its waiting queue (:meth:`~TimelineCollector.queued`,
as its own depth statistics fold it).  Only what the memory model and
the fault engine alone know reaches it as an instant
(:meth:`~TimelineCollector.instant`): spill/refill bytes and fault
events.  Everything folds into fixed-width windows on the **simulated**
clock:

* arrival and completion counts (and rates) per window,
* goodput (SLO-meeting completions per second) when an
  :class:`~repro.serving.metrics.SLOSpec` is attached,
* time-weighted mean and max depth of the waiting queues (a shed
  request's wait counts; a retry's backoff, spent on no device, not),
* device-busy seconds and utilization (occupancies distributed across
  the windows they overlap),
* KV spill/refill bytes and the DRAM occupancy peak (each replica's
  level carries forward across the windows where it stamps none),
* exact per-window TTFT/TPOT/e2e reservoirs, reduced to p50/p95/p99,
* fault-engine lifecycle counts (total fault events plus shed / retried /
  timed-out / failed requests, from the ``"faults"``-track instants the
  :mod:`repro.faults` engine emits; blank columns on fault-free runs).

A timeline rides the loops' ``recorder=`` seam, alone or in a
:class:`~repro.obs.recorder.TeeRecorder` beside span recorders; the
loops split the seam once per run (:func:`split_observers`), so a run
observed by a timeline alone builds no span and no scheduler or router
instant.  Everything is derived from the deterministic event stream, so
the rows, the CSV (:meth:`TimelineCollector.to_csv`) and the per-window
gauge view (:meth:`TimelineCollector.to_registry` — the PR-8 Prometheus
path, unchanged) are seed-stable byte for byte.  And like every
observer, attaching a collector never changes what the simulation
computes: it only reads the floats the loops already produced.

Alert rules (see :mod:`repro.obs.alerts`) attached at construction are
evaluated window-by-window when the run finalizes, yielding the
deterministic :class:`~repro.obs.alerts.AlertLog` the event loops
surface on ``ServingReport.alerts`` / ``FleetReport.alerts``.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.alerts import AlertLog, evaluate_alerts
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.recorder import Recorder, TeeRecorder
from repro.serving.metrics import percentile_of_sorted

_FINALIZED = "this TimelineCollector is finalized; use a fresh one"

#: Column order of :meth:`TimelineCollector.to_csv`; one row per window.
#: Cells without a defined value (no SLO attached, no memory model, an
#: empty reservoir) render blank, exactly like the trace CSV's cells.
TIMELINE_CSV_FIELDS = [
    "window",
    "start_s",
    "end_s",
    "arrivals",
    "completions",
    "arrival_qps",
    "completion_qps",
    "goodput_qps",
    "slo_met",
    "queue_depth_mean",
    "queue_depth_max",
    "busy_s",
    "utilization",
    "ttft_p50_s",
    "ttft_p95_s",
    "ttft_p99_s",
    "tpot_p50_s",
    "tpot_p95_s",
    "tpot_p99_s",
    "e2e_p50_s",
    "e2e_p95_s",
    "e2e_p99_s",
    "kv_spill_bytes",
    "kv_refill_bytes",
    "kv_dram_peak_bytes",
    "fault_events",
    "shed",
    "retries",
    "timed_out",
    "failed",
]

class _Window:
    """One window's accumulators while the run is still emitting."""

    __slots__ = (
        "arrivals",
        "completions",
        "slo_met",
        "ttfts",
        "tpots",
        "e2es",
        "busy_s",
        "queue_area",
        "queue_max",
        "spill_bytes",
        "refill_bytes",
        "dram_peak",
        "dram_last",
        "fault_events",
        "shed",
        "retries",
        "timed_out",
        "failed",
    )

    def __init__(self) -> None:
        self.arrivals = 0
        self.completions = 0
        self.slo_met = 0
        self.ttfts: List[float] = []
        self.tpots: List[float] = []
        self.e2es: List[float] = []
        self.busy_s = 0.0
        self.queue_area = 0.0
        self.queue_max = 0
        self.spill_bytes = 0
        self.refill_bytes = 0
        self.dram_peak: Optional[int] = None
        #: Device -> (time, level) of its latest DRAM stamp in the window.
        self.dram_last: Dict[object, Tuple[float, int]] = {}
        self.fault_events = 0
        self.shed = 0
        self.retries = 0
        self.timed_out = 0
        self.failed = 0


class TimelineCollector:
    """Folds one run into ``window_s``-wide metric windows.

    Pass one to ``simulate(..., recorder=...)`` / ``simulate_fleet`` on
    its own, or beside a ``SpanRecorder`` in a
    :class:`~repro.obs.recorder.TeeRecorder` when the raw spans are
    wanted too: the loops split the seam once (:func:`split_observers`)
    and feed the timeline their folds and the schedulers' queue changes,
    never a span.  They call
    :meth:`finalize_run` with the makespan once the last event lands;
    after that (or after an explicit :meth:`finalize`) the windows are
    frozen and :meth:`to_rows`, :meth:`to_csv` and :meth:`to_registry`
    answer from them.

    ``slo`` enables the goodput/``slo_met`` columns.  A completion's
    verdict is the one the run's report counted (its sample's), so a
    timed-out request is a miss and the column sums to the report's
    ``slo_met``; on a run judged against no SLO, ``slo.met_by`` decides.
    ``rules`` is a sequence of :class:`~repro.obs.alerts.AlertRule`
    evaluated at finalize.
    ``num_devices`` overrides the utilization denominator (it defaults
    to the number of distinct devices whose occupancies it folded, so a
    fleet device that never worked would otherwise not be counted).
    """

    enabled = True

    def __init__(
        self,
        window_s: float = 60.0,
        slo=None,
        rules: Sequence = (),
        num_devices: Optional[int] = None,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = float(window_s)
        self.slo = slo
        self.rules = tuple(rules)
        self.num_devices = num_devices
        #: The deterministic fire/resolve log, set by :meth:`finalize`
        #: when rules are attached (None before, and with no rules).
        self.alert_log: Optional[AlertLog] = None
        #: Window index -> its accumulators, made on first touch.
        self._windows: Dict[int, _Window] = defaultdict(_Window)
        #: The waiting queues' summed depth, and when it last changed.
        self._queue_depth = 0
        self._queue_t = 0.0
        self._devices: Dict[object, None] = {}
        self._saw_memory = False
        self._saw_faults = False
        self._t_max = 0.0
        self._rows: Optional[List[dict]] = None

    # -- folding --------------------------------------------------------------
    def _window(self, ts_s: float) -> _Window:
        return self._windows[int(ts_s / self.window_s)]

    def resolved(self, record, sample) -> None:
        """Fold one request the loop just resolved; ``sample`` is the
        :func:`~repro.serving.metrics.metric_sample` its report fold read.

        Every resolved request is an arrival, in the window it arrived
        in.  One with a finish stamp (served, timed out, or won by a
        hedge) also adds its completion, latencies and SLO verdict to the
        window it finished in.
        """
        if self._rows is not None:
            raise ValueError(_FINALIZED)
        width = self.window_s
        windows = self._windows
        arrival = record.source.arrival_s
        windows[int(arrival / width)].arrivals += 1
        finish = record.finish_s
        if finish is None:
            return
        if finish > self._t_max:
            self._t_max = finish
        _, ttft, tpot, e2e, _, met = sample
        window = windows[int(finish / width)]
        window.completions += 1
        window.ttfts.append(ttft)
        window.tpots.append(tpot)
        window.e2es.append(e2e)
        if met is None and self.slo is not None:
            met = self.slo.met_by(record)  # the run itself judged no SLO
        if met:
            window.slo_met += 1

    def queued(self, ts_s: float, change: int) -> None:
        """Fold a change of ``change`` requests in a scheduler's waiting
        queue at ``ts_s``, as the scheduler makes it: the summed depth held
        since the previous change spreads over the windows it overlaps,
        and counts toward a window's max only where it was held for
        positive time, so a request leaving a queue at the instant another
        joins never inflates it."""
        if self._rows is not None:
            raise ValueError(_FINALIZED)
        since = self._queue_t
        if ts_s > since:
            depth = self._queue_depth
            if depth:
                width = self.window_s
                for index in range(int(since / width), int(ts_s / width) + 1):
                    low = index * width
                    overlap = min(ts_s, low + width) - max(since, low)
                    if overlap > 0:
                        window = self._windows[index]
                        window.queue_area += depth * overlap
                        if depth > window.queue_max:
                            window.queue_max = depth
            self._queue_t = ts_s
        self._queue_depth += change

    def span(
        self,
        device,
        start_s: float,
        end_s: float,
        dram_bytes: Optional[int] = None,
    ) -> None:
        """Fold one occupancy of ``device`` the loop just ended.

        Its seconds are distributed over the windows it overlaps, and
        ``dram_bytes`` (the KV DRAM level its scheduler stamped on it as
        of ``start_s``; None without a memory model) becomes the device's
        level in the window it started in: the latest stamp wins, and a
        tie goes to the occupancy handed over last.
        """
        if self._rows is not None:
            raise ValueError(_FINALIZED)
        if end_s > self._t_max:
            self._t_max = end_s
        self._devices[device] = None
        width = self.window_s
        windows = self._windows
        first = int(start_s / width)
        window = windows[first]
        if end_s > start_s:
            low = first * width
            if int(end_s / width) == first and int(low / width) == first:
                # Inside one window, as most occupancies are: the loop
                # below, run once.
                high = low + width
                overlap = (end_s if end_s <= high else high) - (
                    start_s if start_s >= low else low
                )
                if overlap > 0:
                    window.busy_s += overlap
            else:
                for index in range(first, int(end_s / width) + 1):
                    low = index * width
                    overlap = min(end_s, low + width) - max(start_s, low)
                    if overlap > 0:
                        self._window(low).busy_s += overlap
        if dram_bytes is not None:
            self._saw_memory = True
            if window.dram_peak is None or dram_bytes > window.dram_peak:
                window.dram_peak = dram_bytes
            last = window.dram_last.get(device)
            if last is None or start_s >= last[0]:
                window.dram_last[device] = (start_s, dram_bytes)

    def instant(
        self, track: str, name: str, ts_s: float, args: Optional[dict] = None
    ) -> None:
        """Fold what only the memory model and the fault engine know: the
        bytes of a ``spill``/``refill`` instant, and every instant on the
        fault engine's ``"faults"`` track.  Other instants are ignored."""
        if self._rows is not None:
            raise ValueError(_FINALIZED)
        if ts_s > self._t_max:
            self._t_max = ts_s
        if track == "faults":
            # Every fault-engine instant counts toward fault_events;
            # outcome-bearing names also increment their own column.
            self._saw_faults = True
            window = self._window(ts_s)
            window.fault_events += 1
            if name == "shed":
                window.shed += 1
            elif name == "retry":
                window.retries += 1
            elif name == "timeout":
                window.timed_out += 1
            elif name == "failed":
                window.failed += 1
            return
        if args is None:
            return
        if name == "spill":
            self._saw_memory = True
            self._window(ts_s).spill_bytes += args.get("bytes", 0)
        elif name == "refill":
            self._saw_memory = True
            self._window(ts_s).refill_bytes += args.get("bytes", 0)

    # -- finalization ---------------------------------------------------------
    def finalize_run(self, makespan_s: float) -> Optional[AlertLog]:
        """Event-loop hook: freeze the windows, evaluate the alert rules.

        Returns the :class:`AlertLog` (surfaced on the report) when rules
        are attached, else None.
        """
        self.finalize(makespan_s)
        return self.alert_log

    def finalize(self, makespan_s: Optional[float] = None) -> List[dict]:
        """Close the windows and build the row list (idempotent)."""
        if self._rows is not None:
            return self._rows
        width = self.window_s
        if makespan_s is None:
            makespan_s = self._t_max
        self.queued(makespan_s, 0)
        count = max(self._windows, default=0) + 1
        if makespan_s > 0:
            count = max(count, int(makespan_s / width) + 1)
        devices = self.num_devices
        if devices is None:
            devices = len(self._devices) or 1
        slo = self.slo
        rows: List[dict] = []
        #: Device -> the DRAM level it carries into the next window.
        dram_levels: Dict[object, int] = {}
        for index in range(count):
            window = self._windows.get(index)
            start = index * width
            arrivals = window.arrivals if window is not None else 0
            completions = window.completions if window is not None else 0
            busy = window.busy_s if window is not None else 0.0
            met = window.slo_met if window is not None else 0
            queue_area = window.queue_area if window is not None else 0.0
            row = {
                "window": index,
                "start_s": start,
                "end_s": start + width,
                "arrivals": arrivals,
                "completions": completions,
                "arrival_qps": arrivals / width,
                "completion_qps": completions / width,
                "goodput_qps": met / width if slo is not None else None,
                "slo_met": met if slo is not None else None,
                "queue_depth_mean": queue_area / width,
                "queue_depth_max": window.queue_max if window is not None else 0,
                "busy_s": busy,
                "utilization": busy / (width * devices),
            }
            for metric, values in (
                ("ttft", window.ttfts if window is not None else ()),
                ("tpot", window.tpots if window is not None else ()),
                ("e2e", window.e2es if window is not None else ()),
            ):
                ordered = sorted(values)
                for q in (50, 95, 99):
                    row[f"{metric}_p{q}_s"] = percentile_of_sorted(ordered, q)
            if self._saw_memory:
                peak = max(dram_levels.values(), default=None)
                if window is not None and window.dram_peak is not None:
                    peak = (
                        window.dram_peak
                        if peak is None
                        else max(peak, window.dram_peak)
                    )
                    for device, (_, used) in window.dram_last.items():
                        dram_levels[device] = used
                row["kv_spill_bytes"] = (
                    window.spill_bytes if window is not None else 0
                )
                row["kv_refill_bytes"] = (
                    window.refill_bytes if window is not None else 0
                )
                row["kv_dram_peak_bytes"] = peak
            else:
                row["kv_spill_bytes"] = None
                row["kv_refill_bytes"] = None
                row["kv_dram_peak_bytes"] = None
            if self._saw_faults:
                row["fault_events"] = (
                    window.fault_events if window is not None else 0
                )
                row["shed"] = window.shed if window is not None else 0
                row["retries"] = window.retries if window is not None else 0
                row["timed_out"] = (
                    window.timed_out if window is not None else 0
                )
                row["failed"] = window.failed if window is not None else 0
            else:
                row["fault_events"] = None
                row["shed"] = None
                row["retries"] = None
                row["timed_out"] = None
                row["failed"] = None
            rows.append(row)
        self._rows = rows
        if self.rules:
            self.alert_log = evaluate_alerts(rows, width, self.rules)
        return rows

    # -- exports --------------------------------------------------------------
    def to_rows(self) -> List[dict]:
        """One dict per window, keyed by :data:`TIMELINE_CSV_FIELDS`."""
        return self.finalize()

    def to_csv(self, path: Optional[str] = None) -> str:
        """The windows as a columnar CSV; byte-stable under a fixed seed."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(TIMELINE_CSV_FIELDS)
        for row in self.to_rows():
            writer.writerow(
                [
                    "" if row[field] is None else row[field]
                    for field in TIMELINE_CSV_FIELDS
                ]
            )
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", newline="") as handle:
                handle.write(text)
        return text

    def to_registry(self) -> MetricsRegistry:
        """The windows as ``repro_timeline_*`` gauges labeled by window.

        Every defined cell becomes one ``repro_timeline_<column>`` gauge
        sample with a ``window="<index>"`` label, so the PR-8 Prometheus
        exposition/round-trip path works on timelines unchanged.
        """
        registry = MetricsRegistry()
        for row in self.to_rows():
            label = str(row["window"])
            for field in TIMELINE_CSV_FIELDS[1:]:
                value = row[field]
                if value is None:
                    continue
                registry.gauge(
                    f"repro_timeline_{field}", f"Per-window {field}"
                ).set(value, window=label)
        return registry

    def snapshot(self) -> MetricsSnapshot:
        """:meth:`to_registry` frozen into a :class:`MetricsSnapshot`."""
        return self.to_registry().snapshot()


def split_observers(
    recorder,
) -> Tuple[Optional[Recorder], Tuple[TimelineCollector, ...]]:
    """``(spans, timelines)``: one ``recorder=`` argument split the way
    the event loops feed it.

    ``spans`` receives every span and every scheduler, router and loop
    instant: the recorder itself, a tee's other children (a tee of them
    when there are several), or None when only timelines observe the run.
    Each timeline receives the loops' folds and the schedulers' queue
    changes.  The whole recorder still
    receives the memory model's and the fault engine's instants, and
    ``finalize_run``.  A disabled recorder (None, a ``NullRecorder``)
    splits into ``(None, ())``.
    """
    if recorder is None or not recorder.enabled:
        return None, ()
    if isinstance(recorder, TimelineCollector):
        return None, (recorder,)
    if not isinstance(recorder, TeeRecorder):
        return recorder, ()
    spans: List[Recorder] = []
    timelines: List[TimelineCollector] = []
    for child in recorder.recorders:
        child_spans, child_timelines = split_observers(child)
        if child_spans is not None:
            spans.append(child_spans)
        timelines += child_timelines
    if not timelines:
        return recorder, ()
    if len(spans) > 1:
        return TeeRecorder(*spans), tuple(timelines)
    return (spans[0] if spans else None), tuple(timelines)
