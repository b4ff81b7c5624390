"""Time-resolved telemetry: recorder emissions folded into fixed windows.

A :class:`TimelineCollector` is a :class:`~repro.obs.recorder.Recorder`
that answers *what was true at time t* instead of *what happened over
the whole run*.  It consumes the exact emission vocabulary the event
loops, schedulers and memory models already produce — request
QUEUE/PREFILL/DECODE phase spans on the ``"requests"`` track, occupancy
spans on device tracks, spill/refill/dram instants on memory tracks —
and folds them into fixed-width windows on the **simulated** clock:

* arrival and completion counts (and rates) per window,
* goodput (SLO-meeting completions per second) when an
  :class:`~repro.serving.metrics.SLOSpec` is attached,
* time-weighted mean and max queueing depth, from an exact sweep over
  the QUEUE-span endpoints,
* device-busy seconds and utilization (occupancy spans distributed
  across the windows they overlap),
* KV spill/refill bytes and the DRAM occupancy peak (from the
  ``"dram"`` instants; each memory track's level carries forward across
  the windows where it emits none),
* exact per-window TTFT/TPOT/e2e reservoirs, reduced to p50/p95/p99,
* fault-engine lifecycle counts (total fault events plus shed / retried /
  timed-out / failed requests, from the ``"faults"``-track instants the
  :mod:`repro.faults` engine emits; blank columns on fault-free runs).

Everything is derived from the deterministic event stream, so the rows,
the CSV (:meth:`TimelineCollector.to_csv`) and the per-window gauge view
(:meth:`TimelineCollector.to_registry` — the PR-8 Prometheus path,
unchanged) are seed-stable byte for byte.  And like every recorder,
attaching a collector never changes what the simulation computes: it
only reads the floats the loops already produced.

Alert rules (see :mod:`repro.obs.alerts`) attached at construction are
evaluated window-by-window when the run finalizes, yielding the
deterministic :class:`~repro.obs.alerts.AlertLog` the event loops
surface on ``ServingReport.alerts`` / ``FleetReport.alerts``.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.alerts import AlertLog, evaluate_alerts
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.recorder import DECODE, QUEUE, Recorder
from repro.serving.metrics import percentile_of_sorted

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

#: The track :func:`repro.obs.recorder.record_request_phases` is called
#: with by the event loop; spans here are request phases, spans on any
#: other track are device occupancies.
_PHASE_TRACK = "requests"


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
        self.spill_bytes = 0
        self.refill_bytes = 0
        self.dram_peak: Optional[int] = None
        #: Memory track -> (time, level) of its latest ``dram`` instant in
        #: the window.
        self.dram_last: Dict[str, Tuple[float, int]] = {}
        self.fault_events = 0
        self.shed = 0
        self.retries = 0
        self.timed_out = 0
        self.failed = 0


class TimelineCollector(Recorder):
    """Folds recorder emissions into ``window_s``-wide metric windows.

    Pass one to ``simulate(..., recorder=...)`` / ``simulate_fleet`` on
    its own, or alongside a ``SpanRecorder`` via
    :class:`~repro.obs.recorder.TeeRecorder` when the raw spans are
    wanted too.  The loops call :meth:`finalize_run` with the makespan
    once the last event lands; after that (or after an explicit
    :meth:`finalize`) the windows are frozen and :meth:`to_rows`,
    :meth:`to_csv` and :meth:`to_registry` answer from them.

    ``slo`` enables the goodput/``slo_met`` columns (judged per
    completion from its TTFT/TPOT/e2e, the same thresholds
    ``SLOSpec.met_by`` applies).  ``rules`` is a sequence of
    :class:`~repro.obs.alerts.AlertRule` evaluated at finalize.
    ``num_devices`` overrides the utilization denominator (it defaults
    to the number of distinct occupancy tracks seen, so a fleet device
    that never worked would otherwise not be counted).
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
        self._windows: Dict[int, _Window] = {}
        self._pending: Dict[object, float] = {}  # request_id -> arrival_s
        self._queue_events: List[Tuple[float, int]] = []
        self._device_tracks: Dict[str, None] = {}
        self._saw_memory = False
        self._saw_faults = False
        self._t_max = 0.0
        self._rows: Optional[List[dict]] = None

    # -- folding (the Recorder protocol) -------------------------------------
    def _window(self, ts_s: float) -> _Window:
        index = int(ts_s / self.window_s)
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = _Window()
        return window

    def span(
        self,
        track: str,
        name: str,
        start_s: float,
        end_s: float,
        args: Optional[dict] = None,
    ) -> None:
        if self._rows is not None:
            raise ValueError("this TimelineCollector is finalized; use a fresh one")
        if end_s > self._t_max:
            self._t_max = end_s
        if track == _PHASE_TRACK:
            if name == QUEUE:
                # Arrivals are windowed by when the request *arrived*;
                # the span endpoints drive the exact queue-depth sweep.
                self._window(start_s).arrivals += 1
                if args is not None:
                    self._pending[args.get("request_id")] = start_s
                self._queue_events.append((start_s, 1))
                self._queue_events.append((end_s, -1))
            elif name == DECODE:
                window = self._window(end_s)
                window.completions += 1
                arrival = None
                gen_tokens = None
                if args is not None:
                    arrival = self._pending.pop(args.get("request_id"), None)
                    gen_tokens = args.get("gen_tokens")
                ttft = tpot = e2e = None
                if arrival is not None:
                    ttft = start_s - arrival
                    e2e = end_s - arrival
                    window.ttfts.append(ttft)
                    window.e2es.append(e2e)
                if gen_tokens:
                    tpot = (end_s - start_s) / gen_tokens
                    window.tpots.append(tpot)
                slo = self.slo
                if slo is not None and e2e is not None:
                    met = not (
                        (slo.ttft_s is not None and ttft > slo.ttft_s)
                        or (
                            slo.tpot_s is not None
                            and tpot is not None
                            and tpot > slo.tpot_s
                        )
                        or (slo.e2e_s is not None and e2e > slo.e2e_s)
                    )
                    if met:
                        window.slo_met += 1
            # PREFILL phase spans carry no window metric of their own
            # (critical-path attribution reads them from a SpanRecorder).
            return
        # Any other span is a device occupancy: distribute its duration
        # over the windows it overlaps and count the track as a device.
        self._device_tracks.setdefault(track, None)
        if end_s <= start_s:
            return
        width = self.window_s
        for index in range(int(start_s / width), int(end_s / width) + 1):
            low = index * width
            overlap = min(end_s, low + width) - max(start_s, low)
            if overlap > 0:
                self._window(low).busy_s += overlap

    def instant(
        self, track: str, name: str, ts_s: float, args: Optional[dict] = None
    ) -> None:
        if self._rows is not None:
            raise ValueError("this TimelineCollector is finalized; use a fresh one")
        if ts_s > self._t_max:
            self._t_max = ts_s
        if track == "faults":
            # The fault engine's lifecycle instants: every one counts
            # toward fault_events, outcome-bearing names also increment
            # their dedicated column.
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
        elif name == "dram":
            self._saw_memory = True
            window = self._window(ts_s)
            used = args.get("used_bytes", 0)
            if window.dram_peak is None or used > window.dram_peak:
                window.dram_peak = used
            # A decode run's instant arrives once the run ends, after
            # instants stamped later: keep each track's latest level.
            last = window.dram_last.get(track)
            if last is None or ts_s >= last[0]:
                window.dram_last[track] = (ts_s, used)

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
        count = max(self._windows, default=0) + 1
        if makespan_s > 0:
            count = max(count, int(makespan_s / width) + 1)
        areas, maxes = self._sweep_queue_depth(count, makespan_s)
        devices = self.num_devices
        if devices is None:
            devices = len(self._device_tracks) or 1
        slo = self.slo
        rows: List[dict] = []
        #: Memory track -> the level it carries into the next window.
        dram_levels: Dict[str, int] = {}
        for index in range(count):
            window = self._windows.get(index)
            start = index * width
            arrivals = window.arrivals if window is not None else 0
            completions = window.completions if window is not None else 0
            busy = window.busy_s if window is not None else 0.0
            met = window.slo_met if window is not None else 0
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
                "queue_depth_mean": areas[index] / width,
                "queue_depth_max": maxes[index],
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
                    for track, (_, used) in window.dram_last.items():
                        dram_levels[track] = used
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

    def _sweep_queue_depth(
        self, count: int, makespan_s: float
    ) -> Tuple[List[float], List[int]]:
        """Exact per-window time-weighted area and max of the queue depth.

        One chronological sweep over the QUEUE-span endpoints; at equal
        timestamps the ``-1`` deltas sort first, so a request leaving the
        queue exactly as another joins never inflates the max.
        """
        width = self.window_s
        areas = [0.0] * count
        maxes = [0] * count
        last = count - 1
        depth = 0
        prev = 0.0

        def spread(until: float) -> None:
            nonlocal prev
            if until > prev and depth > 0:
                for index in range(int(prev / width), min(int(until / width), last) + 1):
                    low = index * width
                    overlap = min(until, low + width) - max(prev, low)
                    if overlap > 0:
                        areas[index] += depth * overlap
                        if depth > maxes[index]:
                            maxes[index] = depth
            prev = until if until > prev else prev

        for ts, delta in sorted(self._queue_events):
            spread(ts)
            depth += delta
            index = min(int(ts / width), last)
            if depth > maxes[index]:
                maxes[index] = depth
        if makespan_s > prev:
            spread(makespan_s)
        return areas, maxes

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
