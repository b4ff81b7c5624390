"""The structured tracer: spans and instants on the simulated clock.

A :class:`Recorder` receives what the event loops, schedulers, routers
and the KV memory model *decide* — request phases as spans, verdicts as
instant events — all timestamped in **simulated seconds**, never wall
clock.  That keeps recording deterministic: the same seed emits the same
event stream byte for byte, and attaching a recorder never perturbs the
simulation itself (every emission is a read-only observation).

Two implementations ship:

* :class:`NullRecorder` — the disabled default.  ``enabled`` is False,
  so the loops skip every emission site entirely; a ``recorder=None``
  (or NullRecorder) run pays nothing and stays byte-identical to the
  hash-pinned golden traces.
* :class:`SpanRecorder` — appends every event to an in-memory list and
  exports Chrome/Perfetto trace-event JSON (:meth:`SpanRecorder.to_perfetto`)
  that ``chrome://tracing`` and https://ui.perfetto.dev load directly.

Tracks
------

Every event names a *track* (a string): the loops use ``"device"`` /
``"device3"`` for occupancy spans, ``"requests"`` for per-request phase
spans, ``"router"`` for routing decisions and ``"memory"`` /
``"memory3"`` for the flash-backed KV model.  The Perfetto export maps
tracks to thread ids in :func:`track_order` (``device2`` before
``device10``), whatever order they emit in, and labels them with
``thread_name`` metadata events.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

#: Request-phase span names (the per-request timeline vocabulary).
QUEUE = "QUEUE"
PREFILL = "PREFILL"
DECODE = "DECODE"
REFILL = "REFILL"


class Recorder:
    """Base protocol: all emissions are no-ops.

    ``enabled`` gates every emission site in the event loops: a recorder
    that reports False is never handed into the hot paths at all, so the
    disabled configuration costs literally zero per-event work.
    """

    enabled = False

    def span(
        self,
        track: str,
        name: str,
        start_s: float,
        end_s: float,
        args: Optional[dict] = None,
    ) -> None:
        """A closed interval ``[start_s, end_s]`` on ``track``."""

    def instant(
        self, track: str, name: str, ts_s: float, args: Optional[dict] = None
    ) -> None:
        """A point event at ``ts_s`` on ``track``."""

    def finalize_run(self, makespan_s: float):
        """Called by the event loops once, after the last event.

        Observers that accumulate time-resolved state (the
        :class:`~repro.obs.timeline.TimelineCollector`) close their
        windows here and may return a payload the loop surfaces on its
        report (an :class:`~repro.obs.alerts.AlertLog`).  The base
        recorder — and :class:`SpanRecorder` — has nothing to finalize
        and returns None.
        """
        return None


class NullRecorder(Recorder):
    """The zero-overhead default: records nothing, enables nothing."""

    __slots__ = ()


class TeeRecorder(Recorder):
    """Fans every emission out to several recorders.

    Compose a :class:`SpanRecorder` (raw spans, Perfetto export,
    critical-path input) with a
    :class:`~repro.obs.timeline.TimelineCollector` (windowed series,
    alerts) on one ``recorder=`` seam.  The event loops split a tee once
    per run (:func:`repro.obs.timeline.split_observers`): its span
    recorders receive every span and instant, its timelines the loops'
    folds, and the tee itself the memory model's and the fault engine's
    instants, which reach every child.  Disabled children are dropped at
    construction; a tee with no enabled children reports ``enabled``
    False and costs the loops nothing.  :meth:`finalize_run` forwards to
    every child and returns the first non-None payload (child order).
    """

    __slots__ = ("recorders", "enabled")

    def __init__(self, *recorders: Optional[Recorder]) -> None:
        self.recorders = tuple(
            recorder
            for recorder in recorders
            if recorder is not None and recorder.enabled
        )
        self.enabled = bool(self.recorders)

    def span(
        self,
        track: str,
        name: str,
        start_s: float,
        end_s: float,
        args: Optional[dict] = None,
    ) -> None:
        for recorder in self.recorders:
            recorder.span(track, name, start_s, end_s, args)

    def instant(
        self, track: str, name: str, ts_s: float, args: Optional[dict] = None
    ) -> None:
        for recorder in self.recorders:
            recorder.instant(track, name, ts_s, args)

    def finalize_run(self, makespan_s: float):
        result = None
        for recorder in self.recorders:
            payload = recorder.finalize_run(makespan_s)
            if result is None:
                result = payload
        return result


#: Internal event tuples: ("X", track, name, start_s, dur_s, args) for
#: spans and ("i", track, name, ts_s, None, args) for instants.
_Event = Tuple[str, str, str, float, Optional[float], Optional[dict]]


class SpanRecorder(Recorder):
    """Collects spans and instants; exports Perfetto/Chrome trace JSON.

    Events are stored in emission order, which the single-threaded event
    loops make deterministic under a fixed seed; :meth:`to_perfetto`
    serializes with sorted keys and fixed separators, so the exported
    JSON is byte-stable across runs and machines.
    """

    enabled = True

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[_Event] = []

    def __len__(self) -> int:
        return len(self.events)

    def span(
        self,
        track: str,
        name: str,
        start_s: float,
        end_s: float,
        args: Optional[dict] = None,
    ) -> None:
        self.events.append(("X", track, name, start_s, end_s - start_s, args))

    def instant(
        self, track: str, name: str, ts_s: float, args: Optional[dict] = None
    ) -> None:
        self.events.append(("i", track, name, ts_s, None, args))

    # -- queries -------------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[_Event]:
        """Span events, optionally filtered by name."""
        return [
            event
            for event in self.events
            if event[0] == "X" and (name is None or event[2] == name)
        ]

    def instants(self, name: Optional[str] = None) -> List[_Event]:
        """Instant events, optionally filtered by name."""
        return [
            event
            for event in self.events
            if event[0] == "i" and (name is None or event[2] == name)
        ]

    def tracks(self) -> List[str]:
        """Distinct track names in first-appearance order."""
        seen: Dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event[1], None)
        return list(seen)

    def top_spans(self, n: int = 10) -> List[Tuple[str, float, int]]:
        """``(name, total seconds, count)`` of the heaviest span names.

        Ranked by total duration descending; ties break by each name's
        *first occurrence* — its track, then its start time, then the
        name itself — so the ranking is fully deterministic even when
        two span names happen to cost exactly the same simulated time.
        """
        totals: Dict[str, List[object]] = {}
        for kind, track, name, start, duration, _args in self.events:
            if kind != "X":
                continue
            bucket = totals.get(name)
            if bucket is None:
                totals[name] = [duration, 1, track, start]
            else:
                bucket[0] += duration
                bucket[1] += 1
        ranked = sorted(
            totals.items(),
            key=lambda item: (-item[1][0], item[1][2], item[1][3], item[0]),
        )
        return [
            (name, total, int(count))
            for name, (total, count, _track, _start) in ranked[:n]
        ]

    # -- export --------------------------------------------------------------
    def to_perfetto(self, path: Optional[str] = None) -> str:
        """The trace as Chrome trace-event JSON (Perfetto-loadable).

        Simulated seconds map to trace microseconds (``ts = 1e6 * s``);
        tracks become threads of one process, named via ``thread_name``
        metadata and numbered in :func:`track_order`, whatever order they
        emit in.  Serialization uses sorted keys and compact separators,
        so the same event stream always renders the same bytes.
        """
        tids: Dict[str, int] = {}
        trace_events: List[dict] = []
        for track in sorted(self.tracks(), key=track_order):
            tid = tids[track] = len(tids)
            trace_events.append(
                {
                    "args": {"name": track},
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                }
            )
        for kind, track, name, ts_s, dur_s, args in self.events:
            event = {
                "args": args if args is not None else {},
                "name": name,
                "ph": kind,
                "pid": 0,
                "tid": tids[track],
                "ts": 1e6 * ts_s,
            }
            if kind == "X":
                event["dur"] = 1e6 * dur_s
            else:
                event["s"] = "t"
            trace_events.append(event)
        text = json.dumps(
            {"displayTimeUnit": "ms", "traceEvents": trace_events},
            sort_keys=True,
            separators=(",", ":"),
        )
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
                handle.write("\n")
        return text


def track_order(track: str) -> Tuple[str, int, str]:
    """Sort key for track names: the name, then its numeric suffix
    (``device2`` before ``device10``), then the name as written."""
    name = track.rstrip("0123456789")
    return name, int(track[len(name):] or -1), track


def record_request_phases(
    recorder: Recorder, track: str, record, extra: Optional[dict] = None
) -> None:
    """Emit the QUEUE/PREFILL/DECODE spans one finished record defines.

    Guards every stamp: a partially-stamped record (from an early-exited
    run) contributes only the phases it actually entered, mirroring how
    the trace CSV leaves its cells blank.  Records that expose their
    payload (``record.request``) also stamp ``gen_tokens`` into the span
    args, so a trace viewer can read per-token decode latencies off the
    DECODE span.
    """
    args = {"request_id": record.request_id}
    source = getattr(record, "request", None)
    if source is not None:
        args["gen_tokens"] = source.gen_tokens
    if extra:
        args.update(extra)
    arrival = record.arrival_s
    prefill_start = record.prefill_start_s
    first_token = record.first_token_s
    finish = record.finish_s
    if prefill_start is not None:
        recorder.span(track, QUEUE, arrival, prefill_start, args)
        if first_token is not None:
            recorder.span(track, PREFILL, prefill_start, first_token, args)
            if finish is not None:
                recorder.span(track, DECODE, first_token, finish, args)
