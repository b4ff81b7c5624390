"""Critical-path attribution over a recorded span stream.

:func:`critical_path` walks a :class:`~repro.obs.recorder.SpanRecorder`'s
events and answers *where the time actually went*:

* per request — the QUEUE/PREFILL/DECODE phase durations and each
  phase's share of that request's end-to-end time,
* in aggregate and at the tail — total seconds per phase, plus the
  breakdown of the p50/p95/p99 request by e2e ("the p99 request spent
  61% of its life queueing"),
* device-level memory I/O — spill and refill seconds/bytes from the
  memory model's instants (this time is *inside* the PREFILL/DECODE
  spans that paid it, so it reads as "of which: flash I/O"),
* per device — the makespan-critical chain of occupancies: walking back
  from each device track's last occupancy while spans stay back-to-back
  (exact float equality, which the event loops guarantee because a
  chained occupancy starts on the previous one's popped end time).  The
  device whose chain ends last is the makespan-critical one.

Everything is a pure function of the recorded events, so the report and
its tables are as deterministic as the trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.recorder import DECODE, PREFILL, QUEUE, SpanRecorder, track_order

#: The track the event loop emits request phase spans on.
_PHASE_TRACK = "requests"


class RequestAttribution:
    """One request's time budget, split across its phases."""

    __slots__ = (
        "request_id",
        "device",
        "queue_s",
        "prefill_s",
        "decode_s",
        "arrival_s",
        "finish_s",
    )

    def __init__(self, request_id, device=None) -> None:
        self.request_id = request_id
        self.device = device
        self.queue_s = 0.0
        self.prefill_s = 0.0
        self.decode_s = 0.0
        self.arrival_s: Optional[float] = None
        self.finish_s: Optional[float] = None

    @property
    def e2e_s(self) -> float:
        return self.queue_s + self.prefill_s + self.decode_s

    def _share(self, seconds: float) -> float:
        total = self.e2e_s
        return seconds / total if total > 0 else 0.0

    @property
    def queue_share(self) -> float:
        """Fraction of this request's e2e spent waiting to start."""
        return self._share(self.queue_s)

    @property
    def prefill_share(self) -> float:
        return self._share(self.prefill_s)

    @property
    def decode_share(self) -> float:
        return self._share(self.decode_s)

    def __repr__(self) -> str:
        return (
            f"RequestAttribution(request_id={self.request_id!r}, "
            f"queue_s={self.queue_s:.3f}, prefill_s={self.prefill_s:.3f}, "
            f"decode_s={self.decode_s:.3f})"
        )


class OccupancyChain:
    """The back-to-back run of occupancies ending a device's timeline."""

    __slots__ = ("track", "spans", "start_s", "end_s")

    def __init__(self, track: str, spans: int, start_s: float, end_s: float) -> None:
        self.track = track
        self.spans = spans
        self.start_s = start_s
        self.end_s = end_s

    @property
    def seconds(self) -> float:
        return self.end_s - self.start_s

    def __repr__(self) -> str:
        return (
            f"OccupancyChain({self.track!r}, spans={self.spans}, "
            f"[{self.start_s:.3f}, {self.end_s:.3f}])"
        )


class CriticalPathReport:
    """What :func:`critical_path` derived from one recorded run."""

    __slots__ = (
        "requests",
        "spill_s",
        "refill_s",
        "spill_bytes",
        "refill_bytes",
        "chains",
    )

    def __init__(
        self,
        requests: List[RequestAttribution],
        spill_s: float,
        refill_s: float,
        spill_bytes: int,
        refill_bytes: int,
        chains: List[OccupancyChain],
    ) -> None:
        self.requests = requests
        self.spill_s = spill_s
        self.refill_s = refill_s
        self.spill_bytes = spill_bytes
        self.refill_bytes = refill_bytes
        self.chains = chains

    # -- aggregates -----------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Total seconds per phase across all recorded requests."""
        queue = prefill = decode = 0.0
        for request in self.requests:
            queue += request.queue_s
            prefill += request.prefill_s
            decode += request.decode_s
        return {
            "queue": queue,
            "prefill": prefill,
            "decode": decode,
            "e2e": queue + prefill + decode,
        }

    def tail(self, q: float) -> Optional[RequestAttribution]:
        """The nearest-rank q-th percentile request by e2e (None if empty).

        Percentile arithmetic over latencies interpolates between values;
        a *breakdown* belongs to one concrete request, so this picks the
        request at the nearest rank (ties broken by request id).
        """
        if not self.requests:
            return None
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be between 0 and 100")
        ordered = sorted(self.requests, key=lambda r: (r.e2e_s, str(r.request_id)))
        rank = max(1, -(-int(q * len(ordered)) // 100))  # ceil(q*n/100), >= 1
        return ordered[min(rank, len(ordered)) - 1]

    @property
    def makespan_chain(self) -> Optional[OccupancyChain]:
        """The chain ending last — the occupancies the makespan sits on."""
        best = None
        for chain in self.chains:
            if best is None or chain.end_s > best.end_s:
                best = chain
        return best

    # -- tables ---------------------------------------------------------------
    def attribution_rows(self) -> Tuple[List[str], List[List[object]]]:
        """(headers, rows) for :func:`repro.reporting.print_table`.

        Aggregate phase totals with their share of summed e2e, the
        device-level flash I/O inside those phases, then the
        p50/p95/p99 request's queue/prefill/decode split.
        """
        totals = self.totals()
        e2e = totals["e2e"]

        def share(seconds: float) -> str:
            return f"{100.0 * seconds / e2e:.1f}" if e2e > 0 else "-"

        rows: List[List[object]] = [
            ["queue (aggregate)", f"{totals['queue']:.3f}", share(totals["queue"])],
            [
                "prefill (aggregate)",
                f"{totals['prefill']:.3f}",
                share(totals["prefill"]),
            ],
            ["decode (aggregate)", f"{totals['decode']:.3f}", share(totals["decode"])],
        ]
        if self.spill_s or self.refill_s:
            rows.append(
                ["of which: spill write", f"{self.spill_s:.3f}", share(self.spill_s)]
            )
            rows.append(
                [
                    "of which: refill/read-through",
                    f"{self.refill_s:.3f}",
                    share(self.refill_s),
                ]
            )
        for q in (50, 95, 99):
            request = self.tail(q)
            if request is None:
                continue
            rows.append(
                [
                    f"p{q} request (q/p/d % of e2e)",
                    f"{request.e2e_s:.3f}",
                    f"{100 * request.queue_share:.0f}/"
                    f"{100 * request.prefill_share:.0f}/"
                    f"{100 * request.decode_share:.0f}",
                ]
            )
        return ["component", "seconds", "share (%)"], rows

    def chain_rows(self) -> Tuple[List[str], List[List[object]]]:
        """(headers, rows): each device's ending occupancy chain."""
        critical = self.makespan_chain
        rows = [
            [
                chain.track + (" *" if chain is critical else ""),
                chain.spans,
                f"{chain.start_s:.3f}",
                f"{chain.end_s:.3f}",
                f"{chain.seconds:.3f}",
            ]
            for chain in self.chains
        ]
        return ["device (* = makespan)", "chained spans", "from (s)", "to (s)", "busy (s)"], rows


def critical_path(recorder: SpanRecorder) -> CriticalPathReport:
    """Attribute a recorded run's time: phases, flash I/O, device chains.

    ``recorder`` is a :class:`SpanRecorder` that observed one simulation
    (serve or fleet).  Requests appear in emission order — completion
    order, which is deterministic — and occupancy chains are derived per
    device track, in device order (``device2`` before ``device10``).
    """
    requests: Dict[object, RequestAttribution] = {}
    order: List[RequestAttribution] = []
    occupancies: Dict[str, List[Tuple[float, float]]] = {}
    spill_s = refill_s = 0.0
    spill_bytes = refill_bytes = 0
    for kind, track, name, start_s, dur_s, args in recorder.events:
        if kind == "X":
            if track == _PHASE_TRACK:
                request_id = args.get("request_id") if args else None
                attribution = requests.get(request_id)
                if attribution is None:
                    attribution = requests[request_id] = RequestAttribution(
                        request_id, args.get("device") if args else None
                    )
                    order.append(attribution)
                if name == QUEUE:
                    attribution.queue_s += dur_s
                    attribution.arrival_s = start_s
                elif name == PREFILL:
                    attribution.prefill_s += dur_s
                elif name == DECODE:
                    attribution.decode_s += dur_s
                    attribution.finish_s = start_s + dur_s
            else:
                occupancies.setdefault(track, []).append(
                    (start_s, start_s + dur_s)
                )
        elif kind == "i" and args is not None:
            if name == "spill":
                spill_s += args.get("seconds", 0.0)
                spill_bytes += args.get("bytes", 0)
            elif name == "refill":
                refill_s += args.get("seconds", 0.0)
                refill_bytes += args.get("bytes", 0)
    chains: List[OccupancyChain] = []
    for track in sorted(occupancies, key=track_order):
        spans = occupancies[track]
        # Spans on one track are emitted in chronological order; walk
        # back from the last one while each span starts exactly where
        # the previous ended (the loops reuse the popped completion time
        # as the next start, so contiguity is exact float equality).
        index = len(spans) - 1
        end = spans[index][1]
        start = spans[index][0]
        count = 1
        while index > 0 and spans[index - 1][1] == start:
            index -= 1
            start = spans[index][0]
            count += 1
        chains.append(OccupancyChain(track, count, start, end))
    return CriticalPathReport(
        order, spill_s, refill_s, spill_bytes, refill_bytes, chains
    )
