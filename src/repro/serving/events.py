"""The heap-driven event core of the simulator's event loop.

The event loop (:mod:`repro.fleet.simulator`, which
:func:`repro.serving.simulator.simulate` runs over a single device)
advances a virtual clock over device-occupancy completions and request
arrivals, followed by the planning opportunities they create; runs with
fault handling armed (:mod:`repro.faults.engine`) add per-device fault
transitions (crash/recover/slowdown).  The :class:`EventQueue` is the
priority queue the loop pops from: a ``heapq`` of ``(time, kind, index,
seq)`` entries, so finding the next event costs O(log n) pushes/pops
instead of an O(devices) scan per iteration.  Arrivals stay outside the
heap (workload generators emit them already sorted; the loop merges the
stream head against the heap's head), so in practice the heap holds the
in-flight occupancy completions — at most one per busy device — plus, on
fault-injected runs, at most one upcoming fault transition per device.

The event-ordering contract
---------------------------

Determinism — byte-identical trace CSVs under a fixed seed, coalesced or
not — rests on a total order over simultaneous events, which the entry
tuples encode:

1. ``time``: virtual seconds; earlier events first.
2. ``kind``: at equal times, :data:`COMPLETION` (0) sorts before
   :data:`FAULT` (1) sorts before :data:`ARRIVAL` (2) sorts before
   :data:`PLANNING` (3).  Completions due *now* are stamped before a
   simultaneous fault transition applies (an occupancy ending at the
   crash instant still counts — its tokens were produced), faults apply
   before new arrivals are routed (an arrival at the crash instant
   already sees the device down, so health-aware routing steers around
   it), and arrivals are delivered before idle devices plan.
3. ``index``: at equal (time, kind), the smaller device index wins —
   the loop's "device order is the tie-break" rule.
4. ``seq``: a monotonic push counter, making the sort total (and stable
   for repeated pushes of the same (time, kind, index)) without ever
   comparing payloads.

Consumers must preserve the contract when batching: popping everything
due at one instant via :meth:`pop_due` yields the entries already in this
order, and planning passes run over the touched-device set in ascending
index order.  A fault transition scheduled while the faults due at an
instant apply joins the heap only after they all have, so one due at
that same instant waits for the next loop pass.  Client retries re-enter through the *arrival* stage (a
retry heap merged against the workload stream, source arrivals first at
equal timestamps), so a retry landing on an existing event time slots
into the same total order as any other arrival.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

#: Event kinds, in tie-break order (see the module docstring).
COMPLETION = 0
FAULT = 1
ARRIVAL = 2
PLANNING = 3

#: One scheduled event: (time, kind, index, seq).
Event = Tuple[float, int, int, int]


class EventQueue:
    """A deterministic min-heap of simulation events.

    ``push`` and ``pop`` are O(log n); ``peek_time`` is O(1).  The queue
    never compares payload objects — ordering is fully decided by the
    ``(time, kind, index, seq)`` tuple — so any event mix is totally
    ordered and a run replays identically however the heap internally
    arranges equal-priority siblings.
    """

    __slots__ = ("_heap", "_seq", "_pops", "_max_depth")

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        self._pops = 0
        self._max_depth = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, kind: int = COMPLETION, index: int = 0) -> None:
        """Schedule an event at ``time`` (device/stream ``index``)."""
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, (time, kind, index, self._seq))
        if len(heap) > self._max_depth:
            self._max_depth = len(heap)

    def peek_time(self) -> Optional[float]:
        """Time of the next event, or None when the queue is empty."""
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Event:
        """Remove and return the next event (raises IndexError when empty)."""
        self._pops += 1
        return heapq.heappop(self._heap)

    def pop_due(self, now: float) -> List[Event]:
        """All events with ``time <= now``, in the contract's order."""
        due: List[Event] = []
        heap = self._heap
        while heap and heap[0][0] <= now:
            due.append(heapq.heappop(heap))
        self._pops += len(due)
        return due

    # -- debug counters ------------------------------------------------------
    # The heap's lifetime totals are pure functions of the event sequence,
    # so they are deterministic and safe to surface on reports.  The event
    # loop, which drives the heap through hoisted locals, maintains the
    # same counters locally and writes them back here before reporting.
    @property
    def pushes(self) -> int:
        """Events ever scheduled (the push counter doubles as the seq)."""
        return self._seq

    @property
    def pops(self) -> int:
        """Events ever removed (``pop`` and ``pop_due`` combined)."""
        return self._pops

    @property
    def max_depth(self) -> int:
        """Largest number of events simultaneously in the heap."""
        return self._max_depth

    def stats(self) -> Dict[str, int]:
        """``{"pushes", "pops", "max_depth"}`` for report debug metrics."""
        return {
            "pushes": self._seq,
            "pops": self._pops,
            "max_depth": self._max_depth,
        }
