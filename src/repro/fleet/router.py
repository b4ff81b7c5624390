"""Routing policies: which device an arriving request is sent to.

A :class:`Router` sees every arrival once, at its arrival time, together
with the live device states, and returns the index of the device that will
own the request for its whole lifetime (there is no cross-device work
stealing — migrating a half-decoded sequence would mean moving its KV
cache).  All policies are deterministic: decisions are pure functions of
the visible state with ties broken by device index, which is what keeps a
seeded fleet trace byte-identical.

Six policies are built in:

* :class:`RoundRobinRouter` — cycle through devices regardless of state;
  the stateless baseline.
* :class:`JoinShortestQueueRouter` — fewest outstanding (assigned but
  unfinished) requests; the classic JSQ policy, near-optimal for
  homogeneous replicas.
* :class:`LeastWorkRouter` — least outstanding *work* in estimated solo
  seconds, so one long request counts for what it costs, not 1.
* :class:`SLOAwareRouter` — smallest estimated completion of *this*
  request: outstanding work plus the request's own solo runtime on that
  device.  On a heterogeneous fleet this is the policy that knows a slow
  device is slow, sending work there only when the fast queues are long
  enough to make it worthwhile.
* :class:`MemoryHeadroomRouter` — most free KV DRAM
  (:class:`repro.memory` models attached to the device schedulers),
  falling back to shortest queue on ties or when no replica models
  memory.  The policy that keeps one replica from spilling to flash
  while its siblings sit on cold DRAM.
* :class:`FailoverRouter` — health-first JSQ for fault-injected runs
  (:mod:`repro.faults`): healthy replicas before slowed ones before
  crashed ones, shortest queue within a rank.  Crashed replicas are
  ejected the instant the fault applies and re-admitted on recovery,
  because health is read live from ``Device.up`` / ``Device.gate``.

Every policy additionally accepts ``exclude_unhealthy=True``, a guard
that steers arrivals away from crashed (``Device.up`` is False)
replicas while keeping the policy's own score for the healthy ones.
When *every* replica is down the guard degrades to the unguarded
policy — the arrival queues on a crashed device and waits out the
recovery — rather than refusing to route.  On fault-free runs every
device is permanently up, so the guard never changes a decision.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from repro.fleet.device import Device
from repro.serving.request import RequestRecord


class Router:
    """Base policy: subclasses implement :meth:`route`.

    Routers may carry state (round-robin does), so the fleet simulator
    claims each instance for a single run via :attr:`used` — reuse would
    silently break seed-determinism of the device assignment.

    The fleet event loop additionally notifies the router about state
    changes it would otherwise have to rediscover by scanning: ``attach``
    once before the run, ``on_completed`` for every device that finishes
    an occupancy.  Both are no-ops here; a policy may use them to keep an
    incremental index (JSQ keeps a lazy heap, making each routing decision
    O(log devices) instead of O(devices)).  Every fast path must preserve
    the scan's exact semantics — minimum score, ties to the smallest
    device index — because the device assignment is part of the
    byte-identical trace contract.
    """

    name = "router"
    #: Set by the event loop (:mod:`repro.fleet.simulator`) on first use.
    used = False
    #: When True, crashed replicas (``Device.up`` False) are routed
    #: around whenever at least one replica is still up.  Class default
    #: so policies without an ``__init__`` inherit it; instances set it
    #: via the base constructor.
    exclude_unhealthy = False
    #: Whether :meth:`route` reads ``Device.outstanding_work_s``.  The
    #: fleet loop skips per-record work-estimate bookkeeping for policies
    #: that never look at it (two cost-model lookups per request).
    needs_work_estimates = False
    #: Observability hook (:class:`repro.obs.Recorder`), attached by the
    #: fleet loop.  Policies emit one "route" instant per decision with
    #: the per-candidate scores they compared; emissions are read-only,
    #: so an attached recorder never changes an assignment.
    recorder = None
    #: Recorder track routing instants land on.
    track = "router"

    def __init__(self, exclude_unhealthy: bool = False) -> None:
        self.exclude_unhealthy = exclude_unhealthy

    def _record_route(
        self, record: RequestRecord, now: float, index: int, scores
    ) -> None:
        """Emit one routing decision (callers guard on ``recorder``)."""
        self.recorder.instant(
            self.track,
            "route",
            now,
            {
                "request_id": record.request_id,
                "device": index,
                "scores": scores,
            },
        )

    def route(
        self, record: RequestRecord, devices: Sequence[Device], now: float
    ) -> int:
        """Index of the device that should own ``record``."""
        raise NotImplementedError

    def attach(self, devices: Sequence[Device]) -> None:
        """Called once by the fleet loop before the first arrival routes."""

    def on_completed(self, index: int, device: Device) -> None:
        """Called by the fleet loop after ``device`` stamped completions."""

    @staticmethod
    def _argmin(scores: Sequence[float]) -> int:
        """First index of the minimum — the deterministic tie-break."""
        best = 0
        for index in range(1, len(scores)):
            if scores[index] < scores[best]:
                best = index
        return best

    @staticmethod
    def _guarded(scores: Sequence[object], devices: Sequence[Device]) -> List[object]:
        """Scores prefixed with a down-rank for the ``exclude_unhealthy``
        scan: up replicas outrank down ones, the policy score breaks the
        tie within a rank (tuples compare lexicographically)."""
        return [
            (not device.up, score) for device, score in zip(devices, scores)
        ]


class RoundRobinRouter(Router):
    """Cycle through the devices in index order."""

    name = "round-robin"

    def __init__(self, exclude_unhealthy: bool = False) -> None:
        super().__init__(exclude_unhealthy)
        self._next = 0

    def route(
        self, record: RequestRecord, devices: Sequence[Device], now: float
    ) -> int:
        count = len(devices)
        index = self._next % count
        if self.exclude_unhealthy and not devices[index].up:
            # Keep cycling until an up replica turns up; a full lap with
            # none degrades to the plain rotation.
            for offset in range(1, count):
                candidate = (index + offset) % count
                if devices[candidate].up:
                    index = candidate
                    break
        self._next = index + 1
        if self.recorder is not None:
            self._record_route(record, now, index, None)
        return index


class JoinShortestQueueRouter(Router):
    """Fewest outstanding requests (assigned but not finished).

    When the fleet loop attaches it, routing runs off a lazy-invalidation
    heap of ``(outstanding, index)`` pairs: the loop reports completions
    via :meth:`on_completed`, stale heap entries (whose count no longer
    matches the mirror) are discarded as they surface, and the fresh
    minimum is exactly the scan's answer — same count, same
    smallest-index tie-break — at O(log devices) per decision.  Direct
    :meth:`route` calls without an :meth:`attach` (or with a different
    fleet) fall back to the O(devices) scan.
    """

    name = "jsq"

    def __init__(self, exclude_unhealthy: bool = False) -> None:
        super().__init__(exclude_unhealthy)
        self._counts: Optional[List[int]] = None
        self._heap: Optional[List[Tuple[int, int]]] = None

    def attach(self, devices: Sequence[Device]) -> None:
        self._counts = [device.outstanding for device in devices]
        self._heap = [(count, index) for index, count in enumerate(self._counts)]
        heapq.heapify(self._heap)

    def on_completed(self, index: int, device: Device) -> None:
        counts = self._counts
        if counts is None:
            return
        counts[index] = device.outstanding
        heap = self._heap
        heapq.heappush(heap, (device.outstanding, index))
        if len(heap) > 4 * len(counts) + 64:
            # Compact accumulated stale entries; rebuilding from the
            # mirror is value-identical, so determinism is unaffected.
            heap[:] = [(count, i) for i, count in enumerate(counts)]
            heapq.heapify(heap)

    def route(
        self, record: RequestRecord, devices: Sequence[Device], now: float
    ) -> int:
        counts = self._counts
        if counts is None or len(counts) != len(devices):
            scores = [device.outstanding for device in devices]
            if self.exclude_unhealthy:
                scores = self._guarded(scores, devices)
            index = self._argmin(scores)
            if self.recorder is not None:
                self._record_route(record, now, index, scores)
            return index
        if self.exclude_unhealthy:
            # Health can flip between any two decisions, so the guarded
            # path scans the live mirror instead of trusting the heap —
            # and keeps the mirror/heap coherent for a later unguarded
            # fast path (the chosen replica's count still goes up by 1).
            scores = self._guarded(list(counts), devices)
            index = self._argmin(scores)
            if self.recorder is not None:
                self._record_route(record, now, index, scores)
            counts[index] += 1
            heapq.heappush(self._heap, (counts[index], index))
            return index
        heap = self._heap
        while True:
            count, index = heap[0]
            if count == counts[index]:
                break
            heapq.heappop(heap)
        if self.recorder is not None:
            # The mirror holds every candidate's live count — the scores
            # the scan would have compared — captured before the winner's
            # increment.  The heap itself is untouched by recording.
            self._record_route(record, now, index, list(counts))
        counts[index] = count + 1
        # The chosen entry just went stale; swap it for the fresh count.
        heapq.heapreplace(heap, (count + 1, index))
        return index


class LeastWorkRouter(Router):
    """Least outstanding work, measured in estimated solo seconds.

    Stays on the O(devices) scan: an incremental float index would have
    to *add* work increments, and float addition does not commute with
    the scan's exact comparisons, breaking trace byte-identity.
    """

    name = "least-work"
    needs_work_estimates = True

    def route(
        self, record: RequestRecord, devices: Sequence[Device], now: float
    ) -> int:
        scores = [device.outstanding_work_s for device in devices]
        if self.exclude_unhealthy:
            scores = self._guarded(scores, devices)
        index = self._argmin(scores)
        if self.recorder is not None:
            self._record_route(record, now, index, scores)
        return index


class SLOAwareRouter(Router):
    """Smallest estimated completion time for *this* request.

    Scores each device by its backlog plus the request's own solo runtime
    there, i.e. heterogeneity-aware weighted routing: a device twice as
    fast absorbs twice the load before the policy spills to a slow one.
    """

    name = "slo-aware"
    needs_work_estimates = True

    def route(
        self, record: RequestRecord, devices: Sequence[Device], now: float
    ) -> int:
        scores = [
            device.outstanding_work_s + device.job_seconds(record)
            for device in devices
        ]
        if self.exclude_unhealthy:
            scores = self._guarded(scores, devices)
        index = self._argmin(scores)
        if self.recorder is not None:
            self._record_route(record, now, index, scores)
        return index


class MemoryHeadroomRouter(Router):
    """Most free KV DRAM, then fewest outstanding requests.

    Reads each replica's :class:`repro.memory.KVMemoryModel` through its
    scheduler's ``free_dram_bytes(now)``; replicas without a memory model
    score 0 headroom, so a memory-less fleet degrades to exact JSQ
    behaviour (every headroom ties, the queue count decides).  Like
    every policy, ties break to the smallest device index: one scan keeps
    the first minimum of ``(-headroom, outstanding)``, down-ranked by
    ``not up`` under ``exclude_unhealthy``, and builds the scores list
    only for a recorder.

    Residency is read as of ``now``: a coalesced decode run counts the
    steps the step-by-step loop has planned by then, not the whole run,
    so coalesced and ``max_steps=1`` fleets route alike.
    """

    name = "headroom"

    def route(
        self, record: RequestRecord, devices: Sequence[Device], now: float
    ) -> int:
        guard = self.exclude_unhealthy
        scores = [] if self.recorder is not None else None
        best = -1
        for index, device in enumerate(devices):
            down = guard and not device.up
            free = device.scheduler.free_dram_bytes(now)
            outstanding = device.outstanding
            if scores is not None:
                scores.append((-free, outstanding))
            # (down, -free, outstanding) < the best key so far, spelled
            # out so the scan builds no tuple.
            if best < 0 or down < best_down or down == best_down and (
                free > best_free
                or free == best_free and outstanding < best_outstanding
            ):
                best, best_down = index, down
                best_free, best_outstanding = free, outstanding
        if scores is not None:
            if guard:
                scores = self._guarded(scores, devices)
            self._record_route(record, now, best, scores)
        return best


class FailoverRouter(Router):
    """Health-first routing for fault-injected fleets.

    Replicas are ranked by live health — up and full-speed (0), up but
    inside a slowdown window (1), crashed (2) — with shortest queue
    breaking ties inside a rank.  Ejection and re-admission are
    immediate and free: health is read straight off ``Device.up`` and
    the device's attached fault gate at every decision, and the
    event loop applies crash/recover transitions *before*
    same-instant arrivals route (the :mod:`repro.serving.events`
    contract), so an arrival at the crash instant already steers around
    the dead replica.  With every replica down the policy degrades to
    plain JSQ over the crashed set rather than refusing to route.  On a
    fault-free fleet every rank is 0 and the policy *is* scan-JSQ.
    """

    name = "failover"

    def route(
        self, record: RequestRecord, devices: Sequence[Device], now: float
    ) -> int:
        scores = []
        for device in devices:
            if not device.up:
                rank = 2
            else:
                gate = device.gate
                rank = 1 if gate is not None and gate.slow_factor != 1.0 else 0
            scores.append((rank, device.outstanding))
        index = self._argmin(scores)
        if self.recorder is not None:
            self._record_route(record, now, index, scores)
        return index


#: Router factories by CLI/registry name.
ROUTERS = {
    RoundRobinRouter.name: RoundRobinRouter,
    JoinShortestQueueRouter.name: JoinShortestQueueRouter,
    LeastWorkRouter.name: LeastWorkRouter,
    SLOAwareRouter.name: SLOAwareRouter,
    MemoryHeadroomRouter.name: MemoryHeadroomRouter,
    FailoverRouter.name: FailoverRouter,
}


def get_router(name: str, **kwargs) -> Router:
    """Instantiate a router by name (:data:`ROUTERS` keys).

    Keyword arguments (e.g. ``exclude_unhealthy=True``) pass through to
    the policy's constructor.
    """
    key = name.lower()
    if key not in ROUTERS:
        raise KeyError(
            f"unknown router {name!r}; available: {', '.join(sorted(ROUTERS))}"
        )
    return ROUTERS[key](**kwargs)
