"""Fault handling for the simulator's event loop.

The event loop in :mod:`repro.fleet.simulator` (which
:func:`repro.serving.simulate` runs over a single device) arms a
:class:`_FaultRun` when any of ``faults``/``retry``/``deadline_s`` is
given, and calls its handlers at the points where a fault-aware run
differs from a plain one.  With all three unset none of this module
runs.

A fault-aware run adds two event sources to the loop: per-device fault
transitions (crash / recover / slowdown open / slowdown close), drawn
lazily from a :class:`repro.faults.FaultInjector` and scheduled on the
loop's event heap as :data:`repro.serving.events.FAULT` events, and a retry
heap of client retries and hedge timers.  The total event order is the
documented :mod:`repro.serving.events` contract: completions due at an
instant stamp before a simultaneous fault applies (an occupancy ending
at the crash instant still counts), faults apply before arrivals route
(an arrival at the crash instant already sees the device down), and
arrivals are delivered before idle devices plan.  Retries and hedge
timers re-enter through the arrival stage, with source arrivals first
at equal timestamps.

Determinism under coalescing
----------------------------

A fault transition is an *interesting boundary*: each device's scheduler
is handed the time of its next scheduled fault through the attached
:class:`FaultGate`, and a coalesced decode window never extends a step
across it (see :mod:`repro.serving.scheduler`).  The straddling step is
planned as its own single-step occupancy in coalesced and step-by-step
runs alike, and planning only ever happens on idle devices — at instants
both runs share — so crash aborts, slowdown repricing, shedding and
retries land on identical state either way: ``max_steps=1`` and
coalesced fault runs produce byte-identical traces.

Crash semantics
---------------

A crash aborts the in-flight occupancy (the executed head of its busy
time is kept, the unexecuted tail refunded), evicts every batch member
and queued request through ``Scheduler.evict_all`` — releasing any KV
residency a :mod:`repro.memory` model holds, so a re-queued request
pays a fresh re-prefill (and re-spill) wherever it lands — and re-routes
the survivors immediately at the crash instant against the live device
states.  Health-aware policies (``get_router("failover")``, or any
router built with ``exclude_unhealthy=True``) steer them around the
dead replica; recovery re-admits it.  On a single device the survivors
re-queue where they were and wait out the recovery.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.obs.recorder import record_request_phases
from repro.serving.request import RequestRecord

# Kept importable from here: simbench's layer tracer wraps
# ``metric_sample`` by module path, here and in repro.fleet.simulator.
from repro.serving.metrics import metric_sample  # noqa: F401

from repro.faults.report import FaultReport
from repro.faults.spec import (
    CRASH,
    RECOVER,
    SLOW_END,
    SLOW_START,
    FaultInjector,
)

__all__ = ["FaultGate"]

#: Retry-heap actions: a scheduled client retry, and a hedge timer.
_RETRY = 0
_HEDGE = 1

#: Consecutive loop passes driven purely by fault events (no request
#: progress) before the loop declares itself wedged.  Random fault
#: schedules are infinite, so a run that can no longer make progress
#: would otherwise spin through crash/recover cycles forever.
_MAX_IDLE_FAULTS = 10_000


class FaultGate:
    """Per-device fault state shared between the loop and the scheduler.

    One gate is attached per device (``Scheduler.faults`` and
    ``Device.gate``) for the duration of a fault-aware run.  The
    scheduler reads ``slow_factor`` (latency multiplier), ``boundary_s``
    (next scheduled fault transition — the coalescing cap) and
    ``deadline_s`` (the shedding threshold), and reports queue drops
    back through the ``shed``/``drop`` callbacks; the loop flips
    ``down``/``dirty`` as faults and cancellations happen.
    """

    __slots__ = (
        "slow_factor",
        "boundary_s",
        "deadline_s",
        "down",
        "dirty",
        "removed",
        "shed",
        "drop",
    )

    def __init__(self) -> None:
        #: Latency multiplier while a slowdown window is open (1.0 = none).
        self.slow_factor = 1.0
        #: Time of this device's next fault transition (None = no more).
        self.boundary_s: Optional[float] = None
        #: Per-request deadline for load shedding (None = no shedding).
        self.deadline_s: Optional[float] = None
        #: True while the device is crashed.
        self.down = False
        #: Set when a waiting record was cancelled elsewhere (hedge win)
        #: and the queue needs a purge scan at the next planning call.
        self.dirty = False
        #: Queue drops since the last router resync (the loop notifies
        #: the router so incremental indexes stay coherent).
        self.removed = 0
        #: Loop callbacks (bound per device): ``shed(record, now)`` for a
        #: deadline-expired queue member, ``drop(record)`` for a
        #: cancelled one.
        self.shed = None
        self.drop = None


def _stamp_attempt(record: RequestRecord, now: float) -> None:
    """Count one dispatch of ``record`` at simulated time ``now``."""
    record.attempts += 1
    if record.attempt_s is None:
        record.attempt_s = []
    record.attempt_s.append(now)


class _FaultRun:
    """One fault-aware run's state, and the handlers the event loop calls.

    The loop owns the clock, the heap, routing of source arrivals and
    planning; this object owns everything only a fault-aware run has:
    the per-device gates and fault cursors, the retry heap, hedge
    pairings, terminal outcomes, and the :class:`FaultReport`.  It
    shares the loop's ``assignments`` list and ``touched`` set, and
    finishes resolved records through the loop's ``streamer`` or
    per-device ``device_fold`` (with the ``live`` early-exit map).
    """

    def __init__(
        self,
        devices,
        router,
        *,
        faults,
        retry,
        deadline_s: Optional[float],
        slo,
        fail_fast: bool,
        keep_records: bool,
        rec,
        tag_device: bool,
        streamer,
        device_fold,
        live: Optional[dict],
        assignments: List[int],
        touched: set,
    ) -> None:
        self.devices = devices
        self.router = router
        self.retry = retry
        self.deadline_s = deadline_s
        self.slo = slo
        self.fail_fast = fail_fast
        self.keep_records = keep_records
        self.rec = rec
        #: Tag request-phase spans with the device index (fleet reports).
        self.tag_device = tag_device
        self.streamer = streamer
        self.device_fold = device_fold
        self.live = live
        self.assignments = assignments
        self.touched = touched
        self.track_work = router.needs_work_estimates
        self.injector = (
            FaultInjector(faults, len(devices)) if faults is not None else None
        )
        self.report = FaultReport(num_devices=len(devices))
        #: Resolved requests that missed the SLO (the ``fail_fast`` tally).
        self.missed = 0
        #: Primaries delivered but not yet terminally resolved.
        self.open_requests = 0
        #: id(record) -> index into ``assignments`` (overwritten before
        #: every read at delivery time, so id reuse cannot corrupt it).
        self.arrival_pos: dict = {}
        #: id(record) -> device index currently owning the record.
        self.owner: dict = {}
        #: Hedge pairing maps; entries pin both records alive, so the
        #: id keys stay unambiguous for the pairing's lifetime.
        self.hedge_primary: dict = {}
        self.hedge_attempt: dict = {}
        #: Retry/hedge-timer heap of (time, seq, action, record).
        self.retry_heap: list = []
        self.retry_seq = 0
        #: (time, device) fault transitions for the loop to push onto its
        #: heap: each device's first one before the first pass, then each
        #: next one once every fault due at the current instant applied.
        self.rearm: list = []
        #: Consecutive loop passes in which no request moved (the wedge
        #: guard in :meth:`next_time`).
        self.idle_passes = 0
        self.down_since: List[Optional[float]] = [None] * len(devices)
        # Dynamically-scheduled deliveries (flaky retries, crash re-queues)
        # are not in the planning horizon the way source arrivals are, so
        # free-slot coalescing could extend an occupancy past an admission
        # the step-by-step reference would open.  Two caps restore the
        # equivalence: no occupancy extends past the next fault event on
        # ANY device (a crash there can re-queue work onto this one), and
        # with flaky retries armed, none extends more than the minimum
        # possible client backoff past its planning instant (a failure
        # after `now` cannot schedule a retry any sooner than that).
        self._min_retry_delay: Optional[float] = None
        if (
            retry is not None
            and retry.max_attempts > 1
            and faults is not None
            and faults.flaky_prob > 0.0
        ):
            shortest = min(
                retry.multiplier ** attempt
                for attempt in range(retry.max_attempts - 1)
            )
            self._min_retry_delay = (
                retry.backoff_s * shortest * (1.0 - retry.jitter)
            )
        self.gates: List[FaultGate] = []
        self.cursors = []
        for index, device in enumerate(devices):
            gate = FaultGate()
            gate.deadline_s = deadline_s
            gate.shed, gate.drop = self._make_callbacks(index)
            device.gate = gate
            device.scheduler.faults = gate
            self.gates.append(gate)
            cursor = self.injector.cursor(index) if self.injector is not None else None
            self.cursors.append(cursor)
            if cursor is not None and cursor.head_time is not None:
                gate.boundary_s = cursor.head_time
                self.rearm.append((cursor.head_time, index))
        self._fault_head: Optional[float] = None
        self._refresh_fault_head()

    # -- gate callbacks -------------------------------------------------------
    def _make_callbacks(self, index: int):
        """The shed/drop closures a device's scheduler reports through."""
        device = self.devices[index]

        def _forget(record: RequestRecord) -> None:
            device.outstanding -= 1
            if self.track_work:
                device.outstanding_work_s -= device.job_seconds(record)
            self.owner.pop(id(record), None)
            self.gates[index].removed += 1

        def shed(record: RequestRecord, now: float) -> None:
            _forget(record)
            if record.hedge:
                self._drop_hedge(record)
                return
            record.outcome = "shed"
            self.report.shed += 1
            if self.rec is not None:
                self.rec.instant(
                    "faults",
                    "shed",
                    now,
                    {"request_id": record.request_id, "device": index},
                )
            self._finish_terminal(record, index)

        def drop(record: RequestRecord) -> None:
            # A cancelled record: a losing hedge attempt, or a primary
            # already finalized by its hedge — nothing left to emit.
            _forget(record)
            if record.hedge:
                self._drop_hedge(record)

        return shed, drop

    def _drop_hedge(self, attempt: RequestRecord) -> None:
        """Unlink a dead hedge attempt from its pairing maps."""
        primary = self.hedge_primary.pop(id(attempt), None)
        if primary is not None and self.hedge_attempt.get(id(primary)) is attempt:
            del self.hedge_attempt[id(primary)]

    # -- terminal resolution --------------------------------------------------
    def _finish_terminal(self, record: RequestRecord, index: int) -> None:
        """Close out a primary record (success or terminal outcome)."""
        self.open_requests -= 1
        if self.fail_fast and not self.slo.met_by(record):
            self.missed += 1
        if self.streamer is not None:
            self.streamer.finish(record)
        elif self.device_fold is not None:
            self.device_fold[index](record, self.slo)
            if self.live is not None:
                self.live.pop(id(record), None)

    def _record_phases(self, record: RequestRecord, index: int) -> None:
        extra = {"device": index} if self.tag_device else None
        record_request_phases(self.rec, "requests", record, extra)

    def _cancel_sibling_hedge(self, record: RequestRecord) -> None:
        """A primary resolved: cancel its in-flight hedge attempt, if any."""
        sibling = self.hedge_attempt.pop(id(record), None)
        if sibling is None:
            return
        self.hedge_primary.pop(id(sibling), None)
        sibling.cancelled = True
        dev = self.owner.get(id(sibling))
        if dev is not None:
            # Queued: purged at the device's next planning call.  Active:
            # its occupancy runs to an ignored completion (non-preemptive).
            self.gates[dev].dirty = True
            self.touched.add(dev)

    # -- dispatch -------------------------------------------------------------
    def arrived(self, record: RequestRecord, index: int, now: float) -> None:
        """A source arrival the loop just routed to device ``index`` and
        appended to ``assignments``: track it, and arm its hedge timer."""
        _stamp_attempt(record, now)
        self.open_requests += 1
        self.owner[id(record)] = index
        self.arrival_pos[id(record)] = len(self.assignments) - 1
        retry = self.retry
        if retry is not None and retry.hedge_after_s is not None:
            self._push_retry(record.arrival_s + retry.hedge_after_s, _HEDGE, record)

    def _dispatch(self, record: RequestRecord, now: float) -> int:
        """Route a retry, hedge or crash re-queue and enqueue it (the same
        steps the loop inlines for source arrivals)."""
        _stamp_attempt(record, now)
        devices = self.devices
        index = self.router.route(record, devices, now)
        if not 0 <= index < len(devices):
            raise ValueError(
                f"router {self.router.name!r} routed to device {index} "
                f"of a {len(devices)}-device fleet"
            )
        device = devices[index]
        if device.backend_name is None:
            device.backend_name = device.cost.profile(
                record.source.request
            ).backend_name
        if self.keep_records and not record.hedge:
            device.records.append(record)
        device.outstanding += 1
        if self.track_work:
            device.outstanding_work_s += device.job_seconds(record)
        device.scheduler.enqueue(record, now)
        self.owner[id(record)] = index
        self.touched.add(index)
        return index

    def _redispatch(self, record: RequestRecord, now: float) -> None:
        """Dispatch a primary again and move its trace row's device cell."""
        index = self._dispatch(record, now)
        pos = self.arrival_pos.get(id(record))
        if pos is not None:
            self.assignments[pos] = index

    @staticmethod
    def _forget_device_record(device, record: RequestRecord) -> None:
        """Identity-based removal from ``device.records`` (a record that
        left this device mid-flight belongs to the device that resolves
        it; dataclass equality would match the wrong twin)."""
        records = device.records
        for i in range(len(records) - 1, -1, -1):
            if records[i] is record:
                del records[i]
                break

    def _push_retry(self, time_s: float, action: int, record: RequestRecord) -> None:
        self.retry_seq += 1
        heapq.heappush(self.retry_heap, (time_s, self.retry_seq, action, record))

    def deliver(self, now: float) -> bool:
        """Dispatch the retries and hedge timers due by ``now`` (after the
        loop delivered the source arrivals); True if anything moved."""
        retry_heap = self.retry_heap
        moved = False
        while retry_heap and retry_heap[0][0] <= now:
            _, _, action, record = heapq.heappop(retry_heap)
            if action == _RETRY:
                if (
                    record.outcome is None
                    and record.finish_s is None
                    and not record.cancelled
                ):
                    record.retries += 1
                    self.report.retries += 1
                    if self.rec is not None:
                        self.rec.instant(
                            "faults",
                            "retry",
                            now,
                            {
                                "request_id": record.request_id,
                                "attempt": record.attempts + 1,
                            },
                        )
                    self._redispatch(record, now)
                    moved = True
            else:  # _HEDGE timer
                primary = record
                if (
                    primary.outcome is None
                    and primary.finish_s is None
                    and not primary.cancelled
                    and primary.first_token_s is None
                    and id(primary) not in self.hedge_attempt
                ):
                    attempt = RequestRecord(primary.source, hedge=True)
                    self.hedge_primary[id(attempt)] = primary
                    self.hedge_attempt[id(primary)] = attempt
                    self.report.hedges += 1
                    if self.rec is not None:
                        self.rec.instant(
                            "faults",
                            "hedge",
                            now,
                            {"request_id": primary.request_id},
                        )
                    self._dispatch(attempt, now)
                    moved = True
        return moved

    # -- completion handling --------------------------------------------------
    def member_done(
        self, index: int, device, record: RequestRecord, time_s: float
    ) -> None:
        """Resolve one batch member of an occupancy that just ended."""
        device.outstanding -= 1
        if self.track_work:
            device.outstanding_work_s -= device.job_seconds(record)
        self.owner.pop(id(record), None)
        if record.cancelled:
            return  # resolved elsewhere (hedge), run to an ignored end
        if record.hedge:
            self._hedge_done(index, record, time_s)
            return
        if record.finish_s is not None or record.outcome is not None:
            return  # superseded: finalized by a winning hedge
        record.finish_s = time_s
        rec = self.rec
        injector = self.injector
        if injector is not None and injector.attempt_fails(
            record.request_id, record.attempts
        ):
            # Flaky failure: the attempt's output is unusable.
            record.first_token_s = None
            record.finish_s = None
            retry = self.retry
            if retry is not None and record.attempts < retry.max_attempts:
                record.prefill_start_s = None
                delay = retry.delay_s(record.attempts, record.request_id)
                self._push_retry(time_s + delay, _RETRY, record)
                self._forget_device_record(device, record)
                return
            record.outcome = "failed"
            self.report.failed += 1
            if rec is not None:
                rec.instant(
                    "faults",
                    "failed",
                    time_s,
                    {"request_id": record.request_id, "attempts": record.attempts},
                )
            self._cancel_sibling_hedge(record)
            self._finish_terminal(record, index)
            return
        deadline = self.deadline_s
        if deadline is not None and time_s - record.arrival_s > deadline:
            record.outcome = "timed_out"
            self.report.timed_out += 1
            if rec is not None:
                rec.instant(
                    "faults",
                    "timeout",
                    time_s,
                    {"request_id": record.request_id},
                )
        if rec is not None:
            self._record_phases(record, index)
        self._cancel_sibling_hedge(record)
        self._finish_terminal(record, index)

    def _hedge_done(self, index: int, attempt: RequestRecord, time_s: float) -> None:
        """A hedge attempt finished: adopt its stamps if the primary is
        still unresolved (and the attempt itself was not flaky)."""
        primary = self.hedge_primary.pop(id(attempt), None)
        if primary is None:
            return
        if self.hedge_attempt.get(id(primary)) is attempt:
            del self.hedge_attempt[id(primary)]
        attempt.finish_s = time_s
        if primary.finish_s is not None or primary.outcome is not None:
            return
        injector = self.injector
        if injector is not None and injector.attempt_fails(
            primary.request_id, primary.attempts, "hedge"
        ):
            return  # the hedge itself flaked; the primary continues alone
        primary.prefill_start_s = attempt.prefill_start_s
        primary.first_token_s = attempt.first_token_s
        primary.finish_s = time_s
        pos = self.arrival_pos.get(id(primary))
        if pos is not None:
            self.assignments[pos] = index
        prev = self.owner.get(id(primary))
        if prev is not None:
            # The primary's own attempt loses: silently cancel it.
            primary.cancelled = True
            self.gates[prev].dirty = True
            self.touched.add(prev)
            self._forget_device_record(self.devices[prev], primary)
            if self.keep_records:
                self.devices[index].records.append(primary)
        deadline = self.deadline_s
        if deadline is not None and time_s - primary.arrival_s > deadline:
            primary.outcome = "timed_out"
            self.report.timed_out += 1
        else:
            self.report.hedge_wins += 1
        rec = self.rec
        if rec is not None:
            rec.instant(
                "faults",
                "hedge_win",
                time_s,
                {"request_id": primary.request_id, "device": index},
            )
            self._record_phases(primary, index)
        self._finish_terminal(primary, index)

    # -- fault handling -------------------------------------------------------
    def fault(self, index: int, time_s: float) -> bool:
        """Apply the device's next fault transition; True if requests moved.

        The device's following transition lands on :attr:`rearm`, for the
        loop to schedule after every fault due now has applied.
        """
        cursor = self.cursors[index]
        event = cursor.pop()
        gate = self.gates[index]
        device = self.devices[index]
        rec = self.rec
        progressed = False
        action = event.action
        if action == CRASH:
            if not gate.down:
                gate.down = True
                device.up = False
                self.report.crashes += 1
                self.down_since[index] = time_s
                if rec is not None:
                    rec.instant("faults", "crash", time_s, {"device": index})
                progressed = self._abort_device(index, device, time_s)
        elif action == RECOVER:
            if gate.down:
                gate.down = False
                device.up = True
                self.report.recoveries += 1
                since = self.down_since[index]
                ttr = time_s - since
                self.report.downtime_s += ttr
                self.report.time_to_recover_s = self.report.time_to_recover_s + (ttr,)
                self.down_since[index] = None
                self.touched.add(index)
                if rec is not None:
                    rec.instant(
                        "faults", "recover", time_s, {"device": index, "ttr_s": ttr}
                    )
        elif action == SLOW_START:
            gate.slow_factor = event.factor
            self.report.slow_windows += 1
            if rec is not None:
                rec.instant(
                    "faults",
                    "slow_start",
                    time_s,
                    {"device": index, "factor": event.factor},
                )
        elif action == SLOW_END:
            gate.slow_factor = 1.0
            if rec is not None:
                rec.instant("faults", "slow_end", time_s, {"device": index})
        head = cursor.head_time
        gate.boundary_s = head
        if head is not None:
            self.rearm.append((head, index))
        self._refresh_fault_head()
        return progressed

    def _abort_device(self, index: int, device, time_s: float) -> bool:
        """Crash support: abort the in-flight occupancy, evict and
        re-route everything the device owed work to."""
        lost: List[RequestRecord] = []
        occupancy = device._occupancy
        if occupancy is not None:
            # Keep the executed head of the busy window, refund the tail.
            device.busy_s -= device.busy_until - time_s
            device.busy_until = None
            device._occupancy = None
            lost = list(occupancy.completed)
        evicted = lost + device.scheduler.evict_all()
        requeue: List[RequestRecord] = []
        rec = self.rec
        for record in evicted:
            device.outstanding -= 1
            if self.track_work:
                device.outstanding_work_s -= device.job_seconds(record)
            self.owner.pop(id(record), None)
            if record.hedge:
                self._drop_hedge(record)  # the attempt dies with the device
                continue
            if (
                record.cancelled
                or record.outcome is not None
                or record.finish_s is not None
            ):
                continue
            # The computed KV is lost with the device: wipe the stamps and
            # re-queue; the re-prefill (and any re-spill) is priced fresh
            # wherever the request lands.
            record.prefill_start_s = None
            record.first_token_s = None
            record.finish_s = None
            self.report.requeued += 1
            self._forget_device_record(device, record)
            if rec is not None:
                rec.instant(
                    "faults",
                    "requeue",
                    time_s,
                    {"request_id": record.request_id, "from": index},
                )
            requeue.append(record)
        self.router.on_completed(index, device)
        for record in requeue:
            # Re-route at the crash instant against live health state.
            self._redispatch(record, time_s)
        return bool(requeue)

    # -- planning and the clock ---------------------------------------------
    def _refresh_fault_head(self) -> None:
        """Re-derive the earliest pending fault instant across all devices."""
        head: Optional[float] = None
        for cursor in self.cursors:
            if cursor is None:
                continue
            time_s = cursor.head_time
            if time_s is not None and (head is None or time_s < head):
                head = time_s
        self._fault_head = head

    def horizon(self, horizon: Optional[float], now: float) -> Optional[float]:
        """The planning horizon: the next source arrival capped by the next
        retry delivery, the next fault on any device, and the shortest
        possible flaky-retry backoff (see ``__init__``)."""
        retry_heap = self.retry_heap
        if retry_heap:
            rhead = retry_heap[0][0]
            if horizon is None or rhead < horizon:
                horizon = rhead
        fault_head = self._fault_head
        if fault_head is not None and (horizon is None or fault_head < horizon):
            horizon = fault_head
        min_delay = self._min_retry_delay
        if min_delay is not None:
            cap = now + min_delay
            if horizon is None or cap < horizon:
                horizon = cap
        return horizon

    def next_time(self, next_time: Optional[float], progressed: bool) -> float:
        """The next event instant given the heap/source minimum, merging
        the retry heap; raises when the run can no longer progress."""
        retry_heap = self.retry_heap
        if retry_heap:
            rhead = retry_heap[0][0]
            if next_time is None or rhead < next_time:
                next_time = rhead
        if next_time is None:
            stuck = sum(device.scheduler.pending for device in self.devices)
            raise RuntimeError(
                f"fault engine: {stuck} pending requests "
                f"({self.open_requests} open) but no event is "
                "scheduled to make progress"
            )
        if progressed:
            self.idle_passes = 0
        else:
            self.idle_passes += 1
            if self.idle_passes > _MAX_IDLE_FAULTS:
                raise RuntimeError(
                    "fault engine: fault events keep advancing the "
                    f"clock but no request progressed in "
                    f"{_MAX_IDLE_FAULTS} consecutive events"
                )
        return next_time

    def close(self, now: float) -> None:
        """Stamp the makespan; a crash still open at the end contributes
        downtime truncated at the makespan, but no recovery sample."""
        for since in self.down_since:
            if since is not None:
                self.report.downtime_s += now - since
        self.report.makespan_s = now
