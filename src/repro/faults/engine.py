"""Fault handling for the simulator's event loop.

The event loop in :mod:`repro.fleet.simulator` (which
:func:`repro.serving.simulate` runs over a single device) arms a
:class:`_FaultRun` when any of ``faults``/``retry``/``deadline_s`` is
given, and calls its handlers at the points where a fault-aware run
differs from a plain one.  With all three unset none of this module
runs.

A fault-aware run adds per-device fault transitions (crash / recover /
slowdown open / slowdown close), drawn lazily from a
:class:`repro.faults.FaultInjector` and scheduled on the loop's event
heap as :data:`repro.serving.events.FAULT` events, and pushes client
retries and hedge timers onto the loop's one arrival source as
re-entries.  The total event order is the documented
:mod:`repro.serving.events` contract: completions due at an instant
stamp before a simultaneous fault applies (an occupancy ending at the
crash instant still counts), faults apply before arrivals route (an
arrival at the crash instant already sees the device down), and
arrivals are delivered before idle devices plan.  Re-entries are
delivered with the stream's arrivals, a stream arrival first at an
equal time, and reach a device through the loop's one ``dispatch``, as
crash re-queues do at the crash instant.

The handler decides and the loop acts: a request leaving a device is
released by the loop's ``leave``, a served one finished by its
``finish``, and kept records are filed by the loop at its close.

Determinism under coalescing
----------------------------

A fault transition is an *interesting boundary*: each device's scheduler
is handed the time of its next scheduled fault through the attached
:class:`FaultGate`, and a coalesced decode run never extends a step
across it (see :mod:`repro.serving.scheduler`).  The straddling step is
planned as its own single-step occupancy in coalesced and step-by-step
runs alike, and planning only ever happens on idle devices — at instants
both runs share.  A retry, hedge or crash re-queue dispatched to a busy
device cuts its open decode run at the first step boundary at or after
the dispatch, exactly as a source arrival does, with or without a KV
memory model, so crash aborts, slowdown repricing, shedding and retries
land on identical state either way: ``max_steps=1`` and coalesced fault
runs produce byte-identical traces.  One known gap: behind a *full*
batch, a queued request whose deadline expired, or a cancelled hedge,
leaves the queue at the next planning call, which a coalesced run
reaches at the next in-batch completion and the step-by-step run at the
next step boundary; a router reading queue lengths in between can then
route differently.

Crash semantics
---------------

A crash aborts the in-flight occupancy (it ends at the crash instant,
so only its executed head counts as busy time), evicts every batch member
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

from typing import List, Optional

from repro.serving.metrics import metric_sample
from repro.serving.request import RequestRecord

from repro.faults.report import FaultReport
from repro.faults.spec import (
    CRASH,
    RECOVER,
    SLOW_END,
    SLOW_START,
    FaultInjector,
)

__all__ = ["FaultGate"]

#: Re-entry actions on the arrival source: a scheduled client retry, and
#: a hedge timer.
_RETRY = 0
_HEDGE = 1


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

    The loop owns the clock, the heap, the arrival source, routing
    (``dispatch(record, now)``, which every delivery goes through),
    planning and every exit from a device; this object makes the fault
    decisions only: the per-device gates and fault cursors, whether a
    retry or hedge is still due, attempt stamps, hedge pairings, crash
    eviction, terminal outcomes, and the :class:`FaultReport`.  It pushes
    retries and hedge timers onto the source (``push(time, action,
    record)``), shares the loop's ``assignments`` list, ``live`` table
    (delivered, unresolved primaries with their trace-row positions) and
    ``touched`` set, and hands back a shed, cancelled or evicted request
    to ``leave(device, record)``, its :meth:`served` verdict on a
    completed member (True: the loop calls ``finish(record, index,
    now)``), a primary its hedge won to ``finish``, and a shed or failed
    primary to ``resolve(record, index, sample)`` with its
    :func:`metric_sample`: every primary resolves exactly once.  A crash
    ends the device's in-flight occupancy through the loop's
    ``end_occupancy(index, device, end)``, the one point that books an
    occupancy's busy time and span.
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
        rec,
        resolve,
        leave,
        finish,
        end_occupancy,
        dispatch,
        push,
        assignments: List[int],
        live: dict,
        touched: set,
    ) -> None:
        self.devices = devices
        self.router = router
        self.retry = retry
        self.deadline_s = deadline_s
        self.slo = slo
        #: Every observer (fault instants), or None.
        self.rec = rec
        self.resolve = resolve
        self.leave = leave
        self.finish = finish
        self.end_occupancy = end_occupancy
        self.dispatch = dispatch
        self.push = push
        self.assignments = assignments
        self.live = live
        self.touched = touched
        self.injector = (
            FaultInjector(faults, len(devices)) if faults is not None else None
        )
        self.report = FaultReport(num_devices=len(devices))
        #: id(record) -> device index currently owning the record.
        self.owner: dict = {}
        #: Hedge pairing maps; entries pin both records alive, so the
        #: id keys stay unambiguous for the pairing's lifetime.
        self.hedge_primary: dict = {}
        self.hedge_attempt: dict = {}
        #: (time, device) fault transitions for the loop to push onto its
        #: heap: each device's first one before the first pass, then each
        #: next one once every fault due at the current instant applied.
        self.rearm: list = []
        self.down_since: List[Optional[float]] = [None] * len(devices)
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

    # -- gate callbacks -------------------------------------------------------
    def _make_callbacks(self, index: int):
        """The shed/drop closures a device's scheduler reports through."""
        device = self.devices[index]

        def _forget(record: RequestRecord) -> None:
            self.leave(device, record)
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
            self.resolve(record, index, metric_sample(record, self.slo))

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

    # -- deliveries -----------------------------------------------------------
    def arrived(self, record: RequestRecord, index: int, now: float) -> None:
        """A stream arrival the loop just dispatched to device ``index``:
        stamp its attempt, track its owner, and arm its hedge timer."""
        _stamp_attempt(record, now)
        self.owner[id(record)] = index
        retry = self.retry
        if retry is not None and retry.hedge_after_s is not None:
            self.push(record.arrival_s + retry.hedge_after_s, _HEDGE, record)

    def reenter(self, action: int, record: RequestRecord, now: float) -> bool:
        """A retry or hedge timer the source delivered at ``now``: dispatch
        it if its primary is still unresolved (and, for a hedge, has no
        first token and no hedge yet); True if it was dispatched."""
        if id(record) not in self.live:
            return False
        rec = self.rec
        if action == _RETRY:
            record.retries += 1
            self.report.retries += 1
            if rec is not None:
                rec.instant(
                    "faults",
                    "retry",
                    now,
                    {"request_id": record.request_id, "attempt": record.attempts + 1},
                )
            self._requeue(record, now)
            return True
        if record.first_token_s is not None or id(record) in self.hedge_attempt:
            return False
        attempt = RequestRecord(record.source, hedge=True)
        self.hedge_primary[id(attempt)] = record
        self.hedge_attempt[id(record)] = attempt
        self.report.hedges += 1
        if rec is not None:
            rec.instant("faults", "hedge", now, {"request_id": record.request_id})
        _stamp_attempt(attempt, now)
        self.owner[id(attempt)] = self.dispatch(attempt, now)
        return True

    def _requeue(self, record: RequestRecord, now: float) -> None:
        """Send a primary to a device again (a retry, or a crash re-queue at
        the crash instant) and move its trace row's device cell."""
        _stamp_attempt(record, now)
        index = self.owner[id(record)] = self.dispatch(record, now)
        self.assignments[self.live[id(record)][1]] = index

    # -- completion handling --------------------------------------------------
    def served(self, index: int, record: RequestRecord, time_s: float) -> bool:
        """Judge a member of an occupancy that just ended on device
        ``index``: True if the loop is to finish it as served (timed out or
        not); a flaky, hedge or superseded member is settled here."""
        self.owner.pop(id(record), None)
        if record.cancelled:
            return False  # resolved elsewhere (hedge), run to an ignored end
        if record.hedge:
            self._hedge_done(index, record, time_s)
            return False
        if record.finish_s is not None or record.outcome is not None:
            return False  # superseded: finalized by a winning hedge
        rec = self.rec
        injector = self.injector
        if injector is not None and injector.attempt_fails(
            record.request_id, record.attempts
        ):
            # Flaky failure: the attempt's output is unusable.
            record.first_token_s = None
            retry = self.retry
            if retry is not None and record.attempts < retry.max_attempts:
                record.prefill_start_s = None
                delay = retry.delay_s(record.attempts, record.request_id)
                self.push(time_s + delay, _RETRY, record)
                return False
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
            self.resolve(record, index, metric_sample(record, self.slo))
            return False
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
        self._cancel_sibling_hedge(record)
        return True

    def _hedge_done(self, index: int, attempt: RequestRecord, time_s: float) -> None:
        """A hedge attempt finished: adopt its stamps if the primary is
        still unresolved (and the attempt itself was not flaky)."""
        primary = self.hedge_primary.pop(id(attempt), None)
        if primary is None:
            return
        if self.hedge_attempt.get(id(primary)) is attempt:
            del self.hedge_attempt[id(primary)]
        if primary.finish_s is not None or primary.outcome is not None:
            return
        injector = self.injector
        if injector is not None and injector.attempt_fails(
            primary.request_id, primary.attempts, "hedge"
        ):
            return  # the hedge itself flaked; the primary continues alone
        primary.prefill_start_s = attempt.prefill_start_s
        primary.first_token_s = attempt.first_token_s
        # The winner's device owns the record now — also when the
        # primary was waiting out a retry backoff on no device at all.
        self.assignments[self.live[id(primary)][1]] = index
        prev = self.owner.get(id(primary))
        if prev is not None:
            # The primary's own attempt loses: silently cancel it.
            primary.cancelled = True
            self.gates[prev].dirty = True
            self.touched.add(prev)
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
        self.finish(primary, index, time_s)

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
        return progressed

    def _abort_device(self, index: int, device, time_s: float) -> bool:
        """Crash support: abort the in-flight occupancy, evict and
        re-route everything the device owed work to."""
        lost: List[RequestRecord] = []
        if device._occupancy is not None:
            # The occupancy ends at the crash instant, its tail unexecuted.
            lost = self.end_occupancy(index, device, time_s)
            device.live_seq = None
        evicted = lost + device.scheduler.evict_all(time_s)
        requeue: List[RequestRecord] = []
        rec = self.rec
        for record in evicted:
            self.leave(device, record)
            self.owner.pop(id(record), None)
            if record.hedge:
                self._drop_hedge(record)  # the attempt dies with the device
                continue
            if id(record) not in self.live:
                continue  # resolved elsewhere: its hedge won
            # The computed KV is lost with the device: wipe the stamps and
            # re-queue; the re-prefill (and any re-spill) is priced fresh
            # wherever the request lands.
            record.prefill_start_s = None
            record.first_token_s = None
            self.report.requeued += 1
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
            self._requeue(record, time_s)
        return bool(requeue)

    # -- the end of the run ---------------------------------------------------
    def close(self, now: float) -> None:
        """Stamp the makespan, and detach the gates this run attached, so
        a drained scheduler serves its next run without them.  A crash
        still open at the end contributes downtime truncated at the
        makespan, but no recovery sample."""
        for since in self.down_since:
            if since is not None:
                self.report.downtime_s += now - since
        self.report.makespan_s = now
        for device in self.devices:
            device.gate = None
            device.scheduler.faults = None
