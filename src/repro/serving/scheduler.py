"""Pluggable serving schedulers: how waiting requests get device time.

A scheduler owns the waiting queue and, when the simulator's event loop
asks, plans the next *occupancy* — one non-preemptive stretch of device
time (a whole job, a batched job, one prefill, or one decode step).  The
event loop in :mod:`repro.serving.simulator` advances the clock by the
occupancy's duration and stamps the finish time on every record the
occupancy completes.

Three policies are built in:

* :class:`FCFSScheduler` — one request at a time, run to completion; the
  classic single-stream baseline.  A single request arriving at an idle
  device finishes after exactly the backend's ``RunResult.total_seconds``.
* :class:`StaticBatchScheduler` — groups up to ``max_batch`` waiting
  requests into one batch that prefills together, decodes together and
  releases together; stragglers hold the whole batch.
* :class:`ContinuousBatchScheduler` — step-level batching: each decode
  step serves every active sequence, and waiting prefills are admitted
  between steps whenever a batch slot is free (prefill-prioritized,
  vLLM-style).  Requests leave the batch the step their generation ends.

Costing uses the backend's per-phase latencies through the
:class:`repro.serving.simulator.BackendCostModel`: ``time_to_first_token_s``
prices a prefill occupancy and ``decode_step_seconds`` prices one decode
step at the current batch width.

Fast-forward coalescing
-----------------------

The batch composition cannot change before the next in-batch completion,
so the continuous scheduler coalesces the ``k`` decode steps up to it
into a *single* occupancy instead of ``k`` separate events, capped by
the optional ``max_steps`` and by the device's next fault transition.
The occupancy's end time is computed by adding the step duration ``k``
times (never by one ``k * step`` multiplication), so every record
timestamp is bit-equal to the step-by-step loop's and the per-request
trace CSV stays byte-identical.  ``max_steps=1`` reproduces the
uncoalesced loop exactly.

A run planned with a free batch slot stays *open*: a request that
queues on this scheduler while the run is in flight could take that
slot at any step boundary.  The event loop then calls
:meth:`Scheduler.cut`, which ends the run at the first step boundary at
or after the request's arrival (re-walked from the run's start, so the
new end is bit-equal to the step-by-step clock) and restores the batch
to that boundary.  A request routed to
another device never splits the run.  The base scheduler's ``cut`` does
nothing: FCFS and static batching emit whole-job occupancies, and
ignore ``max_steps``.

The memory model
----------------

``ContinuousBatchScheduler(memory=MemorySpec(...))`` switches admission
from slot counting to modeled KV footprints (:mod:`repro.memory`):
a request is admitted when its prompt's KV bytes fit in free DRAM (or
in DRAM plus flash spill space, paying the spill write on the prefill
occupancy), decode steps grow residency per step, and a step whose
growth no longer fits spills to flash and reads the flash-resident KV
back through the channels every step.  Freed DRAM pulls spilled bytes
home as explicit ``refill`` occupancies.  Every spill/refill is a new
interesting boundary: a decode run is additionally capped at the step
where DRAM would fill (regime A), and a spilling batch plans strictly
one step per occupancy (regime B), so coalesced and ``max_steps=1``
runs stay byte-identical with the model enabled too.  Otherwise a
regime-A run is planned and cut exactly like a slot-count run.  It books
its KV growth, and releases its finishing members, only once it is
over: at the scheduler's next planning call, a crash eviction or
:meth:`Scheduler.finalize`.  Until then :meth:`Scheduler.free_dram_bytes`
reads DRAM as of an instant, as the step-by-step loop has booked it.
``memory=None`` (the default) leaves the slot-count path untouched.

Faults
------

A fault-aware run (:mod:`repro.faults.engine`) attaches a per-device
``FaultGate`` to :attr:`Scheduler.faults` before the loop starts.  The
gate adds three behaviours, all inert when the attribute is None (the
class default, so plain runs pay a single identity check):

* **Load shedding** — at every planning call the waiting queue drops
  requests whose deadline already expired (projected queue wait is
  lower-bounded by the wait *already* incurred, so an expired request
  provably cannot meet its deadline whatever the scheduler does) and
  silently discards cancelled hedge attempts.  The gate's callbacks do
  the loop-side bookkeeping.
* **Slowdown pricing** — prefill and decode-step latencies are
  multiplied by ``gate.slow_factor`` while a slowdown window is open.
  The multiplier applies at planning time: a non-preemptive occupancy
  planned before the window opened runs at its planned speed, and
  memo entries always cache the unscaled latency.
* **Fault boundaries cap coalescing** — a fault transition is a new
  *interesting boundary*: a coalesced decode window never extends a step
  past ``gate.boundary_s`` (the device's next scheduled fault), so the
  straddling step — the one the crash aborts or the slowdown reprices —
  is planned as its own single-step occupancy in coalesced and
  step-by-step runs alike, keeping them byte-identical under faults.

``evict_all`` supports crash aborts: it drains every request the
scheduler still owes work to (in-flight batch members first, then the
queue, both in deterministic order), releasing any KV residency the
memory model holds for them — the re-queued requests pay a fresh
re-prefill (and re-spill) when they are admitted elsewhere.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import inf
from typing import Deque, List, Optional

from repro.serving.request import RequestRecord

#: Occupancy kinds, also used as event labels in reports and tests.
JOB = "job"
BATCH = "batch"
PREFILL = "prefill"
DECODE = "decode"
#: Spilled KV streaming back from flash to freed DRAM (memory model only).
REFILL = "refill"


@dataclass(slots=True)
class Occupancy:
    """One non-preemptive stretch of device time planned by a scheduler."""

    kind: str
    seconds: float
    #: Records whose last token is produced when this occupancy ends; the
    #: event loop stamps their ``finish_s``.
    completed: List[RequestRecord] = field(default_factory=list)
    #: Decode steps coalesced into this occupancy (1 = a single event).
    steps: int = 1
    #: Absolute end time, set by schedulers that coalesce: the step clock
    #: accumulated from the planning time one step at a time, so the event
    #: loop lands on exactly the same float the step-by-step loop reaches.
    end_s: Optional[float] = None
    #: When the occupancy starts: the event loop stamps every occupancy
    #: it plans, and the continuous scheduler stamps an open decode run
    #: (one :meth:`Scheduler.cut` may still shorten) itself.
    start_s: Optional[float] = None
    #: The scheduler's ``coalesce`` instant for a decode run on a
    #: recorder-attached run, emitted by the loop with the run's span
    #: once the run ends.
    note: Optional[dict] = None
    #: The KV DRAM level (used bytes) as of the start, stamped by a
    #: memory-model scheduler on every occupancy: after the admission
    #: for a prefill, as booked (after any cut) for a decode run, after
    #: the refill for a refill.  The loop hands it to a timeline once the
    #: occupancy ends, and emits a decode run's as the memory model's
    #: ``dram`` instant, between the note and the span.
    dram: Optional[int] = None

    def end_time(self, now: float) -> float:
        """When this occupancy finishes, starting at ``now``."""
        return self.end_s if self.end_s is not None else now + self.seconds


def _cap_reason(
    steps: int, limit: int, max_steps: Optional[int]
) -> str:
    """Why a coalesced decode occupancy stopped at ``steps``.

    Only evaluated on recorder-attached runs (inside the emission guard):
    ``horizon`` — the run was cut for a request that queued mid-run
    (:meth:`Scheduler.cut` sets it) or capped at the device's next fault;
    ``max_steps`` — the caller's coalescing cap; ``completion`` — the
    next in-batch completion (the natural boundary).
    """
    if steps < limit:
        return "horizon"
    if max_steps is not None and steps == max_steps:
        return "max_steps"
    return "completion"


class Scheduler:
    """Base policy: a FIFO waiting queue plus the planning hook."""

    name = "scheduler"
    #: Observability hook (:class:`repro.obs.Recorder`): the event loops
    #: attach an *enabled* recorder here before a run; None (the class
    #: default) keeps every emission site a single identity check.
    #: Emissions are read-only observations of decisions already made, so
    #: attaching one never changes what the scheduler plans.
    recorder = None
    #: Recorder track this scheduler's decision instants land on; the
    #: fleet loop renames it per replica (``device0``, ``device1``, ...).
    track = "device"
    #: Per-run fault gate (:class:`repro.faults.engine.FaultGate`),
    #: attached by fault-aware runs; None (the class default) keeps
    #: every fault consultation on plain runs a single identity check.
    faults = None
    #: A lower bound on the queued records' ``arrival_s``: lowered by
    #: every enqueue, made exact by every queue walk in
    #: :meth:`_shed_expired` (inf = nothing queued since).
    _arrival_floor = inf

    def __init__(self) -> None:
        self._waiting: Deque[RequestRecord] = deque()

    # -- event-loop interface ------------------------------------------------
    def enqueue(self, record: RequestRecord, now: float) -> None:
        """An arrival at simulated time ``now`` joins the waiting queue."""
        self._waiting.append(record)
        arrival = record.source.arrival_s
        if arrival < self._arrival_floor:
            self._arrival_floor = arrival

    @property
    def waiting(self) -> int:
        """Requests queued but not yet on the device (the queue depth)."""
        return len(self._waiting)

    @property
    def pending(self) -> int:
        """Requests the scheduler still owes work to (waiting + in flight)."""
        return len(self._waiting)

    def next_occupancy(
        self, now: float, cost, max_steps: Optional[int] = None
    ) -> Optional[Occupancy]:
        """Plan the next device occupancy starting at ``now`` (None = idle).

        ``max_steps`` caps how many decode steps a coalescing scheduler
        may fast-forward in one occupancy (None = unlimited, 1 = the
        uncoalesced loop).
        """
        raise NotImplementedError

    def cut(self, now: float) -> Optional[Occupancy]:
        """Shorten the in-flight occupancy for a request that just queued.

        The event loop calls this at ``now`` for a busy device whose queue
        changed (a request joined it, or a queued hedge was cancelled).  A
        scheduler whose in-flight occupancy could admit a waiting request
        at an earlier boundary than its end returns that occupancy,
        shortened in place; None leaves it alone.  The base policy plans
        non-preemptive occupancies only.
        """
        return None

    def free_dram_bytes(self, now: float) -> int:
        """Free KV DRAM as of ``now`` (0 without a memory model)."""
        return 0

    def finalize(self) -> None:
        """The run is over: book what the last occupancy still owes."""

    # -- fault support -------------------------------------------------------
    def _shed_expired(self, now: float) -> None:
        """Drop unservable queue members at the admission boundary.

        Sheds requests whose deadline has already expired (they provably
        cannot meet it — the wait still ahead of them is non-negative)
        and silently discards cancelled hedge attempts, notifying the
        event loop through the gate's callbacks.  Queue order of the
        survivors is preserved, so the drop is deterministic.

        The queue is walked only when the gate is dirty (a hedge was
        cancelled) or the deadline has passed for ``_arrival_floor``:
        floating-point addition is monotone, so while it has not, it has
        passed for no queued record, and the walk would drop nothing.
        """
        gate = self.faults
        deadline = gate.deadline_s
        if not gate.dirty and (
            deadline is None or not now > self._arrival_floor + deadline
        ):
            return
        gate.dirty = False
        kept: Deque[RequestRecord] = deque()
        floor = inf
        for record in self._waiting:
            arrival = record.arrival_s
            if record.cancelled:
                gate.drop(record)
            elif deadline is not None and now > arrival + deadline:
                gate.shed(record, now)
            else:
                kept.append(record)
                if arrival < floor:
                    floor = arrival
        self._waiting = kept
        self._arrival_floor = floor

    def evict_all(self) -> List[RequestRecord]:
        """Crash support: drain every request this scheduler owes work to.

        Returns in-flight batch members first (in batch order), then the
        waiting queue (in queue order) — a deterministic drain the fault
        engine resets and re-routes.  The base scheduler holds no batch
        state, so only the queue drains here.
        """
        evicted = list(self._waiting)
        self._waiting.clear()
        return evicted


class FCFSScheduler(Scheduler):
    """First-come-first-served, one request on the device at a time.

    A job is already one whole occupancy, so there is nothing further to
    coalesce: ``max_steps`` is accepted and ignored.
    """

    name = "fcfs"

    def next_occupancy(
        self, now: float, cost, max_steps: Optional[int] = None
    ) -> Optional[Occupancy]:
        gate = self.faults
        if gate is not None and self._waiting:
            self._shed_expired(now)
        if not self._waiting:
            return None
        record = self._waiting.popleft()
        ttft = cost.ttft(record.request)
        total = cost.total_seconds(record.request)
        if gate is not None and gate.slow_factor != 1.0:
            ttft *= gate.slow_factor
            total *= gate.slow_factor
        record.prefill_start_s = now
        record.first_token_s = now + ttft
        return Occupancy(JOB, total, [record])


class StaticBatchScheduler(Scheduler):
    """Batch whatever is waiting (up to ``max_batch``) and run it as a unit.

    The batch prefills together (the slowest member's batched prefill
    bounds the phase), decodes in lockstep at the batch-wide step cost,
    and only releases when the member with the most tokens finishes —
    the classic static-batching straggler penalty.

    The batch runs as one occupancy already (the maximally coalesced
    form), so ``max_steps`` is accepted and ignored.
    """

    name = "static"

    def __init__(self, max_batch: int = 8):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        super().__init__()
        self.max_batch = max_batch

    def next_occupancy(
        self, now: float, cost, max_steps: Optional[int] = None
    ) -> Optional[Occupancy]:
        gate = self.faults
        if gate is not None and self._waiting:
            self._shed_expired(now)
        if not self._waiting:
            return None
        count = min(self.max_batch, len(self._waiting))
        batch = [self._waiting.popleft() for _ in range(count)]
        lanes = sum(record.request.batch_size for record in batch)
        prefill = max(
            cost.ttft(record.request, batch_size=lanes) for record in batch
        )
        steps = max(record.request.gen_tokens for record in batch)
        step = max(
            cost.decode_step(record.request, batch_size=lanes) for record in batch
        )
        if gate is not None and gate.slow_factor != 1.0:
            prefill *= gate.slow_factor
            step *= gate.slow_factor
        for record in batch:
            record.prefill_start_s = now
            record.first_token_s = now + prefill
        return Occupancy(BATCH, prefill + steps * step, batch)


class _KVGrowth:
    """A regime-A decode run's KV growth, booked once the run is over.

    The step-by-step loop books a step's growth when it plans the step,
    and the finishing members release their residency with the last
    step.  A coalesced run books all of it at once (:meth:`book`); until
    then :meth:`advance` tracks what the step-by-step loop holds at an
    instant: the first step, plus every later step that started strictly
    before it (a request arriving on a step boundary is routed before
    that step is planned), and once the last step has started, the net
    growth after the finishing members' release.  ``started`` only moves
    forward, so a read between two step boundaries costs one comparison.
    """

    __slots__ = (
        "occupancy",
        "batch",
        "growth",
        "step",
        "base",
        "end_free",
        "free",
        "started",
        "next_start",
    )

    def __init__(
        self,
        occupancy: Occupancy,
        batch: list,
        growth: int,
        step: float,
        now: float,
        free: int,
    ) -> None:
        steps = occupancy.steps
        self.occupancy = occupancy
        #: The batch as planned: [record, remaining, ...] entries whose
        #: remaining steps already count this run (0 = finishes with it).
        self.batch = batch
        self.growth = growth
        self.step = step
        #: Free DRAM before the run, and once it is booked.
        self.base = free
        released = 0
        for entry in batch:
            if not entry[1]:
                released += entry[3] + steps * entry[5]
        self.end_free = free - steps * growth + released
        #: Free DRAM as of the latest read, the steps started by then, and
        #: the start of the next step (inf once the last one started).
        self.started = 1
        if steps == 1:
            self.free, self.next_start = self.end_free, inf
        else:
            self.free, self.next_start = free - growth, now + step

    def advance(self, now: float) -> None:
        """Count the steps that started strictly before ``now``."""
        steps = self.occupancy.steps
        started, start, step = self.started, self.next_start, self.step
        while now > start:
            started += 1
            if started == steps:
                self.started, self.next_start = started, inf
                self.free = self.end_free
                return
            start += step
        self.started, self.next_start = started, start
        self.free = self.base - started * self.growth

    def cut(self, steps: int) -> None:
        """The run now ends after ``steps`` steps, and nobody finishes."""
        self.end_free = self.base - steps * self.growth
        if self.started == steps:
            self.next_start = inf

    def book(self, pool) -> None:
        """Book the run's growth, then release its finishing members."""
        steps = self.occupancy.steps
        if self.growth:
            pool.admit(steps * self.growth)
        for entry in self.batch:
            entry[3] += steps * entry[5]
            if not entry[1] and entry[3]:
                pool.release(entry[3])


class ContinuousBatchScheduler(Scheduler):
    """Step-level batching with prefill admission between decode steps."""

    name = "continuous"

    #: Cap on the per-scheduler payload-identity memos below; when a
    #: generator-style workload overflows it (fresh payload objects per
    #: request), the memo is wholesale reset — correctness is untouched
    #: because entries only mirror the cost model's deterministic answers.
    MEMO_SIZE = 4096

    def __init__(self, max_batch: int = 8, memory=None):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        super().__init__()
        self.max_batch = max_batch
        #: The flash-backed KV memory model (None = slot-count admission).
        #: A MemorySpec is wrapped into a fresh stateful model, which —
        #: like the scheduler itself — serves exactly one run.
        if memory is not None:
            from repro.memory import KVMemoryModel, MemorySpec

            if isinstance(memory, MemorySpec):
                memory = KVMemoryModel(memory)
        self.memory = memory
        #: Active sequences as [record, remaining decode steps, payload]
        #: triples (the payload is cached so the per-step pass skips the
        #: record -> source -> request attribute chain).  With a memory
        #: model, entries carry three more slots: [resident DRAM bytes,
        #: spilled flash bytes, KV growth bytes per step].
        self._active: List[List] = []
        #: Batch-membership aggregates maintained incrementally on
        #: admission/release, so the per-step path never recomputes them:
        #: total lanes, and id(payload) -> [payload, member count] (the
        #: stored payload reference pins the id while counted).
        self._lanes = 0
        self._payloads: dict = {}
        #: id(payload) -> (payload, ttft) and (id(payload), lanes) ->
        #: (payload, step): one dict hit instead of the cost model's
        #: lookup chain on the per-admission/per-step hot path.  Every
        #: decode step reads the step memo, once per distinct payload in
        #: the batch, so the cost model sees each (payload, lanes) pair
        #: once.  The stored payload reference pins the id (no stale-id
        #: reuse) and is identity-checked on every hit.
        self._ttft_memo: dict = {}
        self._step_memo: dict = {}
        #: The cost model the memos mirror; a scheduler reused with a
        #: different model (allowed once it has drained) drops them.
        self._memo_cost = None
        #: The open decode run :meth:`cut` may shorten, as [occupancy,
        #: step, the batch list as planned]; None between runs.
        self._open: Optional[list] = None
        #: The latest regime-A run's KV growth, until it is booked.
        self._growth: Optional[_KVGrowth] = None

    @property
    def pending(self) -> int:
        return len(self._waiting) + len(self._active)

    @property
    def active(self) -> int:
        """Sequences currently in the decode batch."""
        return len(self._active)

    def next_occupancy(
        self, now: float, cost, max_steps: Optional[int] = None
    ) -> Optional[Occupancy]:
        if cost is not self._memo_cost:
            self._ttft_memo.clear()
            self._step_memo.clear()
            self._memo_cost = cost
        # The device is idle again, so the previous run is over.
        self._open = None
        if self._growth is not None:
            self._book()
        gate = self.faults
        if gate is not None and self._waiting:
            self._shed_expired(now)
        memory = self.memory
        rec = self.recorder
        if memory is not None and memory.recorder is not None:
            # The memory model's own spill/refill/GC instants need the
            # simulated clock; it has no other view of it, so the planner
            # syncs it once per planning call (observed runs only — the
            # model's ledgers never read it).
            memory.now_s = now
        # Admission first: fill free batch slots with waiting prefills so
        # new requests reach their first token as early as possible.
        if self._waiting and len(self._active) < self.max_batch:
            occupancy = self._admit(now, cost)
            if occupancy is not None:
                return occupancy
            # Otherwise the head-of-line request is waiting on DRAM/flash
            # space; fall through so in-flight decodes can free some.
        active = self._active
        if not active:
            return None
        # Freed DRAM pulls spilled KV home before the next decode step:
        # an explicit refill occupancy, and an interesting boundary.
        if memory is not None and memory.spilled_bytes:
            refill = self._plan_refill()
            if refill is not None:
                return refill
        # The batch aggregates — total lanes and the distinct payload
        # objects — are maintained incrementally on admission/release, so
        # the per-step pass only finds the earliest in-batch completion.
        # Pricing each distinct payload once collapses the per-member
        # decode_step queries: max over distinct payloads equals max over
        # all members because the cost model is a pure function of the
        # payload.
        lanes = self._lanes
        limit = None
        for entry in active:
            remaining = entry[1]
            if limit is None or remaining < limit:
                limit = remaining
        payloads = self._payloads
        memo = self._step_memo
        step = None
        for request, _ in payloads.values():
            hit = memo.get((id(request), lanes))
            if hit is not None and hit[0] is request:
                price = hit[1]
            else:
                price = cost.decode_step(request, batch_size=lanes)
                if len(memo) >= self.MEMO_SIZE:
                    memo.clear()
                memo[(id(request), lanes)] = (request, price)
            if step is None or price > step:
                step = price
        if gate is not None and gate.slow_factor != 1.0:
            step *= gate.slow_factor
        # Fast-forward: the batch composition is frozen until the next
        # in-batch completion, so up to `limit` steps are one occupancy.
        if max_steps is not None and max_steps < limit:
            limit = max_steps
        spilling = dram_capped = False
        if memory is not None:
            growth = 0
            for entry in active:
                growth += entry[5]
            free = memory.pool.free_bytes
            if memory.spilled_bytes or growth > free:
                # Regime B: the step spills or reads spilled KV back, so it
                # is planned alone and pays the flash time on top.
                step += self._spill_step()
                limit = 1
                spilling = True
            elif growth and free // growth < limit:
                # Regime A: the step where DRAM fills is interesting too.
                limit = free // growth
                dram_capped = True
        # Accumulate the boundaries one step at a time: `end` walks the
        # exact float sequence the uncoalesced loop would produce.
        end = now + step
        boundary = gate.boundary_s if gate is not None else None
        if boundary is None:
            steps = limit
            for _ in range(limit - 1):
                end += step
        else:
            # A fault transition is an interesting boundary: never extend
            # the window with a step that crosses it.  The straddling step
            # (if any) is planned alone — exactly what the step-by-step
            # loop does — so crash aborts and slowdown repricing land on
            # identical occupancies in coalesced and uncoalesced runs.
            steps = 1
            while steps < limit:
                nxt = end + step
                if nxt > boundary:
                    break
                steps += 1
                end = nxt
        # With a free slot, a request queuing mid-run is admissible at the
        # next step boundary: the run stays open for cut().  A regime-A
        # run books its growth once it is over, against the batch as
        # planned.
        batch = len(active)
        cuttable = steps > 1 and batch < self.max_batch
        books = memory is not None and not spilling
        planned = list(active) if cuttable or books else None
        finished = []
        for entry in active:
            entry[1] -= steps
            if entry[1] == 0:
                finished.append(entry)
        for entry in finished:
            active.remove(entry)
            request = entry[2]
            self._lanes -= request.batch_size
            counted = payloads[id(request)]
            if counted[1] == 1:
                del payloads[id(request)]
            else:
                counted[1] -= 1
        occupancy = Occupancy(
            DECODE,
            step if steps == 1 else end - now,
            [entry[0] for entry in finished],
            steps=steps,
            end_s=end,
        )
        if cuttable:
            occupancy.start_s = now
            self._open = [occupancy, step, planned]
        if books:
            self._growth = _KVGrowth(occupancy, planned, growth, step, now, free)
            occupancy.dram = memory.pool.capacity_bytes - self._growth.end_free
        elif spilling:
            for entry in finished:
                self._release(entry)
            occupancy.dram = memory.pool.used_bytes
        if rec is not None:
            if spilling:
                reason = "spill"
            elif dram_capped and steps == limit:
                reason = "dram_fill"
            else:
                reason = _cap_reason(steps, limit, max_steps)
            # The loop emits both instants once the run ends.
            occupancy.note = {
                "steps": steps,
                "reason": reason,
                "batch": batch,
                "completed": len(finished),
            }
        return occupancy

    def cut(self, now: float) -> Optional[Occupancy]:
        """End the open decode run at the first step boundary at or after
        ``now``, where the step-by-step loop would admit a request that
        queued at ``now``.

        The boundary is re-walked from the run's start one step at a time,
        so it is bit-equal to the step-by-step clock.  The batch goes back
        to its state at that boundary: every
        member's remaining steps, and the members that were to finish at
        the planned end rejoin in batch order, with their lanes and
        payload counts.  Returns the shortened occupancy, or None when
        there is no open run, nothing is waiting, or ``now`` already lies
        in the run's last step.
        """
        run = self._open
        if run is None or not self._waiting:
            return None
        self._open = None
        occupancy, step, planned = run
        start = occupancy.start_s
        steps, end = 1, start + step
        while end < now:
            steps += 1
            end += step
        back = occupancy.steps - steps
        if back <= 0:
            return None
        payloads = self._payloads
        for entry in planned:
            if entry[1] == 0:
                request = entry[2]
                self._lanes += request.batch_size
                counted = payloads.get(id(request))
                if counted is None:
                    payloads[id(request)] = [request, 1]
                else:
                    counted[1] += 1
            entry[1] += back
        self._active = planned
        occupancy.completed = []
        occupancy.steps = steps
        occupancy.end_s = end
        occupancy.seconds = step if steps == 1 else end - start
        growth = self._growth
        if growth is not None:
            growth.cut(steps)
            occupancy.dram = self.memory.pool.capacity_bytes - growth.end_free
        note = occupancy.note
        if note is not None:
            note["steps"] = steps
            note["reason"] = "horizon"
            note["completed"] = 0
        return occupancy

    def free_dram_bytes(self, now: float) -> int:
        """Free KV DRAM as of ``now``: what the step-by-step loop has
        booked by then (see :class:`_KVGrowth`)."""
        growth = self._growth
        if growth is not None:
            if now > growth.next_start:
                growth.advance(now)
            return growth.free
        memory = self.memory
        return 0 if memory is None else memory.pool.free_bytes

    def finalize(self) -> None:
        if self._growth is not None:
            self._book()

    def evict_all(self) -> List[RequestRecord]:
        """Crash support: drain the active batch, then the waiting queue.

        The latest decode run is booked first, then active members
        release their KV residency (DRAM and spilled flash bytes) before
        the queue drains — the computed KV is lost with the device, and a
        re-queued request pays a fresh re-prefill (and re-spill) through
        :meth:`_admit` wherever it lands next.
        """
        if self._growth is not None:
            self._book()
        active = self._active
        evicted = [entry[0] for entry in active]
        if self.memory is not None:
            for entry in active:
                self._release(entry)
        active.clear()
        self._lanes = 0
        self._payloads.clear()
        self._open = None
        return evicted + super().evict_all()

    def _admit(self, now: float, cost) -> Optional[Occupancy]:
        """Prefill the head-of-line request into a free batch slot.

        Under the memory model its prompt's KV bytes must also fit in free
        DRAM, or in DRAM plus free flash (the spill write rides on the
        prefill occupancy; ``first_token_s`` stays at ``now + ttft``, as
        the token exists before the cold KV moves).  Returns None when they
        fit in neither — the request then waits for in-flight decodes to
        release residency.  An empty batch with no residency to free means
        the config can never hold the request: that is a true OOM, raised
        so sharding (which scales the spec) can rescue it.
        """
        memory = self.memory
        rec = self.recorder
        record = self._waiting[0]
        request = record.source.request
        if memory is not None:
            footprint = memory.footprint(request)
            prompt = footprint.prompt_bytes
            free = memory.pool.free_bytes
            if prompt <= free:
                resident, spilled = prompt, 0
            elif prompt <= free + memory.flash_free_bytes:
                resident, spilled = free, prompt - free
            elif not self._active:
                raise ValueError(
                    f"prompt KV footprint ({prompt} bytes) does not fit in DRAM "
                    f"({memory.pool.capacity_bytes} bytes) plus flash spill space "
                    f"({memory.spill_capacity_bytes} bytes); the request can never "
                    "be admitted — shard the replica or scale the MemorySpec"
                )
            else:
                if rec is not None:
                    rec.instant(
                        self.track,
                        "admit_blocked",
                        now,
                        {
                            "request_id": record.request_id,
                            "prompt_bytes": prompt,
                            "free_dram_bytes": free,
                            "free_flash_bytes": memory.flash_free_bytes,
                        },
                    )
                return None
        self._waiting.popleft()
        memo = self._ttft_memo
        hit = memo.get(id(request))
        if hit is not None and hit[0] is request:
            ttft = hit[1]
        else:
            ttft = cost.ttft(request)
            if len(memo) >= self.MEMO_SIZE:
                memo.clear()
            memo[id(request)] = (request, ttft)
        gate = self.faults
        if gate is not None and gate.slow_factor != 1.0:
            # Memo entries cache the unscaled latency; slowdowns model
            # compute, so they reprice the prefill but not a spill write.
            ttft *= gate.slow_factor
        seconds = ttft
        entry = [record, request.gen_tokens, request]
        if memory is not None:
            if resident:
                memory.pool.admit(resident)
            if spilled:
                seconds += memory.spill(spilled)
            entry += (resident, spilled, footprint.step_bytes)
        record.prefill_start_s = now
        record.first_token_s = now + ttft
        self._active.append(entry)
        self._lanes += request.batch_size
        payloads = self._payloads
        counted = payloads.get(id(request))
        if counted is None:
            payloads[id(request)] = [request, 1]
        else:
            counted[1] += 1
        occupancy = Occupancy(PREFILL, seconds)
        if memory is not None:
            occupancy.dram = memory.pool.used_bytes
        if rec is not None:
            args = {"request_id": record.request_id, "verdict": "slot"}
            if memory is not None:
                args["verdict"] = "dram+spill" if spilled else "dram"
                args["resident_bytes"] = resident
                args["spilled_bytes"] = spilled
            args["batch"] = len(self._active)
            rec.instant(self.track, "admit", now, args)
            if memory is not None:
                rec.instant(
                    memory.track, "dram", now, {"used_bytes": occupancy.dram}
                )
        return occupancy

    # -- the memory-model path ------------------------------------------------
    def _plan_refill(self) -> Optional[Occupancy]:
        """Move spilled KV back into free DRAM, oldest batch member first."""
        memory = self.memory
        free = memory.pool.free_bytes
        if free <= 0:
            return None
        moved = 0
        for entry in self._active:
            spilled = entry[4]
            if not spilled:
                continue
            take = spilled if spilled <= free else free
            entry[4] -= take
            entry[3] += take
            free -= take
            moved += take
            if free == 0:
                break
        if not moved:
            return None
        memory.pool.admit(moved)
        occupancy = Occupancy(REFILL, memory.refill(moved), dram=memory.pool.used_bytes)
        rec = self.recorder
        if rec is not None:
            # memory.now_s was synced by the planning call that got here.
            rec.instant(
                memory.track, "dram", memory.now_s, {"used_bytes": occupancy.dram}
            )
        return occupancy

    def _spill_step(self) -> float:
        """Book one regime-B decode step; return its flash seconds.

        The step re-reads the flash-resident KV, grows each member in
        batch order into what DRAM still has free, and spills the rest.
        It books at planning because its price depends on the ledgers:
        the same integer updates per step coalesced or not.
        """
        memory = self.memory
        pool = memory.pool
        io_seconds = memory.readthrough_seconds()
        free = pool.free_bytes
        admitted = 0
        spill_total = 0
        for entry in self._active:
            grow = entry[5]
            take = grow if grow <= free else free
            if take:
                entry[3] += take
                free -= take
                admitted += take
            rest = grow - take
            if rest:
                entry[4] += rest
                spill_total += rest
        if admitted:
            pool.admit(admitted)
        if spill_total:
            if spill_total > memory.flash_free_bytes:
                raise ValueError(
                    f"decode-step KV growth ({spill_total} bytes) does not "
                    "fit in the remaining flash spill space "
                    f"({memory.flash_free_bytes} bytes); the batch has "
                    "outgrown DRAM plus flash"
                )
            io_seconds += memory.spill(spill_total)
        return io_seconds

    def _release(self, entry: list) -> None:
        """Return a leaving member's KV residency: DRAM and spilled flash."""
        if entry[3]:
            self.memory.pool.release(entry[3])
        if entry[4]:
            self.memory.discard(entry[4])

    def _book(self) -> None:
        """Book the latest regime-A run, now that it is over."""
        self._growth.book(self.memory.pool)
        self._growth = None
