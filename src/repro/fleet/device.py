"""One fleet replica: a backend-priced device with its own scheduler.

A :class:`Device` bundles a scheduler, a
:class:`repro.serving.simulator.BackendCostModel`, the busy/idle state and
the per-device timeline (busy seconds, queue-depth statistics), so the event
loop in :mod:`repro.fleet.simulator` can interleave many of them on one
clock.  The loop drives devices directly; :func:`repro.serving.simulate`
runs it over a single device.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.api.backend import Backend
from repro.api.runner import ExperimentRunner
from repro.fleet.sharding import ShardedBackend, ShardingSpec
from repro.serving.request import RequestRecord
from repro.serving.scheduler import FCFSScheduler, Occupancy, Scheduler
from repro.serving.simulator import BackendCostModel


class _QueueDepthStats:
    """A device's waiting-queue depth, folded as the loop samples it.

    Each ``add(now, depth)`` sample holds until the next one, so the
    samples describe a step function, zero until the first sample; only
    its time-weighted area (for the mean) and its maximum are kept.  A
    repeated or zero-width sample adds no area.
    """

    __slots__ = ("area", "max_depth", "_last_t", "_last_depth")

    def __init__(self) -> None:
        self.area = 0.0
        self.max_depth = 0
        self._last_t = 0.0
        self._last_depth = 0

    def add(self, now: float, depth: int) -> None:
        self.area += self._last_depth * (now - self._last_t)
        self._last_t = now
        self._last_depth = depth
        if depth > self.max_depth:
            self.max_depth = depth


class Device:
    """One replica of the fleet: scheduler + cost model + timeline state."""

    __slots__ = (
        "scheduler",
        "cost",
        "backend_name",
        "records",
        "busy_until",
        "busy_s",
        "_occupancy",
        "live_seq",
        "outstanding",
        "outstanding_work_s",
        "queue_stats",
        "up",
        "gate",
    )

    def __init__(
        self,
        backend: Union[str, Backend],
        scheduler: Optional[Scheduler] = None,
        *,
        sharding: Optional[ShardingSpec] = None,
        runner: Optional[ExperimentRunner] = None,
        cost: Optional[BackendCostModel] = None,
    ):
        self.scheduler = scheduler if scheduler is not None else FCFSScheduler()
        if self.scheduler.pending:
            raise ValueError(
                "device scheduler already has pending requests; use a fresh one"
            )
        spec = None if sharding is None or sharding.is_trivial else sharding
        if cost is not None:
            # A shared cost model (same backend + sharding) from a sibling
            # replica: identical latencies, one set of latency caches.
            # It must have been built under the same sharding, or the
            # device would silently price a differently-shaped replica.
            if getattr(cost, "_fleet_sharding", None) != spec:
                raise ValueError(
                    "the shared cost model was built for a different sharding; "
                    "pass the cost of a device with the same spec (or none)"
                )
            self.cost = cost
        else:
            if spec is not None:
                backend = ShardedBackend(backend, spec)
            self.cost = BackendCostModel(backend, runner=runner)
            self.cost._fleet_sharding = spec
        #: Display name of the backend, resolved on the first profile (the
        #: event loop resolves idle devices against the stream's first
        #: payload before reporting).
        self.backend_name: Optional[str] = None

        # -- timeline state ---------------------------------------------------
        self.records: List[RequestRecord] = []
        self.busy_until: Optional[float] = None
        #: Busy seconds, booked as each occupancy ends (the event loop's
        #: ``end_occupancy``).
        self.busy_s = 0.0
        #: Waiting-queue depth sampled at every planning attempt (and
        #: once at the end of the run).
        self.queue_stats = _QueueDepthStats()
        self._occupancy: Optional[Occupancy] = None
        #: The ``seq`` of the latest COMPLETION the loop pushed for this
        #: device (a crash abort clears it): a popped completion with
        #: another ``seq`` was superseded by a cut or a crash.
        self.live_seq: Optional[int] = None
        #: Requests assigned but not finished (the router's queue signal).
        self.outstanding = 0
        #: Estimated seconds of solo work assigned but not finished (kept
        #: only for routers whose ``needs_work_estimates`` is set).
        self.outstanding_work_s = 0.0

        # -- health state (fault-injected runs only) --------------------------
        #: False while a crash window is open.  Plain runs never clear it,
        #: so health-aware routing guards are no-ops without faults.
        self.up = True
        #: The per-device :class:`repro.faults.engine.FaultGate` attached
        #: when a run arms fault handling (None on plain runs); routers
        #: read it for the "slowed" health signal.
        self.gate = None

    # -- routing signals -----------------------------------------------------
    def job_seconds(self, record: RequestRecord) -> float:
        """The record's solo runtime on *this* device (routers compare these)."""
        return self.cost.total_seconds(record.request)

    @property
    def idle(self) -> bool:
        return self.busy_until is None

    @property
    def memory(self):
        """This replica's KV memory model (None without one).

        The scheduler owns the model; the device only surfaces it so the
        fleet loop can name its recorder track and snapshot per-device
        :class:`repro.memory.MemoryReport` counters.  Routers read the
        scheduler's ``free_dram_bytes(now)`` instead.
        """
        return getattr(self.scheduler, "memory", None)

    def finalize(self, makespan_s: float) -> None:
        """Book the scheduler's last run and take the closing queue-depth
        sample."""
        self.scheduler.finalize()
        self.queue_stats.add(makespan_s, self.scheduler.waiting)
