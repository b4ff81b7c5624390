"""Fleet sizing: the smallest fleet that sustains a target load.

:func:`size_fleet` generalizes :func:`repro.serving.capacity.find_max_qps`
from "how much load fits this device" to "how much fleet fits this load":
given a backend, an SLO and a target arrival rate, it searches over
replica counts — and optionally over sharding degrees — for the cheapest
configuration (fewest base chips, then fewest replicas) whose fleet
simulation meets the SLO at the target rate.

Every probe replays the *same* seeded Poisson arrival stream against a
fresh fleet, all probes share one memoizing
:class:`repro.api.runner.ExperimentRunner`, and the replica search
doubles-then-bisects under the usual monotonicity assumption (more
replicas never hurt attainment under a work-conserving router).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.api.runner import ExperimentRunner
from repro.fleet.report import FleetReport
from repro.memory import MemorySpec
from repro.fleet.router import JoinShortestQueueRouter, Router
from repro.fleet.sharding import ShardingSpec
from repro.fleet.simulator import BackendLike, build_fleet, simulate_fleet
from repro.serving.metrics import SLOSpec
from repro.serving.scheduler import FCFSScheduler, Scheduler
from repro.serving.workload import PayloadLike, PoissonWorkload


@dataclass(frozen=True)
class SizingProbe:
    """One fleet configuration tried by :func:`size_fleet`."""

    replicas: int
    sharding: ShardingSpec
    met: bool

    @property
    def num_chips(self) -> int:
        return self.replicas * self.sharding.num_devices


@dataclass(frozen=True)
class FleetSizingResult:
    """Outcome of one :func:`size_fleet` search."""

    #: Replica count of the cheapest SLO-meeting fleet.
    num_replicas: int
    #: Sharding of each replica in that fleet.
    sharding: ShardingSpec
    #: The report of the winning fleet's simulation at the target rate.
    report: FleetReport
    #: Every configuration probe in evaluation order, for auditability.
    probes: Tuple[SizingProbe, ...]

    @property
    def num_chips(self) -> int:
        """Base devices the winning fleet occupies (replicas x tp x pp)."""
        return self.num_replicas * self.sharding.num_devices


def size_fleet(
    backend: BackendLike,
    payload: PayloadLike,
    slo: SLOSpec,
    target_qps: float,
    *,
    shardings: Sequence[ShardingSpec] = (ShardingSpec(),),
    scheduler_factory: Callable[[], Scheduler] = FCFSScheduler,
    router_factory: Callable[[], Router] = JoinShortestQueueRouter,
    memory: Optional[MemorySpec] = None,
    num_requests: int = 200,
    seed: int = 0,
    max_replicas: int = 64,
    runner: Optional[ExperimentRunner] = None,
    cost_cache: Optional[dict] = None,
    fail_fast: bool = True,
) -> FleetSizingResult:
    """The smallest fleet of ``backend`` replicas sustaining ``target_qps``.

    For each candidate :class:`ShardingSpec` the replica count is searched
    by doubling from 1 until the SLO is met (capped at ``max_replicas``),
    then bisected down to the minimum.  Across candidates the winner is
    the configuration with the fewest base chips (``replicas x tp x pp``);
    ties go to fewer replicas (the more-sharded fleet, whose per-request
    latency is lower at the same silicon), then to the earlier candidate.

    With ``fail_fast`` (default on) each failing probe's fleet simulation
    aborts as soon as SLO attainment can no longer reach the threshold —
    probe verdicts and the winning configuration are unchanged, the
    doubling phase's failures just stop early.  ``cost_cache`` (a mutable
    dict, one is created when omitted) shares per-sharding cost models
    across every probe, so memoized latencies survive fleet rebuilds.

    With ``memory`` set, every replica's scheduler is built with a
    :class:`repro.memory.MemorySpec` scaled to its sharding — a ``tp4``
    replica owns four chips' DRAM and flash — so ``scheduler_factory``
    must accept a ``memory=`` keyword
    (:class:`repro.serving.scheduler.ContinuousBatchScheduler` does).
    Probes that hit a capacity wall (model weights or a prompt's KV
    footprint that "does not fit" anywhere) are recorded as unmet and
    their sharding's remaining replica counts are skipped: adding
    replicas never grows per-replica capacity, only sharding does.
    This is how the search finds that an OOM single-chip configuration
    becomes feasible at ``tp4`` — the capacity rescue.

    Raises :class:`ValueError` when no candidate meets the SLO within
    ``max_replicas`` replicas.
    """
    if target_qps <= 0:
        raise ValueError("target_qps must be positive")
    if max_replicas < 1:
        raise ValueError("max_replicas must be at least 1")
    if not shardings:
        raise ValueError("at least one sharding candidate is required")
    runner = runner if runner is not None else ExperimentRunner()
    cost_cache = cost_cache if cost_cache is not None else {}
    arrivals = PoissonWorkload(target_qps, payload, seed=seed).generate(num_requests)
    probes: List[SizingProbe] = []

    def evaluate(replicas: int, sharding: ShardingSpec) -> Optional[FleetReport]:
        factory = scheduler_factory
        if memory is not None:
            spec = memory.scaled(sharding.num_devices)
            factory = lambda: scheduler_factory(memory=spec)  # noqa: E731
        try:
            fleet = build_fleet(
                [backend] * replicas,
                scheduler_factory=factory,
                sharding=sharding,
                runner=runner,
                cost_cache=cost_cache,
            )
            report = simulate_fleet(
                arrivals, fleet, router_factory(), slo=slo, fail_fast=fail_fast
            )
        except ValueError as error:
            if "does not fit" not in str(error):
                raise
            report = None  # capacity wall: this sharding cannot hold the load
        met = report is not None and report.meets_slo()
        probes.append(SizingProbe(replicas, sharding, met))
        return report

    best: Optional[Tuple[int, int, int, ShardingSpec, FleetReport]] = None
    for order, sharding in enumerate(shardings):
        # -- double until the SLO is met ---------------------------------
        replicas, report = 1, evaluate(1, sharding)
        if report is None:
            continue  # capacity wall: more replicas cannot rescue it
        failed = 0
        while not report.meets_slo() and replicas < max_replicas:
            failed = replicas
            replicas = min(2 * replicas, max_replicas)
            report = evaluate(replicas, sharding)
            if report is None:
                break
        if report is None or not report.meets_slo():
            continue  # infeasible within max_replicas for this sharding
        # -- bisect down to the minimum ----------------------------------
        low, high = failed, replicas  # low fails (0 = "no fleet"), high meets
        while high - low > 1:
            mid = (low + high) // 2
            mid_report = evaluate(mid, sharding)
            if mid_report is not None and mid_report.meets_slo():
                high, report = mid, mid_report
            else:
                low = mid
        candidate = (high * sharding.num_devices, high, order, sharding, report)
        if best is None or candidate[:3] < best[:3]:
            best = candidate

    if best is None:
        raise ValueError(
            f"no candidate fleet meets the SLO at {target_qps:g} qps within "
            f"{max_replicas} replicas; relax the SLO or allow a larger fleet"
        )
    _, num_replicas, _, sharding, report = best
    return FleetSizingResult(
        num_replicas=num_replicas,
        sharding=sharding,
        report=report,
        probes=tuple(probes),
    )
