"""Capacity search: the highest sustainable arrival rate under an SLO.

:func:`find_max_qps` brackets and bisects the arrival rate of a seeded
Poisson workload until the passing and failing rates are within
``rel_tol`` of each other, then returns the highest rate observed to meet
the SLO.  Every probe replays the *same* seeded arrival process (scaled
to the probed rate) against a fresh scheduler, and all probes share one
memoizing :class:`repro.api.runner.ExperimentRunner`, so the whole search
usually costs a handful of backend evaluations no matter how many
thousands of requests it simulates.

The search assumes SLO attainment degrades monotonically with load —
true for work-conserving schedulers on a single device, which is all this
package currently models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.api.runner import ExperimentRunner
from repro.serving.metrics import ServingReport, SLOSpec
from repro.serving.scheduler import FCFSScheduler, Scheduler
from repro.serving.simulator import BackendCostModel, BackendLike, simulate
from repro.serving.workload import PayloadLike, PoissonWorkload

#: Bracket expansion bound: 2**40 x the initial probe covers any real system.
_MAX_BRACKET_STEPS = 40


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of one :func:`find_max_qps` search."""

    #: Highest probed arrival rate whose simulation met the SLO.
    max_qps: float
    #: The report of the simulation at ``max_qps``.
    report: ServingReport
    #: Every (rate, met) probe in evaluation order, for auditability.
    probes: Tuple[Tuple[float, bool], ...]


def find_max_qps(
    backend: BackendLike,
    payload: PayloadLike,
    slo: SLOSpec,
    *,
    scheduler_factory: Callable[[], Scheduler] = FCFSScheduler,
    num_requests: int = 200,
    seed: int = 0,
    initial_qps: Optional[float] = None,
    rel_tol: float = 0.1,
    max_probes: int = 32,
    runner: Optional[ExperimentRunner] = None,
    cost: Optional[BackendCostModel] = None,
    fail_fast: bool = True,
) -> CapacityResult:
    """Bisect for the highest Poisson arrival rate that meets ``slo``.

    Parameters
    ----------
    backend / payload:
        The device model and the request shape each arrival carries
        (``payload`` may also be a seeded factory, see
        :mod:`repro.serving.workload`).
    scheduler_factory:
        Zero-argument callable building a *fresh* scheduler per probe
        (scheduler instances are stateful within a run).
    num_requests / seed:
        Size and seed of the Poisson sample each probe simulates; fixed
        across probes, so the search is fully deterministic.
    initial_qps:
        Starting probe.  Defaults to the single-stream service rate
        ``1 / total_seconds(payload)`` — the natural capacity scale.
    rel_tol:
        Stop once the failing rate is within ``(1 + rel_tol)`` of the
        passing rate.  The default 0.1 guarantees the returned rate's
        1.5x multiple sits beyond the observed failure point.
    cost:
        Optional pre-built :class:`BackendCostModel`; every probe shares
        it (one is built over ``runner`` when omitted), so memoized
        latencies carry across the whole search.
    fail_fast:
        Abort each failing probe's simulation the moment attainment can
        no longer reach the threshold (default on).  Probe verdicts and
        the returned rate/report are unchanged — failing probes, half of
        every bisection, just stop early.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    if max_probes < 1:
        raise ValueError("max_probes must be at least 1")
    runner = runner if runner is not None else ExperimentRunner()
    cost = cost if cost is not None else BackendCostModel(backend, runner=runner)
    probes: List[Tuple[float, bool]] = []

    def evaluate(rate_qps: float) -> ServingReport:
        workload = PoissonWorkload(rate_qps, payload, seed=seed)
        report = simulate(
            workload.generate(num_requests),
            cost,
            scheduler_factory(),
            slo=slo,
            fail_fast=fail_fast,
        )
        probes.append((rate_qps, report.meets_slo()))
        return report

    if initial_qps is None:
        # Scale off the first payload of the seeded process: its solo job
        # time bounds the single-stream service rate.
        sample = PoissonWorkload(1.0, payload, seed=seed).generate(1)[0].request
        initial_qps = 1.0 / cost.total_seconds(sample)

    # -- bracket: find a passing rate `low` and a failing rate `high` ----
    probe = initial_qps
    report = evaluate(probe)
    if report.meets_slo():
        low, best = probe, report
        high = None
        for _ in range(_MAX_BRACKET_STEPS):
            if len(probes) >= max_probes:
                break
            probe *= 2.0
            report = evaluate(probe)
            if report.meets_slo():
                low, best = probe, report
            else:
                high = probe
                break
        if high is None:
            raise ValueError(
                f"the SLO is still met at {probe:g} qps "
                f"({2 ** _MAX_BRACKET_STEPS}x the initial probe or the probe "
                "budget); it never constrains this system"
            )
    else:
        high = probe
        low, best = None, None
        for _ in range(_MAX_BRACKET_STEPS):
            if len(probes) >= max_probes:
                break
            probe *= 0.5
            report = evaluate(probe)
            if report.meets_slo():
                low, best = probe, report
                break
            high = probe
        if low is None:
            raise ValueError(
                f"the SLO is violated even at {probe:g} qps (an effectively "
                "unloaded system); it cannot be met by this backend/payload"
            )

    # -- bisect until the bracket is tight -------------------------------
    # When the bracket is already within rel_tol the loop body never runs
    # and the bracket-phase report at `low` is returned as-is: terminating
    # immediately costs zero extra simulations.
    while high / low > 1.0 + rel_tol and len(probes) < max_probes:
        mid = 0.5 * (low + high)
        report = evaluate(mid)
        if report.meets_slo():
            low, best = mid, report
        else:
            high = mid

    return CapacityResult(max_qps=low, report=best, probes=tuple(probes))
