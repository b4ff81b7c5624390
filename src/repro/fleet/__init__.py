"""Multi-device fleet simulation: routing, sharding and fleet sizing.

:mod:`repro.serving` answers "what happens when a queue of users hits one
device"; this package asks the cluster question on top of it: *how many
devices, wired how, does a target load need?*  Every registered
:class:`repro.api` backend — the Cambricon-LLM chiplet configurations,
the FlexGen offloading hosts, MLC-LLM — becomes a fleet building block:

* a :class:`Device` wraps one scheduler plus one memoized
  :class:`repro.serving.simulator.BackendCostModel` (a fleet *replica*);
* a :class:`ShardingSpec` derives a tensor-/pipeline-sharded replica from
  a base backend as a pure per-phase latency transform;
* a :class:`Router` assigns each arrival to a device — round-robin,
  join-shortest-queue, least-work, SLO/heterogeneity-aware,
  memory-headroom (most free KV DRAM), or health-aware failover
  (:mod:`repro.faults` runs);
* :func:`simulate_fleet` merges the per-device timelines into one
  deterministic :class:`FleetReport` (aggregate percentiles and goodput,
  per-device utilization and queue depth, imbalance);
* :func:`size_fleet` searches replica counts and sharding degrees for the
  cheapest fleet that sustains a target qps under an SLO.

::

    from repro.api import InferenceRequest
    from repro.fleet import JoinShortestQueueRouter, build_fleet, simulate_fleet
    from repro.serving import PoissonWorkload, SLOSpec

    payload = InferenceRequest(model="llama2-7b", config="L", gen_tokens=32)
    fleet = build_fleet(["cambricon"] * 4)
    report = simulate_fleet(
        PoissonWorkload(2.0, payload, seed=0).generate(1000),
        fleet,
        JoinShortestQueueRouter(),
        slo=SLOSpec(ttft_s=5.0, e2e_s=60.0),
    )
    print(report.percentiles("ttft"), report.utilizations, report.imbalance)

Everything stays seeded and wall-clock free: a fixed seed reproduces the
fleet trace — including each request's device assignment — byte for byte,
and a 1-replica unsharded fleet reproduces ``repro.serving.simulate()``
exactly.  Exposed on the CLI as ``python -m repro fleet``.
"""

from repro.fleet.device import Device
from repro.fleet.report import FleetReport
from repro.fleet.router import (
    ROUTERS,
    FailoverRouter,
    JoinShortestQueueRouter,
    LeastWorkRouter,
    MemoryHeadroomRouter,
    RoundRobinRouter,
    Router,
    SLOAwareRouter,
    get_router,
)
from repro.fleet.sharding import ShardedBackend, ShardingSpec
from repro.fleet.simulator import build_fleet, simulate_fleet
from repro.fleet.sizing import FleetSizingResult, SizingProbe, size_fleet
from repro.serving.metrics import FLEET_TRACE_CSV_FIELDS

__all__ = [
    "Device",
    "FleetReport",
    "FLEET_TRACE_CSV_FIELDS",
    "Router",
    "RoundRobinRouter",
    "JoinShortestQueueRouter",
    "LeastWorkRouter",
    "SLOAwareRouter",
    "MemoryHeadroomRouter",
    "FailoverRouter",
    "ROUTERS",
    "get_router",
    "ShardingSpec",
    "ShardedBackend",
    "build_fleet",
    "simulate_fleet",
    "size_fleet",
    "FleetSizingResult",
    "SizingProbe",
]
