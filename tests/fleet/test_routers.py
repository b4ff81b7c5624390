"""Tests for the routing policies, homogeneous and heterogeneous."""

import random
from types import SimpleNamespace

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.fleet import (
    JoinShortestQueueRouter,
    LeastWorkRouter,
    MemoryHeadroomRouter,
    RoundRobinRouter,
    SLOAwareRouter,
    build_fleet,
    get_router,
    simulate_fleet,
)
from repro.serving import PoissonWorkload, ServingRequest, SLOSpec

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=3)


def _arrivals(times, payload=PAYLOAD):
    return [
        ServingRequest(arrival_s=t, request_id=i, request=payload)
        for i, t in enumerate(times)
    ]


def test_round_robin_cycles_through_devices_regardless_of_state():
    fleet = build_fleet([ToyBackend() for _ in range(3)])
    report = simulate_fleet(_arrivals([0.0] * 7), fleet, RoundRobinRouter())
    assert report.assignments == [0, 1, 2, 0, 1, 2, 0]


def test_jsq_prefers_the_emptiest_device_with_index_tie_break():
    fleet = build_fleet([ToyBackend() for _ in range(3)])
    # 6 simultaneous arrivals: JSQ levels them 2/2/2 (ties -> lowest index).
    report = simulate_fleet(_arrivals([0.0] * 6), fleet, JoinShortestQueueRouter())
    assert report.assignments == [0, 1, 2, 0, 1, 2]
    assert report.requests_per_device == [2, 2, 2]


def test_jsq_counts_in_flight_work_not_just_the_waiting_queue():
    backend = lambda: ToyBackend(ttft=1.0, step=0.1)  # noqa: E731 - job = 1.3 s
    fleet = build_fleet([backend(), backend()])
    # r0 -> dev0 and starts immediately (not waiting, still outstanding);
    # r1 at t=0.5 must see dev0 as loaded and go to dev1.
    report = simulate_fleet(_arrivals([0.0, 0.5]), fleet, JoinShortestQueueRouter())
    assert report.assignments == [0, 1]


def test_least_work_weighs_requests_by_their_cost():
    long = PAYLOAD.with_overrides(gen_tokens=100)   # 10.2 s on the toy
    short = PAYLOAD.with_overrides(gen_tokens=1)    # 1.1 s
    requests = [
        ServingRequest(arrival_s=0.0, request_id=0, request=long),
        ServingRequest(arrival_s=0.0, request_id=1, request=short),
        ServingRequest(arrival_s=0.0, request_id=2, request=short),
    ]
    backend = lambda: ToyBackend(ttft=1.0, step=0.1)  # noqa: E731
    report = simulate_fleet(
        requests, build_fleet([backend(), backend()]), LeastWorkRouter()
    )
    # JSQ would send r2 to dev0 (1 outstanding each); least-work knows dev0
    # holds 10.2 s of work versus dev1's 1.1 s.
    assert report.assignments == [0, 1, 1]


def test_slo_aware_routing_prefers_the_faster_device_on_a_mixed_fleet():
    fast = ToyBackend(ttft=0.5, step=0.05)
    slow = ToyBackend(ttft=5.0, step=0.5)
    report = simulate_fleet(
        _arrivals([0.0, 0.1]),
        build_fleet([slow, fast]),
        SLOAwareRouter(),
    )
    # Both requests complete faster on the fast device, even queued behind
    # each other: 2 x 0.65 s < 6.5 s solo on the slow one.
    assert report.assignments == [1, 1]
    assert report.device_reports[0].num_requests == 0


def test_slo_aware_beats_round_robin_on_heterogeneous_goodput():
    """The tested example of the ISSUE: mixed fleet, SLO-aware > RR."""
    slo = SLOSpec(e2e_s=4.0, min_attainment=0.5)
    arrivals = PoissonWorkload(1.2, PAYLOAD, seed=11).generate(120)

    def run(router):
        fleet = build_fleet(
            [ToyBackend(ttft=0.5, step=0.05), ToyBackend(ttft=5.0, step=0.5)]
        )
        return simulate_fleet(arrivals, fleet, router, slo=slo)

    aware = run(SLOAwareRouter())
    blind = run(RoundRobinRouter())
    assert aware.goodput_rps() > blind.goodput_rps()
    assert aware.slo_attainment() > blind.slo_attainment()


def test_router_registry_round_trip():
    for name in ("round-robin", "jsq", "least-work", "slo-aware"):
        assert get_router(name).name == name
    with pytest.raises(KeyError, match="unknown router"):
        get_router("random")


def test_routing_is_deterministic_across_runs():
    for router_factory in (
        RoundRobinRouter,
        JoinShortestQueueRouter,
        LeastWorkRouter,
        SLOAwareRouter,
    ):
        def run():
            fleet = build_fleet([ToyBackend() for _ in range(4)])
            return simulate_fleet(
                PoissonWorkload(4.0, PAYLOAD, seed=5).generate(200),
                fleet,
                router_factory(),
            ).assignments

        assert run() == run()


def test_idle_devices_still_report_their_resolved_backend_name():
    """A replica that gets no traffic must not lose its config identity."""
    from repro.api import CambriconBackend
    from repro.core import get_config

    fleet = build_fleet(
        [CambriconBackend(config=get_config("L")),
         CambriconBackend(config=get_config("S"))]
    )
    payload = InferenceRequest(model="opt-6.7b", config=None, seq_len=200, gen_tokens=2)
    report = simulate_fleet(
        [ServingRequest(arrival_s=0.0, request_id=0, request=payload)],
        fleet,
        SLOAwareRouter(),
    )
    # Everything lands on the fast L device; the idle S still names itself.
    assert report.device_names == ["Cambricon-LLM-L", "Cambricon-LLM-S"]
    assert report.device_reports[1].num_requests == 0


def test_routers_cannot_be_reused_across_simulations():
    """A stateful router carried into a second run would break the
    seed-determinism of device assignment; the loop claims it instead."""
    router = RoundRobinRouter()
    fleet = build_fleet([ToyBackend(), ToyBackend()])
    simulate_fleet(_arrivals([0.0, 0.0]), fleet, router)
    with pytest.raises(ValueError, match="fresh"):
        simulate_fleet(
            _arrivals([0.0, 0.0]), build_fleet([ToyBackend(), ToyBackend()]), router
        )


class _RouteLog:
    def __init__(self):
        self.routes = []

    def instant(self, track, name, now, args):
        self.routes.append((args["device"], args["scores"]))


@pytest.mark.parametrize("exclude_unhealthy", [False, True])
def test_headroom_routing_matches_a_reference_scan(exclude_unhealthy):
    """Random free bytes, queue counts and health, drawn from small sets so
    that ties are common: the chosen device is the first minimum of the
    reference scan's scores, and a recorder receives those scores."""
    rng = random.Random(11)
    router = MemoryHeadroomRouter(exclude_unhealthy=exclude_unhealthy)
    log = _RouteLog()
    for trial in range(400):
        devices = [
            SimpleNamespace(
                scheduler=SimpleNamespace(
                    free_dram_bytes=lambda now, free=rng.choice((0, 1, 4)) * 4096: free
                ),
                outstanding=rng.randint(0, 2),
                up=rng.random() < 0.6,
            )
            for _ in range(rng.randint(1, 6))
        ]
        scores = [
            (-device.scheduler.free_dram_bytes(1.0), device.outstanding)
            for device in devices
        ]
        if exclude_unhealthy:
            scores = [(not device.up, score) for device, score in zip(devices, scores)]
        want = min(range(len(devices)), key=scores.__getitem__)
        record = SimpleNamespace(request_id=trial)
        router.recorder = None
        assert router.route(record, devices, 1.0) == want
        router.recorder = log
        assert router.route(record, devices, 1.0) == want
        assert log.routes[-1] == (want, scores)
