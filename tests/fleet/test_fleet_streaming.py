"""Fleet streaming battery: byte identity across schedulers x routers.

Same contract as the single-device streaming tests, with the fleet's
extra column: the bytes streamed to the sink (device assignment included)
must equal ``FleetReport.to_csv()`` of the in-memory run, for every
router and scheduler, coalescing on or off, and a ``keep_records=False``
run must answer fleet-wide and per-device aggregates identically — with
faults, hedges and early exits too.
"""

import io
import random

import pytest

from serving_toys import ToyBackend
from test_fleet_coalescing import HEDGED, SPARSE_CHAOS, SPARSE_SLO

from repro.api import InferenceRequest
from repro.fleet import ROUTERS, build_fleet, get_router, simulate_fleet
from repro.memory import MemorySpec
from repro.serving import (
    ContinuousBatchScheduler,
    DigestSink,
    FCFSScheduler,
    PoissonWorkload,
    SLOSpec,
    StaticBatchScheduler,
)

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24)
SLO = SLOSpec(ttft_s=10.0, e2e_s=60.0)


def _mixed_payload(rng: random.Random, index: int) -> InferenceRequest:
    return PAYLOAD.with_overrides(gen_tokens=rng.choice([1, 7, 24, 64]))


SCHEDULERS = {
    "fcfs": FCFSScheduler,
    "static": lambda: StaticBatchScheduler(max_batch=4),
    "continuous": lambda: ContinuousBatchScheduler(max_batch=4),
}


def _arrivals():
    return PoissonWorkload(6.0, _mixed_payload, seed=11).generate(150)


def _run(arrivals, scheduler_factory, router_name, **kwargs):
    fleet = build_fleet(
        [ToyBackend(ttft=1.0, step=0.1)] * 4, scheduler_factory=scheduler_factory
    )
    return simulate_fleet(
        arrivals, fleet, get_router(router_name), slo=SLO, **kwargs
    )


@pytest.mark.parametrize("router_name", sorted(ROUTERS))
@pytest.mark.parametrize("max_steps", [None, 1])
def test_streamed_fleet_trace_is_byte_identical_to_to_csv(router_name, max_steps):
    arrivals = _arrivals()
    factory = SCHEDULERS["continuous"]
    reference = _run(arrivals, factory, router_name, max_steps=max_steps)
    sink = io.StringIO()
    _run(arrivals, factory, router_name, max_steps=max_steps, trace_sink=sink)
    assert sink.getvalue() == reference.to_csv()


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("router_name", sorted(ROUTERS))
def test_record_dropping_fleet_streams_the_same_bytes(scheduler_name, router_name):
    arrivals = _arrivals()
    factory = SCHEDULERS[scheduler_name]
    reference = _run(arrivals, factory, router_name)
    sink = io.StringIO()
    dropped = _run(
        arrivals, factory, router_name, trace_sink=sink, keep_records=False
    )
    assert sink.getvalue() == reference.to_csv()
    assert dropped.records == []
    assert dropped.assignments == reference.assignments


SPARSE_SPECS = {"plain": {}, "chaos": SPARSE_CHAOS, "hedge": HEDGED}
#: Tight enough that every sparse run below exits early under fail_fast.
EARLY_EXIT_SLO = SLOSpec(e2e_s=2.0)
METRICS = ("ttft", "tpot", "e2e", "queue_wait")


def _sparse_run(arrivals, router_name, options, **kwargs):
    """16 mostly idle replicas (with a KV memory model for the headroom
    router, which steers by free DRAM)."""
    memory = MemorySpec(dram_bytes=2**29) if router_name == "headroom" else None
    fleet = build_fleet(
        [ToyBackend(ttft=0.3, step=0.1)] * 16,
        scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=4, memory=memory),
    )
    return simulate_fleet(
        arrivals, fleet, get_router(router_name), **options, **kwargs
    )


def _aggregates(report):
    """Every aggregate a fleet report answers, fleet-wide and per device."""

    def common(part):
        return (
            part.num_requests,
            part.num_completed,
            [part.percentiles(metric) for metric in METRICS],
            part.slo_attainment(),
            part.goodput_rps(),
        )

    return dict(
        fleet=common(report),
        throughput_rps=report.throughput_rps,
        utilizations=report.utilizations,
        imbalance=report.imbalance,
        requests_per_device=report.requests_per_device,
        devices=[
            common(device) + (device.mean_queue_depth, device.max_queue_depth)
            for device in report.device_reports
        ],
    )


@pytest.mark.parametrize("router_name", sorted(ROUTERS))
def test_streamed_fleet_aggregates_match_the_in_memory_report(router_name):
    """{plain, chaos, hedge} x {whole run, fail_fast early exit} x
    {metrics only, digest sink}: every aggregate of a record-dropping run,
    per-device ones included, equals the record-keeping run's."""
    arrivals = PoissonWorkload(3.0, _mixed_payload, seed=0).generate(300)
    for spec, options in SPARSE_SPECS.items():
        for early_exit in (False, True):
            slo = EARLY_EXIT_SLO if early_exit else SPARSE_SLO
            run = dict(options, slo=slo, fail_fast=early_exit)
            reference = _sparse_run(arrivals, router_name, run)
            assert reference.early_exit == early_exit
            # Each routed record folds into the device its trace row names.
            assert reference.requests_per_device == [
                reference.assignments.count(index) for index in range(16)
            ], spec
            expected = _aggregates(reference)
            for sink in (None, DigestSink()):
                dropped = _sparse_run(
                    arrivals, router_name, run, trace_sink=sink, keep_records=False
                )
                assert dropped.streamed is not None
                case = (spec, early_exit, sink is not None)
                assert _aggregates(dropped) == expected, case


def test_a_hedge_win_files_its_primary_under_the_winning_device():
    """Every kept primary sits in exactly one device's records: the device
    its trace row names — also when its hedge won while it waited out a
    retry backoff on no device."""
    arrivals = PoissonWorkload(3.0, _mixed_payload, seed=2).generate(300)
    fleet = build_fleet(
        [ToyBackend(ttft=0.3, step=0.1)] * 4,
        scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=4),
    )
    report = simulate_fleet(arrivals, fleet, get_router("failover"), **HEDGED)
    assert report.faults.hedge_wins > 0 and report.faults.retries > 0
    owner = {}
    for index, device in enumerate(report.device_reports):
        for record in device.records:
            assert id(record) not in owner
            owner[id(record)] = index
    assert len(owner) == len(report.records)
    assert [owner.get(id(record)) for record in report.records] == report.assignments


def test_record_dropping_fleet_report_refuses_to_csv():
    dropped = _run(_arrivals(), FCFSScheduler, "jsq", keep_records=False)
    with pytest.raises(ValueError, match="keep_records=False"):
        dropped.to_csv()


def test_fleet_trace_sink_accepts_a_path(tmp_path):
    arrivals = _arrivals()
    reference = _run(arrivals, FCFSScheduler, "jsq")
    path = tmp_path / "fleet_trace.csv"
    _run(arrivals, FCFSScheduler, "jsq", trace_sink=str(path), keep_records=False)
    assert path.read_text() == reference.to_csv()


def test_lazy_generator_stream_matches_the_materialized_fleet_run():
    workload = PoissonWorkload(6.0, _mixed_payload, seed=11)
    reference = _run(workload.generate(150), FCFSScheduler, "jsq")
    sink = io.StringIO()
    dropped = _run(
        workload.stream(150),
        FCFSScheduler,
        "jsq",
        trace_sink=sink,
        keep_records=False,
    )
    assert sink.getvalue() == reference.to_csv()
    assert dropped.num_requests == reference.num_requests


def test_fleet_early_exit_trace_still_covers_every_request():
    slo = SLOSpec(e2e_s=2.0, min_attainment=0.99)
    arrivals = PoissonWorkload(40.0, PAYLOAD, seed=3).generate(200)

    def run(**kwargs):
        fleet = build_fleet([ToyBackend(ttft=1.0, step=0.1)] * 2)
        return simulate_fleet(
            arrivals, fleet, get_router("jsq"), slo=slo, fail_fast=True, **kwargs
        )

    reference = run()
    assert reference.early_exit
    sink = io.StringIO()
    run(trace_sink=sink)
    assert sink.getvalue() == reference.to_csv()
    assert sink.getvalue().count("\n") == len(arrivals) + 1
