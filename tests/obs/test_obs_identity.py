"""The observability invariant: recording never changes the simulation.

The hard contract of :mod:`repro.obs` is that a recorder is a read-only
observer — attaching one to any event loop produces the byte-identical
trace CSV, report and makespan that ``recorder=None`` produces.  This
file pins that across the same serve/fleet x poisson/diurnal x
memory-on/off battery the memory suite uses for its golden traces.
"""

import random

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.fleet import build_fleet, get_router, simulate_fleet
from repro.memory import MemorySpec
from repro.obs import DECODE, PREFILL, QUEUE, NullRecorder, SpanRecorder
from repro.serving import (
    ContinuousBatchScheduler,
    PoissonWorkload,
    SLOSpec,
    load_bundled_trace,
    simulate,
)
from repro.units import MiB

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24)
SLO = SLOSpec(ttft_s=10.0, e2e_s=60.0)

#: Tight enough that admissions spill and refill (same recipe as the
#: memory suite's golden battery).
TIGHT_SPEC = MemorySpec(dram_bytes=384 * MiB)


def _mixed_payload(rng: random.Random, index: int) -> InferenceRequest:
    return PAYLOAD.with_overrides(gen_tokens=rng.choice([1, 7, 24, 64]))


WORKLOADS = {
    "poisson": lambda: PoissonWorkload(3.0, _mixed_payload, seed=11).generate(150),
    "diurnal": lambda: load_bundled_trace("diurnal").generate(150),
}

MEMORY = {"bare": None, "memory": TIGHT_SPEC}


def _serve(arrivals, memory=None, recorder=None):
    return simulate(
        arrivals,
        ToyBackend(),
        ContinuousBatchScheduler(max_batch=4, memory=memory),
        slo=SLO,
        recorder=recorder,
    )


def _fleet(arrivals, memory=None, recorder=None):
    fleet = build_fleet(
        [ToyBackend(ttft=1.0, step=0.1)] * 4,
        scheduler_factory=lambda: ContinuousBatchScheduler(
            max_batch=4, memory=memory
        ),
    )
    return simulate_fleet(
        arrivals,
        fleet,
        get_router("jsq"),
        slo=SLO,
        recorder=recorder,
    )


@pytest.mark.parametrize("memory_name", sorted(MEMORY))
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("shape", ["serve", "fleet"])
def test_recording_is_byte_invisible(shape, workload_name, memory_name):
    run = _serve if shape == "serve" else _fleet
    arrivals = WORKLOADS[workload_name]()
    memory = MEMORY[memory_name]

    base = run(arrivals, memory=memory)
    recorder = SpanRecorder()
    recorded = run(arrivals, memory=memory, recorder=recorder)

    assert recorded.to_csv() == base.to_csv()
    assert recorded.makespan_s == base.makespan_s
    assert recorded.num_events == base.num_events
    assert recorded.event_queue == base.event_queue
    # ... and the recorder really saw the run it did not perturb.
    assert len(recorder.events) > 0
    assert recorder.spans(DECODE)


@pytest.mark.parametrize("shape", ["serve", "fleet"])
def test_null_recorder_is_the_disabled_default(shape):
    """NullRecorder takes the exact recorder=None path (enabled gate)."""
    run = _serve if shape == "serve" else _fleet
    arrivals = WORKLOADS["poisson"]()
    base = run(arrivals)
    nulled = run(arrivals, recorder=NullRecorder())
    assert nulled.to_csv() == base.to_csv()
    assert nulled.makespan_s == base.makespan_s


def test_recorded_stream_is_seed_deterministic():
    """Two identically-seeded runs emit the identical event stream."""
    first, second = SpanRecorder(), SpanRecorder()
    _serve(WORKLOADS["poisson"](), memory=TIGHT_SPEC, recorder=first)
    _serve(WORKLOADS["poisson"](), memory=TIGHT_SPEC, recorder=second)
    assert first.events == second.events
    assert first.to_perfetto() == second.to_perfetto()


def test_serve_recorder_sees_every_request_lifecycle():
    arrivals = WORKLOADS["poisson"]()
    recorder = SpanRecorder()
    report = _serve(arrivals, recorder=recorder)
    completed = report.num_completed
    # Every completed request contributes its QUEUE/PREFILL/DECODE spans.
    assert len(recorder.spans(QUEUE)) == completed
    assert len(recorder.spans(PREFILL)) == completed
    assert len(recorder.spans(DECODE)) == completed
    ids = {span[5]["request_id"] for span in recorder.spans(DECODE)}
    assert ids == {record.request_id for record in report.completed_records}
    # Occupancy spans land on the device track with planner annotations.
    occupancies = [s for s in recorder.spans() if s[1] == "device"]
    assert occupancies
    assert all("steps" in span[5] for span in occupancies)


def test_memory_run_emits_spill_and_admission_instants():
    recorder = SpanRecorder()
    report = _serve(WORKLOADS["poisson"](), memory=TIGHT_SPEC, recorder=recorder)
    assert report.memory.spill_events > 0
    spills = recorder.instants("spill")
    assert len(spills) == report.memory.spill_events
    assert sum(s[5]["bytes"] for s in spills) == report.memory.spill_bytes
    verdicts = {i[5]["verdict"] for i in recorder.instants("admit")}
    assert "dram" in verdicts
    # Spill instants land on the memory track, admissions on the device's.
    assert {s[1] for s in spills} == {"memory"}


def test_fleet_recorder_tracks_routing_and_devices():
    recorder = SpanRecorder()
    arrivals = WORKLOADS["poisson"]()
    report = _fleet(arrivals, recorder=recorder)
    routes = recorder.instants("route")
    assert len(routes) == len(arrivals)
    devices = {route[5]["device"] for route in routes}
    assert devices <= {0, 1, 2, 3}
    # JSQ records the per-candidate queue counts it compared.
    assert all(len(route[5]["scores"]) == 4 for route in routes)
    assert report.num_completed == len(arrivals)
    tracks = recorder.tracks()
    assert "router" in tracks
    assert {"device0", "device1", "device2", "device3"} <= set(tracks)


def test_coalescing_instants_explain_the_cap():
    recorder = SpanRecorder()
    _serve(WORKLOADS["poisson"](), recorder=recorder)
    reasons = {i[5]["reason"] for i in recorder.instants("coalesce")}
    assert reasons <= {"completion", "horizon", "max_steps", "dram_fill", "spill"}
    assert "completion" in reasons or "horizon" in reasons


def test_event_queue_debug_counters_populate():
    arrivals = WORKLOADS["poisson"]()
    serve_report = _serve(arrivals)
    stats = serve_report.event_queue
    assert stats["pushes"] == stats["pops"] > 0
    assert stats["max_depth"] >= 1
    assert "event heap push/pop/depth" in str(serve_report.summary_rows())
    fleet_report = _fleet(arrivals)
    assert fleet_report.event_queue["pushes"] == fleet_report.event_queue["pops"] > 0
