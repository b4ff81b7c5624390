"""TimelineCollector: windowed folding, exports, and the run-level invariants.

Unit tests feed synthetic requests, occupancies and instants straight into
a collector, the way the event loops fold them, and pin the hand-computed
window values; the integration half attaches collectors to real
serve/fleet runs and pins the acceptance criteria — byte-identical traces,
completion conservation, seed-stable CSVs, and the deterministic
burn-rate AlertLog on the diurnal fleet run.
"""

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.faults import FaultSpec, RetryPolicy
from repro.fleet import build_fleet, get_router, simulate_fleet
from repro.memory import MemorySpec
from repro.obs import (
    TIMELINE_CSV_FIELDS,
    AlertLog,
    BurnRateRule,
    MetricsSnapshot,
    NullRecorder,
    SpanRecorder,
    TeeRecorder,
    ThresholdRule,
    TimelineCollector,
)
from repro.obs.recorder import DECODE
from repro.obs.timeline import split_observers
from repro.serving import (
    ContinuousBatchScheduler,
    PoissonWorkload,
    RequestRecord,
    ServingRequest,
    SLOSpec,
    load_bundled_trace,
    simulate,
)
from repro.serving.metrics import metric_sample
from repro.units import MiB

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24)
SLO = SLOSpec(ttft_s=10.0, e2e_s=60.0)
TIGHT_SPEC = MemorySpec(dram_bytes=384 * MiB)


def _record(request_id, arrival_s, decode_start_s, finish_s, gen_tokens=4):
    """A served record whose prefill starts and first token lands at
    ``decode_start_s``."""
    payload = PAYLOAD.with_overrides(gen_tokens=gen_tokens)
    return RequestRecord(
        ServingRequest(arrival_s, request_id, payload),
        prefill_start_s=decode_start_s,
        first_token_s=decode_start_s,
        finish_s=finish_s,
    )


def _request(
    collector,
    request_id,
    arrival_s,
    decode_start_s,
    finish_s,
    gen_tokens=4,
):
    """Hand the collector one resolved request the way the loops do: its
    record and the metric sample the report's fold read."""
    record = _record(request_id, arrival_s, decode_start_s, finish_s, gen_tokens)
    collector.resolved(record, metric_sample(record, collector.slo))


# -- windowing ---------------------------------------------------------------

def test_arrivals_window_by_queue_start_completions_by_decode_end():
    collector = TimelineCollector(window_s=10.0)
    _request(collector, 1, arrival_s=9.9, decode_start_s=9.95, finish_s=10.0)
    rows = collector.finalize()
    assert rows[0]["arrivals"] == 1 and rows[0]["completions"] == 0
    assert rows[1]["arrivals"] == 0 and rows[1]["completions"] == 1
    assert rows[0]["arrival_qps"] == pytest.approx(0.1)
    assert rows[1]["completion_qps"] == pytest.approx(0.1)


def test_makespan_extends_the_window_count_past_the_last_event():
    collector = TimelineCollector(window_s=10.0)
    _request(collector, 1, 0.0, 1.0, 2.0)
    rows = collector.finalize(makespan_s=95.0)
    assert len(rows) == 10
    assert rows[-1]["window"] == 9
    assert rows[-1]["start_s"] == 90.0 and rows[-1]["end_s"] == 100.0
    assert rows[-1]["arrivals"] == 0 and rows[-1]["completions"] == 0


def test_window_width_must_be_positive():
    with pytest.raises(ValueError):
        TimelineCollector(window_s=0.0)


def test_finalized_collector_rejects_further_emissions():
    collector = TimelineCollector(window_s=10.0)
    first = collector.finalize(makespan_s=10.0)
    assert collector.finalize() is first  # idempotent
    with pytest.raises(ValueError):
        _request(collector, 1, 0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        collector.span(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        collector.instant("memory", "spill", 0.0, {"bytes": 1})


# -- latency reservoirs ------------------------------------------------------

def test_latencies_come_from_the_metric_sample():
    collector = TimelineCollector(window_s=10.0)
    _request(collector, 1, arrival_s=0.0, decode_start_s=2.0, finish_s=6.0,
             gen_tokens=4)
    row = collector.finalize()[0]
    assert row["ttft_p50_s"] == pytest.approx(2.0)
    assert row["e2e_p50_s"] == pytest.approx(6.0)
    assert row["tpot_p50_s"] == pytest.approx(1.0)  # (6 - 2) / 4 tokens
    # A single sample is every percentile.
    assert row["ttft_p99_s"] == row["ttft_p50_s"]


def test_percentiles_interpolate_within_the_window():
    collector = TimelineCollector(window_s=100.0)
    for index, ttft in enumerate([1.0, 2.0, 3.0, 4.0]):
        _request(collector, index, 0.0, ttft, ttft + 1.0)
    row = collector.finalize()[0]
    assert row["ttft_p50_s"] == pytest.approx(2.5)
    assert row["ttft_p95_s"] == pytest.approx(3.85)
    assert row["e2e_p50_s"] == pytest.approx(3.5)


def test_empty_windows_render_blank_latency_cells():
    collector = TimelineCollector(window_s=10.0)
    rows = collector.finalize(makespan_s=10.0)
    assert rows[0]["ttft_p50_s"] is None
    text = TimelineCollector(window_s=10.0).to_csv()
    assert text.splitlines()[0] == ",".join(TIMELINE_CSV_FIELDS)


# -- SLO columns -------------------------------------------------------------

def test_slo_columns_judge_each_completion():
    slo = SLOSpec(ttft_s=1.0, e2e_s=100.0)
    collector = TimelineCollector(window_s=10.0, slo=slo)
    _request(collector, 1, 0.0, 0.5, 2.0)   # ttft 0.5 -> met
    _request(collector, 2, 0.0, 3.0, 4.0)   # ttft 3.0 -> missed
    row = collector.finalize()[0]
    assert row["completions"] == 2
    assert row["slo_met"] == 1
    assert row["goodput_qps"] == pytest.approx(0.1)


def test_without_an_slo_the_goodput_columns_stay_blank():
    collector = TimelineCollector(window_s=10.0)
    _request(collector, 1, 0.0, 0.5, 2.0)
    row = collector.finalize()[0]
    assert row["slo_met"] is None and row["goodput_qps"] is None


# -- queue depth sweep -------------------------------------------------------

def test_queue_depth_mean_and_max_are_exact():
    collector = TimelineCollector(window_s=10.0)
    # Two overlapping waits: depth 1 on [0,2), 2 on [2,4), 1 on [4,6).
    _request(collector, 1, 0.0, 4.0, 4.0)
    _request(collector, 2, 2.0, 6.0, 6.0)
    row = collector.finalize(makespan_s=10.0)[0]
    assert row["queue_depth_max"] == 2
    assert row["queue_depth_mean"] == pytest.approx(0.8)  # 8 depth-seconds / 10


def test_handoff_at_equal_timestamps_never_inflates_the_max():
    collector = TimelineCollector(window_s=10.0)
    _request(collector, 1, 0.0, 5.0, 5.0)
    _request(collector, 2, 5.0, 10.0, 10.0)
    row = collector.finalize(makespan_s=10.0)[0]
    assert row["queue_depth_max"] == 1
    assert row["queue_depth_mean"] == pytest.approx(1.0)


def test_queue_depth_spreads_across_windows():
    collector = TimelineCollector(window_s=10.0)
    _request(collector, 1, 5.0, 25.0, 25.0)
    rows = collector.finalize(makespan_s=29.0)
    assert [row["queue_depth_mean"] for row in rows] == pytest.approx(
        [0.5, 1.0, 0.5]
    )
    assert [row["queue_depth_max"] for row in rows] == [1, 1, 1]


# -- busy time and utilization -----------------------------------------------

def test_occupancy_spans_distribute_busy_time_over_windows():
    collector = TimelineCollector(window_s=10.0)
    collector.span(0, 5.0, 25.0)
    rows = collector.finalize(makespan_s=29.0)
    assert [row["busy_s"] for row in rows] == pytest.approx([5.0, 10.0, 5.0])
    # One device seen -> the middle window is fully utilized.
    assert rows[1]["utilization"] == pytest.approx(1.0)


def test_utilization_counts_distinct_devices():
    collector = TimelineCollector(window_s=10.0)
    collector.span(0, 0.0, 10.0)
    collector.span(1, 0.0, 5.0)
    row = collector.finalize(makespan_s=10.0)[0]
    assert row["busy_s"] == pytest.approx(15.0)
    assert row["utilization"] == pytest.approx(0.75)  # 15 / (10 * 2 devices)


def test_num_devices_overrides_the_denominator():
    collector = TimelineCollector(window_s=10.0, num_devices=4)
    collector.span(0, 0.0, 10.0)
    row = collector.finalize(makespan_s=10.0)[0]
    assert row["utilization"] == pytest.approx(0.25)


# -- memory columns ----------------------------------------------------------

def test_memory_bytes_fold_and_the_dram_level_carries_forward():
    collector = TimelineCollector(window_s=10.0)
    collector.instant("memory", "spill", 1.0, {"bytes": 100, "seconds": 0.1})
    collector.instant("memory", "refill", 2.0, {"bytes": 40, "seconds": 0.1})
    collector.span(0, 3.0, 4.0, dram_bytes=10)
    collector.span(0, 4.0, 5.0, dram_bytes=30)
    collector.span(0, 5.0, 6.0, dram_bytes=20)
    collector.span(0, 25.0, 26.0, dram_bytes=25)
    rows = collector.finalize(makespan_s=40.0)
    assert rows[0]["kv_spill_bytes"] == 100
    assert rows[0]["kv_refill_bytes"] == 40
    assert rows[0]["kv_dram_peak_bytes"] == 30
    # The quiet window reports the carried-forward level, not a blank.
    assert rows[1]["kv_dram_peak_bytes"] == 20
    assert rows[2]["kv_dram_peak_bytes"] == 25
    assert rows[3]["kv_dram_peak_bytes"] == 25


def test_the_carried_dram_level_is_the_latest_stamp_not_the_last_handed_over():
    """Each device's level is the one stamped latest in the window,
    whatever order its occupancies are handed over in."""
    collector = TimelineCollector(window_s=10.0)
    collector.span(0, 6.0, 7.0, dram_bytes=20)
    collector.span(0, 3.0, 4.0, dram_bytes=30)
    rows = collector.finalize(makespan_s=20.0)
    assert rows[0]["kv_dram_peak_bytes"] == 30
    assert rows[1]["kv_dram_peak_bytes"] == 20


def test_each_replica_carries_its_own_dram_level():
    """A window's peak is the highest level any replica holds in it: the
    levels every device carries in, and the window's own stamps."""
    collector = TimelineCollector(window_s=10.0)
    collector.span(0, 6.0, 7.0, dram_bytes=20)
    collector.span(1, 3.0, 4.0, dram_bytes=30)
    collector.span(1, 25.0, 26.0, dram_bytes=5)
    rows = collector.finalize(makespan_s=39.0)
    assert [row["kv_dram_peak_bytes"] for row in rows] == [30, 30, 30, 20]


def test_without_a_memory_model_the_kv_columns_stay_blank():
    collector = TimelineCollector(window_s=10.0)
    _request(collector, 1, 0.0, 1.0, 2.0)
    row = collector.finalize()[0]
    assert row["kv_spill_bytes"] is None
    assert row["kv_refill_bytes"] is None
    assert row["kv_dram_peak_bytes"] is None


# -- exports -----------------------------------------------------------------

def test_csv_has_the_documented_schema_and_blank_undefined_cells():
    collector = TimelineCollector(window_s=10.0)
    _request(collector, 1, 0.0, 1.0, 2.0)
    lines = collector.to_csv().splitlines()
    assert lines[0] == ",".join(TIMELINE_CSV_FIELDS)
    assert len(lines) == 2
    cells = dict(zip(TIMELINE_CSV_FIELDS, lines[1].split(",")))
    assert cells["arrivals"] == "1"
    assert cells["slo_met"] == ""          # no SLO attached
    assert cells["kv_spill_bytes"] == ""   # no memory model


def test_to_csv_writes_the_file(tmp_path):
    collector = TimelineCollector(window_s=10.0)
    _request(collector, 1, 0.0, 1.0, 2.0)
    path = tmp_path / "timeline.csv"
    text = collector.to_csv(str(path))
    assert path.read_text() == text


def test_registry_view_exposes_per_window_gauges():
    collector = TimelineCollector(window_s=10.0)
    _request(collector, 1, 0.0, 1.0, 2.0)
    _request(collector, 2, 11.0, 12.0, 13.0)
    snapshot = collector.snapshot()
    assert snapshot.value("repro_timeline_arrivals", window="0") == 1
    assert snapshot.value("repro_timeline_arrivals", window="1") == 1
    assert snapshot.value("repro_timeline_completions", window="1") == 1
    # Undefined cells are absent, not zero.
    assert snapshot.value("repro_timeline_slo_met", window="0") is None
    # The gauge view rides the existing Prometheus round-trip path.
    text = snapshot.to_prometheus()
    assert MetricsSnapshot.from_prometheus(text).to_prometheus() == text


# -- integration with the event loops ----------------------------------------

def _serve(arrivals, memory=None, recorder=None):
    return simulate(
        arrivals,
        ToyBackend(),
        ContinuousBatchScheduler(max_batch=4, memory=memory),
        slo=SLO,
        recorder=recorder,
    )


def _poisson():
    return PoissonWorkload(3.0, PAYLOAD, seed=11).generate(120)


def test_timeline_attach_is_byte_invisible_to_the_serve_trace():
    arrivals = _poisson()
    base = _serve(arrivals, memory=TIGHT_SPEC)
    collector = TimelineCollector(window_s=10.0, slo=SLO)
    observed = _serve(arrivals, memory=TIGHT_SPEC, recorder=collector)
    assert observed.to_csv() == base.to_csv()
    assert observed.makespan_s == base.makespan_s
    # ... and the collector still saw the whole run.
    rows = collector.to_rows()
    assert sum(row["completions"] for row in rows) == base.num_completed
    assert sum(row["arrivals"] for row in rows) == len(arrivals)
    assert any(row["kv_spill_bytes"] for row in rows)


def test_timeline_composes_with_a_span_recorder_through_a_tee():
    arrivals = _poisson()
    base = _serve(arrivals)
    spans = SpanRecorder()
    collector = TimelineCollector(window_s=10.0, slo=SLO)
    observed = _serve(arrivals, recorder=TeeRecorder(spans, collector))
    assert observed.to_csv() == base.to_csv()
    assert len(spans.spans(DECODE)) == base.num_completed
    rows = collector.to_rows()
    assert sum(row["completions"] for row in rows) == base.num_completed


def test_the_loops_split_a_recorder_into_span_recorders_and_timelines():
    first, second = SpanRecorder(), SpanRecorder()
    timeline = TimelineCollector(window_s=10.0)
    assert split_observers(None) == (None, ())
    assert split_observers(NullRecorder()) == (None, ())
    assert split_observers(first) == (first, ())
    assert split_observers(timeline) == (None, (timeline,))
    tee = TeeRecorder(first, second)
    assert split_observers(tee) == (tee, ())
    assert split_observers(TeeRecorder(first, timeline)) == (first, (timeline,))
    spans, timelines = split_observers(
        TeeRecorder(first, TeeRecorder(timeline, second))
    )
    assert isinstance(spans, TeeRecorder) and spans.recorders == (first, second)
    assert timelines == (timeline,)


def test_a_timeline_alone_is_fed_folds_not_spans_or_decision_instants():
    """Schedulers and routers of a run a timeline alone observes hold no
    recorder; the memory models still hand it their spill bytes."""
    arrivals = PoissonWorkload(3.0, PAYLOAD, seed=11).generate(60)
    fleet = build_fleet(
        [ToyBackend()] * 2,
        scheduler_factory=lambda: ContinuousBatchScheduler(
            max_batch=4, memory=TIGHT_SPEC
        ),
    )
    router = get_router("headroom")
    collector = TimelineCollector(window_s=10.0, slo=SLO)
    simulate_fleet(arrivals, fleet, router, slo=SLO, recorder=collector)
    assert router.recorder is None
    assert all(device.scheduler.recorder is None for device in fleet)
    assert all(device.memory.recorder is collector for device in fleet)
    assert any(row["kv_spill_bytes"] for row in collector.to_rows())


def test_every_timeline_in_a_tee_folds_the_whole_run():
    arrivals = _poisson()
    alone = TimelineCollector(window_s=10.0, slo=SLO)
    _serve(arrivals, memory=TIGHT_SPEC, recorder=alone)
    first = TimelineCollector(window_s=10.0, slo=SLO)
    second = TimelineCollector(window_s=10.0, slo=SLO)
    _serve(
        arrivals,
        memory=TIGHT_SPEC,
        recorder=TeeRecorder(first, SpanRecorder(), second),
    )
    assert first.to_csv() == second.to_csv() == alone.to_csv()


def test_timeline_totals_equal_the_report_on_a_chaos_fleet():
    """Shed and failed requests are arrivals that never complete, and a
    timed-out request finished but missed its SLO: the windows sum to the
    report's totals."""
    arrivals = PoissonWorkload(2.0, PAYLOAD, seed=11).generate(120)
    fleet = build_fleet(
        [ToyBackend()] * 3,
        scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=2),
    )
    collector = TimelineCollector(window_s=10.0, slo=SLO)
    report = simulate_fleet(
        arrivals,
        fleet,
        get_router("failover"),
        slo=SLO,
        faults=FaultSpec(crash_windows=((0, 10.0, 5.0),), flaky_prob=0.4, seed=5),
        retry=RetryPolicy(max_attempts=2, backoff_s=0.5),
        deadline_s=10.0,
        recorder=collector,
    )
    faults = report.faults
    assert faults.shed and faults.failed and faults.timed_out
    rows = collector.to_rows()
    assert sum(row["arrivals"] for row in rows) == len(arrivals)
    assert sum(row["completions"] for row in rows) == report.num_completed
    assert sum(row["slo_met"] for row in rows) == report.streamed.slo_met


def test_a_timeline_judges_its_own_slo_on_a_run_without_one():
    arrivals = _poisson()
    judged = TimelineCollector(window_s=10.0, slo=SLO)
    _serve(arrivals, recorder=judged)
    unjudged = TimelineCollector(window_s=10.0, slo=SLO)
    simulate(
        arrivals,
        ToyBackend(),
        ContinuousBatchScheduler(max_batch=4),
        recorder=unjudged,
    )
    assert unjudged.to_csv() == judged.to_csv()
    assert sum(row["slo_met"] for row in judged.to_rows()) > 0


def test_timeline_csv_is_seed_stable():
    first = TimelineCollector(window_s=10.0, slo=SLO)
    second = TimelineCollector(window_s=10.0, slo=SLO)
    _serve(_poisson(), memory=TIGHT_SPEC, recorder=first)
    _serve(_poisson(), memory=TIGHT_SPEC, recorder=second)
    assert first.to_csv() == second.to_csv()


def test_loop_finalizes_the_collector_with_the_makespan():
    arrivals = _poisson()
    collector = TimelineCollector(window_s=10.0)
    report = _serve(arrivals, recorder=collector)
    rows = collector.to_rows()  # frozen by the loop's finalize_run
    assert rows[-1]["end_s"] >= report.makespan_s
    with pytest.raises(ValueError):
        collector.span(0, 0.0, 1.0)


# -- the ISSUE acceptance run: diurnal fleet + burn-rate alert ----------------

#: Tight enough that the diurnal peak breaches, roomy enough that the
#: tail recovers: 3 slow devices, small batches, an aggressive SLO.
_DIURNAL_SLO = SLOSpec(ttft_s=5.0, e2e_s=20.0)
_DIURNAL_RULE = dict(objective=0.8, long_s=90.0, short_s=30.0, factor=1.0)


def _diurnal_fleet(recorder=None):
    arrivals = load_bundled_trace("diurnal").generate(150)
    fleet = build_fleet(
        [ToyBackend(ttft=1.0, step=0.1)] * 3,
        scheduler_factory=lambda: ContinuousBatchScheduler(max_batch=2),
    )
    return simulate_fleet(
        arrivals, fleet, get_router("jsq"), slo=_DIURNAL_SLO, recorder=recorder
    )


def _diurnal_collector():
    return TimelineCollector(
        window_s=30.0,
        slo=_DIURNAL_SLO,
        rules=(BurnRateRule("kv-burn", **_DIURNAL_RULE),),
    )


def test_acceptance_diurnal_fleet_trace_is_byte_identical():
    base = _diurnal_fleet()
    collector = _diurnal_collector()
    observed = _diurnal_fleet(recorder=collector)
    assert observed.to_csv() == base.to_csv()
    assert observed.makespan_s == base.makespan_s
    assert observed.num_completed == base.num_completed == 150


def test_acceptance_diurnal_timeline_is_seed_stable_and_conserves_counts():
    first, second = _diurnal_collector(), _diurnal_collector()
    report = _diurnal_fleet(recorder=first)
    _diurnal_fleet(recorder=second)
    assert first.to_csv() == second.to_csv()
    rows = first.to_rows()
    assert sum(row["completions"] for row in rows) == report.num_completed
    assert sum(row["arrivals"] for row in rows) == 150


def test_acceptance_burn_rate_fires_during_the_peak_and_resolves_after():
    collector = _diurnal_collector()
    report = _diurnal_fleet(recorder=collector)
    log = collector.alert_log
    assert isinstance(log, AlertLog)
    # The deterministic event sequence: one fire as the peak's backlog
    # burns the budget, one resolve as the fleet catches back up.
    assert [(e.rule, e.kind, e.window, e.time_s) for e in log] == [
        ("kv-burn", "fire", 7, 240.0),
        ("kv-burn", "resolve", 8, 270.0),
    ]
    # The loop surfaced the same log on the report.
    assert report.alerts == log


def test_acceptance_report_surfaces_the_alert_log():
    collector = _diurnal_collector()
    report = _diurnal_fleet(recorder=collector)
    assert report.alerts == collector.alert_log
    _, rows = report.summary_rows()
    labels = [row[0] for row in rows]
    assert "alerts (fired/resolved)" in labels
    index = labels.index("alerts (fired/resolved)")
    assert rows[index][1] == "1/1"


def test_acceptance_alert_log_is_deterministic_across_runs():
    first, second = _diurnal_collector(), _diurnal_collector()
    _diurnal_fleet(recorder=first)
    _diurnal_fleet(recorder=second)
    assert first.alert_log == second.alert_log


# -- flash-crowd spike through the serve loop --------------------------------

def test_flash_crowd_backlog_threshold_fires_and_resolves():
    """The bundled flash-crowd trace: a ~40x spike floods the queue; a
    backlog threshold rule fires at the spike and resolves at the drain."""
    arrivals = load_bundled_trace("flash_crowd").generate()
    rule = ThresholdRule("backlog", "queue_depth_max", 50, op=">")
    collector = TimelineCollector(window_s=30.0, slo=_DIURNAL_SLO, rules=(rule,))
    report = simulate(
        arrivals,
        ToyBackend(ttft=1.0, step=0.1),
        ContinuousBatchScheduler(max_batch=4),
        slo=_DIURNAL_SLO,
        recorder=collector,
    )
    log = collector.alert_log
    fires, resolves = log.fires("backlog"), log.resolves("backlog")
    assert len(fires) == 1 and len(resolves) == 1
    spike_start = 120.0  # the spike hits around t=130 in the bundled trace
    assert fires[0].time_s > spike_start
    assert resolves[0].time_s < report.makespan_s
    assert fires[0].time_s < resolves[0].time_s
    assert report.alerts == log
