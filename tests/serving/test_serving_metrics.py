"""Tests for percentiles, SLO specs and the serving report."""

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.serving import (
    BackendCostModel,
    RequestRecord,
    ServingReport,
    ServingRequest,
    SLOSpec,
    StaticBatchScheduler,
    percentile,
)


def _record(arrival, start, first, finish, request_id=0, gen_tokens=4):
    return RequestRecord(
        source=ServingRequest(
            arrival_s=arrival,
            request_id=request_id,
            request=InferenceRequest(
                model="opt-6.7b", seq_len=100, gen_tokens=gen_tokens
            ),
        ),
        prefill_start_s=start,
        first_token_s=first,
        finish_s=finish,
    )


def _report(records, makespan=10.0, busy=8.0, slo=None):
    return ServingReport(
        backend_name="toy",
        scheduler_name="fcfs",
        records=records,
        makespan_s=makespan,
        busy_s=busy,
        slo=slo,
    )


# -- percentile ---------------------------------------------------------------

def test_percentile_interpolates_linearly():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 100
    assert percentile(values, 99) == pytest.approx(99.01)


def test_percentile_handles_small_and_empty_inputs():
    assert percentile([7.0], 99) == 7.0
    assert percentile([], 50) is None
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_percentile_is_order_independent():
    assert percentile([3.0, 1.0, 2.0], 50) == percentile([1.0, 2.0, 3.0], 50)


# -- request record metrics ---------------------------------------------------

def test_record_derives_all_latency_metrics():
    record = _record(arrival=1.0, start=3.0, first=4.0, finish=6.0, gen_tokens=4)
    assert record.queue_wait_s == pytest.approx(2.0)
    assert record.ttft_s == pytest.approx(3.0)
    assert record.e2e_s == pytest.approx(5.0)
    assert record.tpot_s == pytest.approx(0.5)
    assert record.completed


# -- SLO spec -----------------------------------------------------------------

def test_slospec_met_by_checks_every_threshold():
    record = _record(arrival=0.0, start=1.0, first=2.0, finish=4.0, gen_tokens=4)
    assert SLOSpec(ttft_s=2.0).met_by(record)
    assert not SLOSpec(ttft_s=1.9).met_by(record)
    assert SLOSpec(e2e_s=4.0).met_by(record)
    assert not SLOSpec(e2e_s=3.9).met_by(record)
    assert SLOSpec(tpot_s=0.5).met_by(record)
    assert not SLOSpec(ttft_s=2.0, tpot_s=0.4).met_by(record)


def test_slospec_validation():
    with pytest.raises(ValueError):
        SLOSpec()  # no thresholds at all
    with pytest.raises(ValueError):
        SLOSpec(ttft_s=-1.0)
    with pytest.raises(ValueError):
        SLOSpec(ttft_s=1.0, min_attainment=0.0)


# -- report -------------------------------------------------------------------

def test_report_rates_and_utilization():
    records = [
        _record(0.0, 0.0, 1.0, 2.0, request_id=0),
        _record(1.0, 2.0, 3.0, 4.0, request_id=1),
    ]
    report = _report(records, makespan=10.0, busy=8.0)
    assert report.num_requests == 2
    assert report.utilization == pytest.approx(0.8)
    assert report.throughput_rps == pytest.approx(0.2)
    assert report.tokens_per_second == pytest.approx(2 * 4 / 10.0)


def test_queue_depth_stats_fold_the_step_function():
    """The scheduler folds its queue where it changes: three requests join
    at t=2, a batch of two leaves at t=6 and the last request at t=10."""
    scheduler = StaticBatchScheduler(max_batch=2)
    cost = BackendCostModel(ToyBackend())
    for request_id in range(3):
        scheduler.enqueue(_record(2.0, None, None, None, request_id), 2.0)
    scheduler.next_occupancy(6.0, cost)
    scheduler.next_occupancy(10.0, cost)
    area, max_depth = scheduler.finalize(10.0)
    assert max_depth == 3
    # Step function: 0 until t=2, 3 until t=6, 1 until t=10.
    assert area == pytest.approx(3 * 4 + 1 * 4)
    # The fold restarts for the scheduler's next run.
    assert scheduler.finalize(0.0) == (0.0, 0)


def test_report_attainment_goodput_and_verdict():
    records = [
        _record(0.0, 0.0, 0.5, 1.0, request_id=0),   # fast: meets
        _record(0.0, 4.0, 5.0, 9.0, request_id=1),   # slow: violates ttft
    ]
    slo = SLOSpec(ttft_s=1.0, min_attainment=0.5)
    report = _report(records, slo=slo)
    assert report.slo_attainment() == pytest.approx(0.5)
    assert report.goodput_rps() == pytest.approx(0.5 * report.throughput_rps)
    assert report.meets_slo()
    assert not report.meets_slo(SLOSpec(ttft_s=1.0, min_attainment=0.95))
    with pytest.raises(ValueError):
        _report(records).slo_attainment()  # no spec anywhere


def test_report_summary_and_markdown_include_slo_rows_only_with_a_spec():
    records = [_record(0.0, 0.0, 0.5, 1.0)]
    bare = _report(records)
    headers, rows = bare.summary_rows()
    assert headers == ["metric", "value"]
    labels = [row[0] for row in rows]
    assert "goodput (req/s)" not in labels
    with_slo = _report(records, slo=SLOSpec(ttft_s=1.0))
    labels = [row[0] for row in with_slo.summary_rows()[1]]
    assert "goodput (req/s)" in labels and "meets SLO" in labels
    markdown = with_slo.to_markdown()
    assert markdown.splitlines()[0] == "| metric | value |"


def test_report_csv_contains_the_per_request_trace(tmp_path):
    records = [
        _record(0.0, 0.0, 0.5, 1.0, request_id=0),
        _record(1.0, 2.0, 3.0, 4.0, request_id=1),
    ]
    report = _report(records, slo=SLOSpec(ttft_s=1.0))
    path = tmp_path / "trace.csv"
    text = report.to_csv(str(path))
    assert path.read_text() == text
    lines = text.splitlines()
    assert lines[0].startswith("request_id,arrival_s,model")
    assert len(lines) == 3
    assert lines[1].endswith("True")   # fast request met the SLO
    assert lines[2].endswith("False")  # slow one did not


# -- robustness: reports with incomplete or no records ------------------------

def _empty_report(slo=None):
    return ServingReport(
        backend_name="toy",
        scheduler_name="fcfs",
        records=[],
        makespan_s=0.0,
        busy_s=0.0,
        slo=slo,
    )


def test_report_with_zero_requests_renders_everywhere():
    """Regression: nothing completed must still produce a usable report."""
    report = _empty_report(slo=SLOSpec(ttft_s=1.0))
    assert report.percentiles("ttft") == {"p50": None, "p95": None, "p99": None}
    assert report.throughput_rps == 0.0
    assert report.slo_attainment() == 0.0
    assert not report.meets_slo()
    headers, rows = report.summary_rows()
    assert headers == ["metric", "value"]
    assert "-/-/-" in [row[1] for row in rows]  # empty percentile triplets
    markdown = report.to_markdown()
    assert "| TTFT p50/p95/p99 (s) | -/-/- |" in markdown
    csv_text = report.to_csv()
    assert csv_text.startswith("request_id,")
    assert len(csv_text.splitlines()) == 1  # header only


def test_report_with_unfinished_records_uses_only_stamped_metrics():
    """A request stuck in the queue (no stamps) contributes nothing."""
    finished = _record(0.0, 0.0, 0.5, 1.0, request_id=0)
    stuck = _record(0.5, None, None, None, request_id=1)
    report = _report([finished, stuck], makespan=10.0, busy=1.0,
                     slo=SLOSpec(ttft_s=1.0))
    assert report.num_requests == 2
    assert report.num_completed == 1
    assert report.ttfts == [0.5]
    assert report.tpots == [0.125]
    assert report.e2es == [1.0]
    assert report.throughput_rps == pytest.approx(0.1)   # completed only
    assert report.total_output_tokens == 4               # completed only
    assert report.slo_attainment() == pytest.approx(0.5)  # stuck can't meet
    report.summary_rows()
    report.to_markdown()
    lines = report.to_csv().splitlines()
    assert len(lines) == 3
    assert ",,,,,False" in lines[2]  # blank timestamps, SLO not met


def test_slospec_never_met_by_an_unfinished_record():
    stuck = _record(0.0, 1.0, None, None)
    assert not SLOSpec(ttft_s=100.0).met_by(stuck)


# -- percentile edge cases ----------------------------------------------------

def test_percentile_single_element_is_constant_in_q():
    for q in (0.0, 25.0, 50.0, 99.9, 100.0):
        assert percentile([3.5], q) == 3.5


def test_percentile_accepts_unsorted_input_without_mutating_it():
    values = [9.0, 1.0, 5.0, 3.0, 7.0]
    copy = list(values)
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 9.0
    assert percentile(values, 50) == 5.0
    assert values == copy


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        percentile([1.0], -0.1)
    with pytest.raises(ValueError):
        percentile([1.0], 100.1)


def test_goodput_counts_met_requests_directly_with_incomplete_records():
    """Regression: attainment (over all) x throughput (over completed)
    double-discounted goodput when some requests never finished."""
    met = _record(0.0, 0.0, 0.5, 1.0, request_id=0)
    stuck = _record(0.5, None, None, None, request_id=1)
    report = _report([met, stuck], makespan=10.0, busy=1.0,
                     slo=SLOSpec(ttft_s=1.0))
    assert report.slo_attainment() == pytest.approx(0.5)
    assert report.throughput_rps == pytest.approx(0.1)
    assert report.goodput_rps() == pytest.approx(0.1)  # 1 met / 10 s
