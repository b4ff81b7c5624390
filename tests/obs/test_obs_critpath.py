"""critical_path(): phase attribution, tail picks, and occupancy chains."""

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.memory import MemorySpec
from repro.obs import DECODE, PREFILL, QUEUE, SpanRecorder, critical_path
from repro.serving import ContinuousBatchScheduler, PoissonWorkload, simulate
from repro.units import MiB


def _recorded_request(recorder, request_id, arrival, prefill, first_token, finish):
    args = {"request_id": request_id}
    recorder.span("requests", QUEUE, arrival, prefill, args)
    recorder.span("requests", PREFILL, prefill, first_token, args)
    recorder.span("requests", DECODE, first_token, finish, args)


def _sample():
    recorder = SpanRecorder()
    _recorded_request(recorder, "a", 0.0, 2.0, 3.0, 7.0)   # q=2 p=1 d=4, e2e 7
    _recorded_request(recorder, "b", 1.0, 5.0, 5.5, 6.5)   # q=4 p=0.5 d=1, e2e 5.5
    recorder.span("device", "decode", 0.0, 3.0, {"steps": 30})
    recorder.span("device", "decode", 3.0, 5.0, {"steps": 20})
    recorder.span("device", "decode", 6.0, 7.0, {"steps": 10})
    recorder.instant("memory", "spill", 2.0, {"bytes": 100, "seconds": 0.25})
    recorder.instant("memory", "refill", 4.0, {"bytes": 40, "seconds": 0.75})
    return critical_path(recorder)


# -- per-request attribution -------------------------------------------------

def test_requests_keep_emission_order_and_phase_seconds():
    report = _sample()
    assert [r.request_id for r in report.requests] == ["a", "b"]
    a, b = report.requests
    assert (a.queue_s, a.prefill_s, a.decode_s) == (2.0, 1.0, 4.0)
    assert a.e2e_s == 7.0
    assert a.arrival_s == 0.0 and a.finish_s == 7.0
    assert b.queue_share == pytest.approx(4.0 / 5.5)
    assert b.prefill_share == pytest.approx(0.5 / 5.5)
    assert b.decode_share == pytest.approx(1.0 / 5.5)


def test_totals_sum_across_requests():
    totals = _sample().totals()
    assert totals == {
        "queue": 6.0,
        "prefill": 1.5,
        "decode": 5.0,
        "e2e": 12.5,
    }


def test_shares_of_an_empty_request_are_zero():
    report = critical_path(SpanRecorder())
    assert report.requests == []
    assert report.tail(99) is None
    assert report.makespan_chain is None


# -- tail picks --------------------------------------------------------------

def _tail_report(e2es):
    recorder = SpanRecorder()
    for index, e2e in enumerate(e2es):
        _recorded_request(recorder, index, 0.0, e2e - 2.0, e2e - 1.0, e2e)
    return critical_path(recorder)


def test_tail_picks_the_nearest_rank_request():
    report = _tail_report([10.0, 20.0, 30.0, 40.0])
    # Nearest rank: ceil(q * n / 100), so p50 -> rank 2, p95/p99 -> rank 4.
    assert report.tail(50).e2e_s == 20.0
    assert report.tail(95).e2e_s == 40.0
    assert report.tail(99).e2e_s == 40.0
    assert report.tail(0).e2e_s == 10.0  # clamped to the first rank


def test_tail_breaks_e2e_ties_by_request_id():
    report = _tail_report([10.0, 10.0])
    assert report.tail(50).request_id == 0
    assert report.tail(100).request_id == 1


def test_tail_rejects_out_of_range_percentiles():
    report = _tail_report([10.0])
    with pytest.raises(ValueError):
        report.tail(101)


# -- flash I/O ---------------------------------------------------------------

def test_spill_and_refill_accumulate_seconds_and_bytes():
    report = _sample()
    assert report.spill_s == 0.25 and report.spill_bytes == 100
    assert report.refill_s == 0.75 and report.refill_bytes == 40
    headers, rows = report.attribution_rows()
    labels = [row[0] for row in rows]
    assert "of which: spill write" in labels
    assert "of which: refill/read-through" in labels


def test_io_rows_are_omitted_when_there_was_no_flash_traffic():
    report = _tail_report([10.0])
    _, rows = report.attribution_rows()
    labels = [row[0] for row in rows]
    assert all(not label.startswith("of which") for label in labels)


# -- occupancy chains --------------------------------------------------------

def test_chain_walks_back_through_contiguous_occupancies():
    report = _sample()
    assert len(report.chains) == 1
    chain = report.chains[0]
    # The 6.0 span starts after a gap, so the chain is just that span;
    # the two contiguous earlier spans are not part of it.
    assert chain.track == "device"
    assert (chain.spans, chain.start_s, chain.end_s) == (1, 6.0, 7.0)
    assert chain.seconds == 1.0


def test_back_to_back_occupancies_chain_exactly():
    recorder = SpanRecorder()
    recorder.span("device", "decode", 0.0, 2.5, {})
    recorder.span("device", "decode", 2.5, 4.0, {})
    recorder.span("device", "decode", 4.0, 9.0, {})
    chain = critical_path(recorder).chains[0]
    assert (chain.spans, chain.start_s, chain.end_s) == (3, 0.0, 9.0)


def test_chains_come_in_device_order_whatever_the_emission_order():
    """Spans are emitted as occupancies end, so a later device can emit
    first; the chain table still lists device0, device2, device10."""
    recorder = SpanRecorder()
    recorder.span("device10", "prefill", 0.0, 1.0, {})
    recorder.span("device2", "prefill", 0.0, 2.0, {})
    recorder.span("device0", "prefill", 0.0, 3.0, {})
    tracks = [chain.track for chain in critical_path(recorder).chains]
    assert tracks == ["device0", "device2", "device10"]


def test_makespan_chain_is_the_latest_ending_track():
    recorder = SpanRecorder()
    recorder.span("device0", "decode", 0.0, 5.0, {})
    recorder.span("device1", "decode", 2.0, 8.0, {})
    report = critical_path(recorder)
    assert report.makespan_chain.track == "device1"
    headers, rows = report.chain_rows()
    assert headers[0] == "device (* = makespan)"
    marks = {row[0] for row in rows}
    assert marks == {"device0", "device1 *"}


def test_attribution_rows_include_the_tail_breakdowns():
    headers, rows = _sample().attribution_rows()
    assert headers == ["component", "seconds", "share (%)"]
    labels = [row[0] for row in rows]
    assert labels[:3] == [
        "queue (aggregate)",
        "prefill (aggregate)",
        "decode (aggregate)",
    ]
    for q in (50, 95, 99):
        assert f"p{q} request (q/p/d % of e2e)" in labels


# -- over a real run ---------------------------------------------------------

def test_critical_path_of_a_recorded_serve_run():
    arrivals = PoissonWorkload(
        3.0, InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24), seed=11
    ).generate(120)
    recorder = SpanRecorder()
    report = simulate(
        arrivals,
        ToyBackend(),
        ContinuousBatchScheduler(
            max_batch=4, memory=MemorySpec(dram_bytes=384 * MiB)
        ),
        recorder=recorder,
    )
    attribution = critical_path(recorder)
    assert len(attribution.requests) == report.num_completed
    totals = attribution.totals()
    assert totals["e2e"] == pytest.approx(
        totals["queue"] + totals["prefill"] + totals["decode"]
    )
    # The memory model's flash traffic shows up as "of which" seconds.
    assert attribution.spill_s > 0
    # The device's last occupancy chain ends at the makespan.
    chain = attribution.makespan_chain
    assert chain is not None
    assert chain.end_s == pytest.approx(report.makespan_s)
    # Determinism: the same run attributes identically.
    again = SpanRecorder()
    simulate(
        arrivals,
        ToyBackend(),
        ContinuousBatchScheduler(
            max_batch=4, memory=MemorySpec(dram_bytes=384 * MiB)
        ),
        recorder=again,
    )
    assert critical_path(again).attribution_rows() == attribution.attribution_rows()
    assert critical_path(again).chain_rows() == attribution.chain_rows()
