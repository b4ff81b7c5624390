"""The trace renderer's reused text, checked against ``csv.writer``.

``repro.serving.metrics.trace_line`` reuses text instead of calling
``repr`` on every cell: a payload's five cells once per payload object, a
prefill start equal to its arrival as the arrival's text, and the
non-zero float latencies from a bounded table that one trace owns.  Every
row must still be exactly what ``csv.writer`` writes for the same values,
whether a cell came from a table or was rendered afresh.
"""

import csv
import io
import random

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.serving import (
    ContinuousBatchScheduler,
    PoissonWorkload,
    RequestRecord,
    ServingRequest,
    SLOSpec,
    metrics,
    simulate,
    stream,
)
from repro.serving.metrics import (
    TRACE_CELLS,
    TraceCells,
    metric_sample,
    trace_line,
)

PAYLOAD = InferenceRequest(model="opt-6.7b", config="S", seq_len=500, gen_tokens=24)
SLO = SLOSpec(ttft_s=10.0, e2e_s=60.0)

#: Floats whose reprs take each of the shapes ``repr`` writes: plain,
#: long, exponent at 1e16 and above and below 1e-4, subnormal, signed zero.
VALUES = [
    0.1,
    1234.5678901234567,
    1e16,
    3.0000000000000004e17,
    5e-05,
    1.2345e-07,
    5e-324,
    2.2250738585072014e-308,
    0.0,
    -0.0,
]


def _expected(record, sample, device=None):
    """The row ``csv.writer`` writes for ``record``'s fields and ``sample``."""
    queue_wait, ttft, tpot, e2e, _, met = sample
    source = record.source
    request = source.request
    lead = [source.request_id] if device is None else [source.request_id, device]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(
        lead
        + [
            source.arrival_s,
            request.model_name,
            request.config,
            request.seq_len,
            request.gen_tokens,
            request.batch_size,
            record.prefill_start_s,
            record.first_token_s,
            record.finish_s,
            queue_wait,
            ttft,
            tpot,
            e2e,
            met,
        ]
    )
    return buffer.getvalue()


def _row(arrival, stamps, latencies, payload=PAYLOAD, met=True):
    record = RequestRecord(ServingRequest(arrival, 7, payload))
    record.prefill_start_s, record.first_token_s, record.finish_s = stamps
    return record, (*latencies, payload.total_generated_tokens, met)


def _assert_rows_render(rows, cells):
    """Each row matches ``csv.writer``, uncached (fresh cells) and through
    ``cells`` twice: a miss that files its text, then a hit."""
    for record, sample in rows:
        for device in (None, 3):
            expected = _expected(record, sample, device)
            assert trace_line(record, sample, device, TraceCells()) == expected
            assert trace_line(record, sample, device, cells) == expected
            assert trace_line(record, sample, device, cells) == expected


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_every_float_column_renders_as_csv_writer_writes_it(value):
    other = 0.25
    cells = TraceCells()
    rows = [
        # A prefill start equal to the arrival: the arrival's text.
        _row(value, (value, value, value), (value, value, value, value)),
        # Every float column at ``value`` but the arrival.
        _row(other, (value, value, value), (value, value, value, value)),
        # ``value`` once per column, beside other values.
        _row(value, (other, other, other), (other, other, other, other)),
        _row(other, (other, value, other), (other, value, other, value)),
        _row(other, (other, other, value), (value, other, value, other)),
        # Unstamped cells are blank.
        _row(value, (None, None, None), (None, None, None, None), met=None),
        _row(value, (value, None, None), (value, None, None, None), met=False),
    ]
    _assert_rows_render(rows, cells)
    # The latencies were read from the table: every non-zero one is in it,
    # and a zero never is.
    assert other in cells.latencies
    assert (value in cells.latencies) == (value != 0.0)
    assert set(cells.payloads) == {id(PAYLOAD)}


def test_a_signed_zero_keeps_its_own_text():
    """``0.0 == -0.0`` while their reprs differ: neither is served the
    other's text, as a latency or as a prefill start equal to its arrival."""
    cells = TraceCells()
    rows = [
        _row(0.0, (0.0, 1.0, 2.0), (0.0, 1.0, 0.5, 2.0)),
        _row(0.5, (0.5, 1.0, 2.0), (-0.0, 1.0, -0.0, 2.0)),
        _row(-0.0, (0.0, 1.0, 2.0), (0.0, 1.0, 0.0, 2.0)),
        _row(0.0, (-0.0, 1.0, 2.0), (-0.0, 1.0, 0.0, 2.0)),
        _row(0.5, (0.5, 1.0, 2.0), (0.0, 1.0, 0.5, 2.0)),
    ]
    _assert_rows_render(rows, cells)


def test_an_arrival_at_negative_zero_is_prefilled_at_the_first_clock():
    """The loop's clock starts at ``0.0``: a request arriving at ``-0.0``
    starts its prefill there, and both texts survive, kept and streamed."""
    arrivals = [ServingRequest(-0.0, 0, PAYLOAD)] + [
        ServingRequest(0.5 * index, index, PAYLOAD) for index in range(1, 6)
    ]

    def run(**kwargs):
        scheduler = ContinuousBatchScheduler(max_batch=2)
        return simulate(arrivals, ToyBackend(), scheduler, slo=SLO, **kwargs)

    report = run()
    first = report.records[0]
    assert repr(first.source.arrival_s) == "-0.0"
    assert repr(first.prefill_start_s) == "0.0"
    header = report.to_csv().splitlines(keepends=True)[0]
    expected = header + "".join(
        _expected(record, metric_sample(record, SLO)) for record in report.records
    )
    assert report.to_csv() == expected
    assert expected.splitlines()[1].startswith("0,-0.0,opt-6.7b,S,500,24,1,0.0,")
    sink = io.StringIO()
    run(trace_sink=sink, keep_records=False)
    assert sink.getvalue() == expected


def test_equal_values_of_another_type_keep_their_own_text():
    """``2 == 2.0`` while ``repr`` writes ``2`` and ``2.0``: an int stamp
    or latency never reads a float's text, nor a float an int's."""
    cells = TraceCells()
    rows = [
        _row(2.0, (2.0, 3.0, 5.0), (2.0, 1.0, 2.0, 3.0)),
        _row(2, (2, 3, 5), (2, 1, 2, 3)),
        _row(2.0, (2, 3.0, 5.0), (2, 1.0, 2.0, 3)),
        _row(2, (2.0, 3, 5), (2.0, 1, 2, 3.0)),
    ]
    _assert_rows_render(rows, cells)


def _fresh_payloads(rng: random.Random, index: int) -> InferenceRequest:
    # A new payload object per request, as a per-request factory builds them.
    return PAYLOAD.with_overrides(gen_tokens=rng.choice([1, 7, 24, 64]))


def test_more_distinct_text_than_the_tables_hold_renders_the_same_bytes():
    arrivals = PoissonWorkload(3.0, _fresh_payloads, seed=5).generate(1500)
    report = simulate(
        arrivals, ToyBackend(), ContinuousBatchScheduler(max_batch=4), slo=SLO
    )
    samples = [metric_sample(record, SLO) for record in report.records]
    latencies = {value for sample in samples for value in sample[:4] if value}
    assert len(latencies) > 2 * TRACE_CELLS
    payloads = {id(record.source.request) for record in report.records}
    assert len(payloads) > 2 * TRACE_CELLS
    text = report.to_csv()
    header = text.splitlines(keepends=True)[0]
    rows = zip(report.records, samples)
    expected = "".join(_expected(record, sample) for record, sample in rows)
    assert text == header + expected
    sink = io.StringIO()
    simulate(
        arrivals,
        ToyBackend(),
        ContinuousBatchScheduler(max_batch=4),
        slo=SLO,
        trace_sink=sink,
        keep_records=False,
    )
    assert sink.getvalue() == text


def test_every_trace_starts_with_empty_cells(monkeypatch):
    """Kept and streamed traces alike own their tables: each trace's first
    row finds every table empty, and its rows fill them."""
    seen = {}

    def spy(record, sample, device, cells):
        if id(cells) not in seen:
            # The stored object keeps its id from being reused.
            tables = (cells.payloads, cells.pairs, cells.latencies)
            seen[id(cells)] = (cells, *map(len, tables))
        return trace_line(record, sample, device, cells)

    monkeypatch.setattr(metrics, "trace_line", spy)
    monkeypatch.setattr(stream, "trace_line", spy)
    arrivals = PoissonWorkload(3.0, PAYLOAD, seed=2).generate(300)

    def run(**kwargs):
        scheduler = ContinuousBatchScheduler(max_batch=4)
        return simulate(arrivals, ToyBackend(), scheduler, slo=SLO, **kwargs)

    report = run()
    text = report.to_csv()
    assert report.to_csv() == text
    sink = io.StringIO()
    run(trace_sink=sink, keep_records=False)
    assert sink.getvalue() == text
    assert len(seen) == 3
    for cells, *sizes in seen.values():
        assert sizes == [0, 0, 0]
        assert set(cells.payloads) == {id(PAYLOAD)}
        assert 0 < len(cells.latencies) <= TRACE_CELLS
