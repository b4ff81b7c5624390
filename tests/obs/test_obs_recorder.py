"""SpanRecorder semantics and the Perfetto trace-event export."""

import json

import pytest

from repro.obs import DECODE, PREFILL, QUEUE, SpanRecorder
from repro.obs.recorder import record_request_phases


def _sample() -> SpanRecorder:
    recorder = SpanRecorder()
    recorder.span("device", "decode", 0.0, 2.0, {"steps": 20})
    recorder.instant("device", "admit", 0.5, {"request_id": 1})
    recorder.span("requests", QUEUE, 0.0, 0.5, {"request_id": 1})
    recorder.span("requests", DECODE, 1.0, 2.0, {"request_id": 1})
    recorder.span("device", "decode", 2.0, 2.5, {"steps": 5})
    return recorder


class _Record:
    request_id = 7
    arrival_s = 1.0
    prefill_start_s = 2.0
    first_token_s = 3.0
    finish_s = 5.0


def test_recorder_collects_and_filters():
    recorder = _sample()
    assert len(recorder) == 5
    assert len(recorder.spans()) == 4
    assert len(recorder.spans("decode")) == 2
    assert len(recorder.instants("admit")) == 1
    assert recorder.instants("nope") == []
    assert recorder.tracks() == ["device", "requests"]


def test_top_spans_ranks_by_total_duration():
    ranked = _sample().top_spans()
    assert ranked[0] == ("decode", 2.5, 2)
    # Ties (1.0s vs ... ) then alphabetical; QUEUE 0.5 last.
    assert [name for name, _, _ in ranked] == ["decode", DECODE, QUEUE]
    assert _sample().top_spans(1) == [("decode", 2.5, 2)]


def test_top_spans_ties_break_by_first_track_then_start_then_name():
    """Equal totals order deterministically: the name seen first on the
    earlier track (then the earlier start, then alphabetically) wins."""
    recorder = SpanRecorder()
    recorder.span("b-track", "zeta", 0.0, 1.0)
    recorder.span("a-track", "eta", 0.5, 1.5)
    recorder.span("a-track", "theta", 0.7, 1.7)
    ranked = recorder.top_spans()
    # All three total 1.0s; a-track's names lead, ordered by first start.
    assert [name for name, _, _ in ranked] == ["eta", "theta", "zeta"]
    # Same track, same start: alphabetical last resort.
    recorder = SpanRecorder()
    recorder.span("t", "bb", 2.0, 3.0)
    recorder.span("t", "aa", 2.0, 3.0)
    assert [name for name, _, _ in recorder.top_spans()] == ["aa", "bb"]


def test_record_request_phases_emits_the_three_spans():
    recorder = SpanRecorder()
    record_request_phases(recorder, "requests", _Record(), {"device": 3})
    names = [event[2] for event in recorder.events]
    assert names == [QUEUE, PREFILL, DECODE]
    spans = {event[2]: (event[3], event[3] + event[4]) for event in recorder.events}
    assert spans == {QUEUE: (1.0, 2.0), PREFILL: (2.0, 3.0), DECODE: (3.0, 5.0)}
    assert all(e[5] == {"request_id": 7, "device": 3} for e in recorder.events)


@pytest.mark.parametrize(
    "missing, expected",
    [
        ("prefill_start_s", []),
        ("first_token_s", [QUEUE]),
        ("finish_s", [QUEUE, PREFILL]),
    ],
)
def test_record_request_phases_guards_partial_stamps(missing, expected):
    record = _Record()
    setattr(record, missing, None)
    recorder = SpanRecorder()
    record_request_phases(recorder, "requests", record)
    assert [event[2] for event in recorder.events] == expected


def test_record_request_phases_stamps_gen_tokens_from_the_request():
    class _Request:
        gen_tokens = 24

    record = _Record()
    record.request = _Request()
    recorder = SpanRecorder()
    record_request_phases(recorder, "requests", record)
    assert all(
        event[5] == {"request_id": 7, "gen_tokens": 24}
        for event in recorder.events
    )


# -- TeeRecorder --------------------------------------------------------------

def test_tee_forwards_to_every_enabled_child():
    from repro.obs import NullRecorder, TeeRecorder

    first, second = SpanRecorder(), SpanRecorder()
    tee = TeeRecorder(first, None, NullRecorder(), second)
    assert tee.enabled
    tee.span("t", "s", 0.0, 1.0, {"k": 1})
    tee.instant("t", "i", 0.5)
    assert first.events == second.events
    assert len(first.events) == 2


def test_tee_with_no_enabled_children_reports_disabled():
    from repro.obs import NullRecorder, TeeRecorder

    tee = TeeRecorder(None, NullRecorder())
    assert tee.recorders == ()
    assert not tee.enabled


def test_tee_finalize_run_returns_the_first_payload():
    from repro.obs import TeeRecorder
    from repro.obs.recorder import Recorder

    class _Finalizing(Recorder):
        enabled = True

        def __init__(self, payload):
            self.payload = payload
            self.finalized_with = None

        def finalize_run(self, makespan_s):
            self.finalized_with = makespan_s
            return self.payload

    silent = _Finalizing(None)
    loud = _Finalizing("alerts")
    later = _Finalizing("ignored")
    tee = TeeRecorder(silent, loud, later)
    assert tee.finalize_run(42.0) == "alerts"
    # Every child is finalized even after the payload is found.
    assert (silent.finalized_with, loud.finalized_with, later.finalized_with) == (
        42.0, 42.0, 42.0
    )


def test_base_recorder_finalize_run_is_a_no_op():
    from repro.obs.recorder import Recorder

    assert Recorder().finalize_run(10.0) is None


# -- Perfetto export ----------------------------------------------------------

def test_perfetto_schema():
    text = _sample().to_perfetto()
    document = json.loads(text)
    assert set(document) == {"displayTimeUnit", "traceEvents"}
    events = document["traceEvents"]
    # One thread_name metadata record per track, leading the stream.
    metadata = [e for e in events if e["ph"] == "M"]
    assert [m["args"]["name"] for m in metadata] == ["device", "requests"]
    assert events[: len(metadata)] == metadata
    tids = {m["args"]["name"]: m["tid"] for m in metadata}
    assert tids == {"device": 0, "requests": 1}
    spans = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(spans) == 4 and len(instants) == 1
    # Simulated seconds map to trace microseconds.
    first = spans[0]
    assert first["ts"] == 0.0 and first["dur"] == 2e6
    assert first["tid"] == tids["device"]
    assert instants[0]["s"] == "t" and instants[0]["ts"] == 0.5e6
    assert all(e["pid"] == 0 for e in events)


def test_perfetto_is_byte_stable():
    assert _sample().to_perfetto() == _sample().to_perfetto()
    # Compact, sorted-keys serialization: no whitespace, ordered keys.
    text = _sample().to_perfetto()
    assert ": " not in text
    assert text.index('"displayTimeUnit"') < text.index('"traceEvents"')


def test_perfetto_writes_the_file(tmp_path):
    path = tmp_path / "trace.json"
    text = _sample().to_perfetto(str(path))
    assert path.read_text() == text + "\n"
    assert json.loads(path.read_text())["traceEvents"]


def test_empty_recorder_exports_an_empty_trace():
    assert json.loads(SpanRecorder().to_perfetto())["traceEvents"] == []


def test_perfetto_track_ids_do_not_depend_on_emission_order():
    """Tracks are numbered by name, then numeric suffix (``device2``
    before ``device10``): the same events emitted in another track order
    give every track the same ``tid``."""
    events = [
        ("requests", QUEUE, 0.0, 0.5),
        ("device10", "decode", 0.0, 1.0),
        ("memory2", "spill", 0.2, 0.3),
        ("device2", "prefill", 0.5, 1.5),
        ("device", "decode", 1.0, 2.0),
    ]

    def tids(order):
        recorder = SpanRecorder()
        for track, name, start, end in order:
            recorder.span(track, name, start, end)
        events = json.loads(recorder.to_perfetto())["traceEvents"]
        return {e["args"]["name"]: e["tid"] for e in events if e["ph"] == "M"}

    forward = tids(events)
    assert tids(events[::-1]) == forward
    assert forward == {
        "device": 0,
        "device2": 1,
        "device10": 2,
        "memory2": 3,
        "requests": 4,
    }
