"""The trace renderer and the streamer's writes, serve and fleet alike.

Every trace row, kept or streamed, is rendered by
``repro.serving.metrics.trace_line``: the model name and config are the
only cells that can need CSV quoting.  The streamer writes the sink in
batches, and a run that raises still leaves every row it released in
arrival order in the sink.
"""

import csv
import io

import pytest

from serving_toys import ToyBackend

from repro.api import InferenceRequest
from repro.fleet import build_fleet, simulate_fleet
from repro.fleet.router import JoinShortestQueueRouter
from repro.serving import ContinuousBatchScheduler, PoissonWorkload, SLOSpec, simulate
from repro.serving import stream

PAYLOAD = InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=24)
SLO = SLOSpec(ttft_s=10.0, e2e_s=60.0)
SHAPES = ["serve", "fleet"]


def _mixed(gen_tokens=(1, 7, 24, 64), payload=PAYLOAD):
    def make(rng, index):
        return payload.with_overrides(gen_tokens=rng.choice(gen_tokens))

    return make


def _scheduler():
    return ContinuousBatchScheduler(max_batch=4)


def _run(shape, arrivals, router=None, **kwargs):
    if shape == "serve":
        return simulate(arrivals, ToyBackend(), _scheduler(), slo=SLO, **kwargs)
    fleet = build_fleet([ToyBackend()] * 4, scheduler_factory=_scheduler)
    router = router if router is not None else JoinShortestQueueRouter()
    return simulate_fleet(arrivals, fleet, router, slo=SLO, **kwargs)


@pytest.mark.parametrize("shape", SHAPES)
def test_model_and_config_cells_are_quoted_as_csv_writer_quotes_them(shape):
    model, config = 'opt "6.7b", tuned', "S,tuned"
    payload = InferenceRequest(model=model, config=config, seq_len=500)
    arrivals = PoissonWorkload(3.0, _mixed(payload=payload), seed=5).generate(60)
    text = _run(shape, arrivals).to_csv()
    sink = io.StringIO()
    _run(shape, arrivals, trace_sink=sink, keep_records=False)
    assert sink.getvalue() == text
    header, *rows = csv.reader(io.StringIO(text))
    assert len(rows) == len(arrivals)
    for row in rows:
        assert len(row) == len(header)
        assert row[header.index("model")] == model
        assert row[header.index("config")] == config


class CountingSink(io.StringIO):
    """An in-memory sink counting its ``write`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("shape", SHAPES)
def test_a_streamed_trace_is_written_in_batches(shape):
    rate = 2.0 if shape == "serve" else 8.0
    arrivals = PoissonWorkload(rate, _mixed((1, 7, 24)), seed=3).generate(2000)
    reference = _run(shape, arrivals).to_csv()
    sink = CountingSink()
    _run(shape, arrivals, trace_sink=sink, keep_records=False)
    assert sink.getvalue() == reference
    rows = reference.count("\n") - 1
    assert rows == 2000
    assert sink.writes <= rows / 100


class RaisingRouter(JoinShortestQueueRouter):
    """Join-shortest-queue routing that raises on its ``fail_at``-th route."""

    def __init__(self, fail_at: int) -> None:
        super().__init__()
        self.fail_at = fail_at
        self.routes = 0

    def route(self, record, devices, now):
        self.routes += 1
        if self.routes == self.fail_at:
            raise RuntimeError("route failed")
        return super().route(record, devices, now)


@pytest.mark.parametrize("sink_kind", ["file-like", "path"])
def test_a_run_that_raises_leaves_the_in_order_prefix_in_the_sink(
    sink_kind, tmp_path, monkeypatch
):
    arrivals = PoissonWorkload(3.0, _mixed(), seed=7).generate(1200)
    fail_at = 1000
    reference = _run("fleet", arrivals)
    # The failing route is the arrival's: rows resolved before it are those
    # finished by its arrival (completions due at an instant are stamped
    # before that instant's arrivals are routed).
    raised_at = arrivals[fail_at - 1].arrival_s
    header, *rows = reference.to_csv().splitlines(keepends=True)
    resolved = [record.finish_s <= raised_at for record in reference.records]
    assert raised_at not in {record.finish_s for record in reference.records}
    prefix = resolved.index(False)
    # Rows resolved out of order wait behind an unresolved one, and the
    # prefix spans several batches.
    assert sum(resolved) > prefix > 700
    expected = header + "".join(rows[:prefix])

    opened = []
    if sink_kind == "path":
        def tracking_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr(stream, "open", tracking_open, raising=False)
        sink = tmp_path / "trace.csv"
    else:
        sink = io.StringIO()
    with pytest.raises(RuntimeError, match="route failed"):
        _run(
            "fleet",
            arrivals,
            router=RaisingRouter(fail_at),
            trace_sink=sink,
            keep_records=False,
        )
    if sink_kind == "path":
        assert len(opened) == 1 and opened[0].closed
        assert sink.read_text() == expected
    else:
        assert sink.getvalue() == expected
