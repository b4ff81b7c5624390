"""A constant-latency toy backend, a trace comparison and queue-depth
checks shared by the serving tests."""

import math

import pytest

from repro.api import RunResult
from repro.api.result import DECODE_PHASE, PREFILL_PHASE


class ToyBackend:
    """Constant-latency device: ttft + gen_tokens steps, batch-invariant steps.

    A decode step costs the same regardless of batch width, so batching is
    maximally profitable — convenient for sharp closed-form assertions.
    """

    name = "toy"

    def __init__(self, ttft=1.0, step=0.1):
        self.ttft = ttft
        self.step = step
        self.calls = 0

    @property
    def cache_key(self):
        # Every knob that changes the result (the Backend contract): two
        # differently-tuned toys sharing one ExperimentRunner must not
        # collide in its memo, e.g. on a heterogeneous fleet.
        return f"toy[ttft={self.ttft!r}|step={self.step!r}]"

    def run(self, request):
        self.calls += 1
        decode = request.gen_tokens * self.step
        return RunResult(
            backend_name=self.name,
            model_name=request.model_name,
            request=request,
            tokens_per_second=request.batch_size / self.step,
            time_to_first_token_s=self.ttft,
            decode_step_seconds=self.step,
            total_seconds=self.ttft + decode,
            phase_seconds={PREFILL_PHASE: self.ttft, DECODE_PHASE: decode},
            traffic_bytes_per_token=0.0,
            bottleneck="toy",
        )


def assert_same_trace(got: str, want: str) -> None:
    """Assert two trace CSVs are equal.

    A mismatch fails at once with the line counts and the first differing
    row (the header is row 0), not with pytest's diff of two long strings,
    which can take minutes to render.
    """
    if got == want:
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    row = min(len(got_lines), len(want_lines))
    for index, (line, expected) in enumerate(zip(got_lines, want_lines)):
        if line != expected:
            row = index
            break

    def shown(lines):
        return repr(lines[row]) if row < len(lines) else "<end of trace>"

    raise AssertionError(
        f"traces differ: {len(got_lines)} lines vs {len(want_lines)} expected; "
        f"first difference at row {row}:\n  got      {shown(got_lines)}\n"
        f"  expected {shown(want_lines)}"
    )


class QueueProbe:
    """Each device's queue residencies, logged outside the code that folds
    the queue-depth statistics.

    Install it on the schedulers of a run's devices (a fleet's, in device
    order) before the run.  It wraps the scheduler calls that can change a
    waiting queue (``enqueue``, ``next_occupancy`` and ``evict_all``):
    after each call it compares the queue's members with those it saw
    last, logs each entry and exit at the call's ``now`` (the loop's
    clock), and adds each exit's time in the queue to the device's sum.
    Requests still queued when the run calls ``finalize`` leave then.
    """

    def __init__(self, schedulers) -> None:
        self.residencies = [0.0] * len(schedulers)
        for index, scheduler in enumerate(schedulers):
            self._wrap(index, scheduler)

    def _wrap(self, index: int, scheduler) -> None:
        #: id(record) -> (record, entry time) of the queued records.
        entered = {}

        def log(now):
            queued = {id(record): record for record in scheduler._waiting}
            for key in [key for key in entered if key not in queued]:
                self.residencies[index] += now - entered.pop(key)[1]
            for key, record in queued.items():
                entered.setdefault(key, (record, now))

        def logged(method, clock):
            def call(*args, **kwargs):
                result = method(*args, **kwargs)
                log(clock(*args))
                return result

            return call

        scheduler.enqueue = logged(scheduler.enqueue, lambda record, now: now)
        scheduler.next_occupancy = logged(
            scheduler.next_occupancy, lambda now, *_: now
        )
        scheduler.evict_all = logged(scheduler.evict_all, lambda now: now)
        finalize = scheduler.finalize

        def close(now, *args):
            for _, since in entered.values():
                self.residencies[index] += now - since
            entered.clear()
            return finalize(now, *args)

        scheduler.finalize = close


def _devices(report):
    """A fleet report's device reports, or a single-device report."""
    return getattr(report, "device_reports", [report])


def assert_littles_law(report, probe=None) -> None:
    """Each device's ``queue_depth_area`` equals the sum of its queue
    residencies (Little's law on one sample path), to 1e-9 relative.

    The residencies are ``probe``'s, or without one each device's summed
    queue waits, which are its residencies when no fault moved a request
    and every request was admitted.
    """
    devices = _devices(report)
    if probe is None:
        residencies = [math.fsum(d.streamed.queue_waits) for d in devices]
    else:
        residencies = probe.residencies
    areas = [device.streamed.queue_depth_area for device in devices]
    assert areas == pytest.approx(residencies, rel=1e-9)


def assert_timeline_queue_area(timeline, report) -> None:
    """The timeline's windows hold the devices' summed queue-depth area,
    to 1e-9 relative: both fold the same queue changes."""
    width = timeline.window_s
    area = math.fsum(row["queue_depth_mean"] * width for row in timeline.to_rows())
    areas = [device.streamed.queue_depth_area for device in _devices(report)]
    assert area == pytest.approx(math.fsum(areas), rel=1e-9)


def assert_same_queue_stats(got, want) -> None:
    """Both runs report every device's queue-depth area and max alike."""

    def stats(report):
        return [
            (device.streamed.queue_depth_area, device.streamed.max_queue_depth)
            for device in _devices(report)
        ]

    assert stats(got) == stats(want)
