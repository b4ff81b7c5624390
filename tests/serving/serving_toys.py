"""A constant-latency toy backend and a trace comparison shared by the
serving tests."""

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
