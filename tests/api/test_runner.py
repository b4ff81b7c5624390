"""Tests for the experiment runner: memoization, grids, result sets."""

import csv
import io

import pytest

from repro.api import ExperimentRunner, InferenceRequest
from repro.api.result import DECODE_PHASE, PREFILL_PHASE, RunResult


class CountingBackend:
    """A deterministic fake backend that counts its executions."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def run(self, request):
        self.calls += 1
        speed = 100.0 / request.seq_len
        return RunResult(
            backend_name=self.name,
            model_name=request.model,
            request=request,
            tokens_per_second=speed,
            time_to_first_token_s=0.1,
            decode_step_seconds=1.0 / speed,
            total_seconds=0.1 + request.gen_tokens / speed,
            phase_seconds={PREFILL_PHASE: 0.1, DECODE_PHASE: request.gen_tokens / speed},
            traffic_bytes_per_token=1e9,
            bottleneck="toy",
        )


def test_identical_requests_are_memoized():
    backend = CountingBackend()
    runner = ExperimentRunner()
    request = InferenceRequest(model="opt-6.7b", seq_len=500)
    first = runner.run(backend, request)
    second = runner.run(backend, request)
    assert backend.calls == 1
    assert second is first
    info = runner.cache_info()
    assert info == {"hits": 1, "misses": 1, "size": 1}


def test_distinct_requests_are_not_conflated():
    backend = CountingBackend()
    runner = ExperimentRunner()
    a = runner.run(backend, InferenceRequest(model="opt-6.7b", seq_len=500))
    b = runner.run(backend, InferenceRequest(model="opt-6.7b", seq_len=1000))
    assert backend.calls == 2
    assert a.tokens_per_second != b.tokens_per_second


def test_grid_sweep_runs_each_unique_point_once():
    backend = CountingBackend()
    runner = ExperimentRunner()
    results = runner.run_grid(
        [backend],
        models=["opt-6.7b", "opt-13b"],
        seq_lens=[100, 200, 300],
    )
    assert len(results) == 6
    assert backend.calls == 6
    # A second, overlapping sweep re-runs nothing.
    again = runner.run_grid(
        [backend],
        models=["opt-6.7b", "opt-13b"],
        seq_lens=[200, 300],
    )
    assert len(again) == 4
    assert backend.calls == 6
    assert runner.cache_info()["hits"] >= 4


def test_grid_collapses_fields_a_backend_ignores():
    """Baselines ignore ``config``, so S/M/L grid points dedupe to one run."""
    runner = ExperimentRunner()
    results = runner.run_grid(
        ["mlc-llm"], models=["llama2-7b"], configs=["S", "M", "L"]
    )
    assert len(results) == 1
    assert runner.cache_info()["misses"] == 1
    assert runner.cache_info()["hits"] == 2


def test_grid_over_real_backends_is_unified():
    runner = ExperimentRunner()
    results = runner.run_grid(
        ["cambricon", "flexgen-ssd", "mlc-llm"],
        models=["llama2-7b", "llama2-70b"],
        configs=["S"],
    )
    names = {r.backend_name for r in results}
    assert names == {"Cambricon-LLM-S", "FlexGen-SSD", "MLC-LLM"}
    oom = results.filter(model="llama2-70b", backend="MLC-LLM")
    assert len(oom) == 1 and oom[0].out_of_memory


def test_resultset_filter_best_and_exports(tmp_path):
    runner = ExperimentRunner()
    results = runner.run_grid(
        ["cambricon", "mlc-llm"], models=["llama2-7b"], configs=["S", "L"]
    )
    fast = results.best("tokens_per_second")
    assert fast.backend_name == "Cambricon-LLM-L"
    subset = results.filter(backend="MLC-LLM")
    assert all(r.backend_name == "MLC-LLM" for r in subset)

    csv_path = tmp_path / "grid.csv"
    text = results.to_csv(str(csv_path))
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(results)
    assert csv_path.read_text() == text
    assert float(parsed[0]["tokens_per_second"]) > 0

    markdown = results.to_markdown()
    assert markdown.splitlines()[0].startswith("| backend |")
    assert "Cambricon-LLM-L" in markdown


@pytest.mark.parametrize("exploding_first", [False, True])
def test_failed_grid_point_does_not_discard_completed_results(exploding_first):
    """One bad point raises, but the good points, before or after it, run
    and stay cached."""
    backend = CountingBackend()

    class ExplodingBackend:
        name = "exploding"

        def run(self, request):
            raise KeyError("boom")

    runner = ExperimentRunner()
    request = InferenceRequest(model="opt-6.7b")
    backends = [backend, ExplodingBackend()]
    if exploding_first:
        backends.reverse()
    with pytest.raises(KeyError):
        runner.run_requests(backends, [request])
    # The successful point was cached and the failed one left no phantom miss.
    assert runner.cache_info() == {"hits": 0, "misses": 1, "size": 1}
    runner.run(backend, request)
    assert backend.calls == 1


def test_clear_cache_forgets_results():
    backend = CountingBackend()
    runner = ExperimentRunner()
    request = InferenceRequest(model="opt-6.7b")
    runner.run(backend, request)
    runner.clear_cache()
    runner.run(backend, request)
    assert backend.calls == 2


def test_failed_run_clears_the_inflight_key_for_retries():
    class FlakyBackend:
        name = "flaky"

        def __init__(self):
            self.calls = 0

        def run(self, request):
            self.calls += 1
            if self.calls == 1:
                raise RuntimeError("transient failure")
            return CountingBackend().run(request)

    backend = FlakyBackend()
    runner = ExperimentRunner()
    request = InferenceRequest(model="opt-6.7b")
    with pytest.raises(RuntimeError):
        runner.run(backend, request)
    # The failure left no phantom miss and no cached result, so a retry runs.
    assert runner.cache_info() == {"hits": 0, "misses": 0, "size": 0}
    result = runner.run(backend, request)
    assert backend.calls == 2
    assert result.tokens_per_second > 0
