"""Tests for the built-in backend adapters and request semantics."""

import pytest

from repro.api import (
    CambriconBackend,
    FlexGenDRAMBackend,
    FlexGenSSDBackend,
    InferenceRequest,
    MLCLLMBackend,
)
from repro.api import adapters
from repro.baselines import FlexGenDRAM, FlexGenSSD, MLCLLM
from repro.core import InferenceEngine, cambricon_llm_l, cambricon_llm_s
from repro.core.metrics import DecodeReport
from repro.core.tiling import TilingStrategy
from repro.energy import model as energy_model
from repro.flash.simulator import ChannelSimulator
from repro.llm.workload import DecodeWorkload, PrefillWorkload
from repro.serving import BackendCostModel


# -- request validation -------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"model": ""},
        {"model": "opt-6.7b", "seq_len": 0},
        {"model": "opt-6.7b", "gen_tokens": 0},
        {"model": "opt-6.7b", "batch_size": 0},
        {"model": "opt-6.7b", "weight_bits": -4},
    ],
)
def test_invalid_requests_are_rejected(kwargs):
    with pytest.raises(ValueError):
        InferenceRequest(**kwargs)


def test_requests_are_hashable_and_comparable():
    a = InferenceRequest(model="opt-6.7b", seq_len=1000)
    b = InferenceRequest(model="opt-6.7b", seq_len=1000)
    assert a == b and hash(a) == hash(b)
    assert a.with_overrides(seq_len=2000) != a


# -- parity with the legacy entry points -------------------------------------

def test_cambricon_result_matches_legacy_decode_report():
    engine = InferenceEngine(cambricon_llm_s())
    legacy = engine.decode_report("opt-6.7b", seq_len=1000)
    result = CambriconBackend(config=cambricon_llm_s()).run(
        InferenceRequest(model="opt-6.7b", seq_len=1000)
    )
    assert result.tokens_per_second == pytest.approx(legacy.tokens_per_second)
    assert result.decode_step_seconds == pytest.approx(legacy.token_seconds)
    assert result.traffic_bytes_per_token == pytest.approx(
        legacy.traffic.external_bytes
    )
    assert isinstance(result.detail, DecodeReport)
    assert result.energy_joules_per_token > 0
    assert result.phase_seconds["prefill"] == result.time_to_first_token_s


@pytest.mark.parametrize(
    "backend_cls, baseline_cls",
    [
        (FlexGenSSDBackend, FlexGenSSD),
        (FlexGenDRAMBackend, FlexGenDRAM),
        (MLCLLMBackend, MLCLLM),
    ],
)
def test_baseline_results_match_legacy_decode_result(backend_cls, baseline_cls):
    legacy = baseline_cls().decode_result("llama2-7b", seq_len=1000)
    result = backend_cls().run(InferenceRequest(model="llama2-7b", seq_len=1000))
    assert result.tokens_per_second == pytest.approx(legacy.tokens_per_second)
    assert result.bottleneck == legacy.bottleneck
    assert result.detail == legacy


def test_legacy_shims_still_delegate():
    """The pre-API entry points keep working (acceptance criterion)."""
    report = InferenceEngine(cambricon_llm_l()).decode_report("llama2-70b")
    assert report.tokens_per_second >= 3.0
    assert MLCLLM().decode_result("llama2-70b").out_of_memory


@pytest.mark.parametrize(
    "seq_len, error", [(0, ValueError), (1000.5, TypeError), (True, TypeError)]
)
def test_single_token_models_check_their_arguments_like_a_request(seq_len, error):
    with pytest.raises(error, match="seq_len"):
        InferenceEngine(cambricon_llm_s()).decode_report("opt-6.7b", seq_len=seq_len)
    with pytest.raises(error, match="seq_len"):
        FlexGenSSD().decode_result("opt-6.7b", seq_len=seq_len)


# -- out-of-memory handling ---------------------------------------------------

def test_mlc_oom_is_a_result_not_an_exception():
    result = MLCLLMBackend().run(InferenceRequest(model="llama2-70b"))
    assert result.out_of_memory and not result.supported
    assert result.tokens_per_second == 0.0
    assert result.error


def test_cambricon_oom_is_a_result_not_an_exception():
    tiny = cambricon_llm_s().with_flash_scale(channels=1, chips_per_channel=1)
    result = CambriconBackend(config=tiny).run(InferenceRequest(model="llama2-70b"))
    assert result.out_of_memory
    assert result.bottleneck == "capacity"


# -- generalized request semantics --------------------------------------------

def test_longer_generation_slows_average_step_via_kv_growth():
    backend = CambriconBackend(config=cambricon_llm_l(), energy=False)
    short = backend.run(InferenceRequest(model="opt-6.7b", seq_len=500))
    long = backend.run(
        InferenceRequest(model="opt-6.7b", seq_len=500, gen_tokens=4000)
    )
    assert long.decode_step_seconds > short.decode_step_seconds
    assert long.total_seconds > short.total_seconds


def test_batching_amortizes_weight_streaming():
    backend = CambriconBackend(config=cambricon_llm_s(), energy=False)
    single = backend.run(InferenceRequest(model="opt-6.7b"))
    batched = backend.run(InferenceRequest(model="opt-6.7b", batch_size=8))
    assert batched.tokens_per_second > 2 * single.tokens_per_second
    # Per-step latency still grows: the KV fetches serialize.
    assert batched.decode_step_seconds > single.decode_step_seconds


def test_batching_helps_baselines_too():
    backend = FlexGenSSDBackend()
    single = backend.run(InferenceRequest(model="opt-6.7b"))
    batched = backend.run(InferenceRequest(model="opt-6.7b", batch_size=4))
    assert batched.tokens_per_second > 2 * single.tokens_per_second


def test_quantization_override_speeds_up_cambricon():
    w8 = CambriconBackend(energy=False).run(
        InferenceRequest(model="opt-6.7b", config="S")
    )
    w4 = CambriconBackend(energy=False).run(
        InferenceRequest(model="opt-6.7b", config="S", weight_bits=4, activation_bits=16)
    )
    assert 1.3 < w4.tokens_per_second / w8.tokens_per_second < 2.0


def test_baselines_honor_seq_len():
    """Regression for the CLI compare bug: seq_len must reach the baselines."""
    backend = FlexGenDRAMBackend()
    short = backend.run(InferenceRequest(model="opt-66b", seq_len=100))
    long = backend.run(InferenceRequest(model="opt-66b", seq_len=8000))
    assert long.traffic_bytes_per_token > short.traffic_bytes_per_token


def test_ttft_scales_with_prompt_length():
    backend = CambriconBackend(config=cambricon_llm_l(), energy=False)
    short = backend.run(InferenceRequest(model="llama2-7b", seq_len=128))
    long = backend.run(InferenceRequest(model="llama2-7b", seq_len=4000))
    assert long.time_to_first_token_s > short.time_to_first_token_s
    assert short.time_to_first_token_s > 0


def test_custom_model_spec_requests_and_shims_work():
    """Unregistered ModelSpec objects flow through requests and shims."""
    from dataclasses import replace

    from repro.llm.models import get_model

    spec = replace(get_model("llama2-7b"), name="my-custom-model")
    result = CambriconBackend(config=cambricon_llm_s()).run(
        InferenceRequest(model=spec)
    )
    assert result.model_name == "my-custom-model"
    assert result.tokens_per_second > 0
    # Legacy shims accept specs too (pre-API behaviour).
    report = InferenceEngine(cambricon_llm_s()).decode_report(spec)
    assert report.model_name == "my-custom-model"
    assert FlexGenSSD().decode_result(spec).model_name == "my-custom-model"


def test_ablation_engines_get_distinct_cache_keys():
    """Engine flags must be part of the memoization identity."""
    default = CambriconBackend(engine=InferenceEngine(cambricon_llm_s()))
    ablated = CambriconBackend(
        engine=InferenceEngine(cambricon_llm_s(), offload_to_npu=False)
    )
    assert default.cache_key != ablated.cache_key


def test_config_normalization_keeps_fixed_config_requests_equal():
    backend = CambriconBackend(config=cambricon_llm_s())
    a = backend.normalize_request(InferenceRequest(model="opt-6.7b", config="L"))
    b = backend.normalize_request(InferenceRequest(model="opt-6.7b"))
    assert a == b


# -- integral-type validation -------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"model": "opt-6.7b", "seq_len": 1000.5},
        {"model": "opt-6.7b", "seq_len": 1000.0},
        {"model": "opt-6.7b", "gen_tokens": 2.0},
        {"model": "opt-6.7b", "batch_size": True},
        {"model": "opt-6.7b", "seq_len": False},
        {"model": "opt-6.7b", "weight_bits": 4.0},
        {"model": "opt-6.7b", "activation_bits": True},
    ],
)
def test_non_integral_counts_are_rejected_with_a_clear_error(kwargs):
    """Bools and floats must not silently masquerade as token counts."""
    with pytest.raises(TypeError, match="must be an int"):
        InferenceRequest(**kwargs)


def test_integral_validation_names_the_offending_field():
    with pytest.raises(TypeError, match="seq_len"):
        InferenceRequest(model="opt-6.7b", seq_len=1000.5)
    with pytest.raises(TypeError, match="gen_tokens"):
        InferenceRequest(model="opt-6.7b", gen_tokens=True)


# -- the per-instance decode-report memo --------------------------------------

def _exact(result):
    """Every field of a result, floats rendered exactly."""
    return repr(vars(result))


def test_a_used_backend_prices_like_a_fresh_one():
    requests = [
        InferenceRequest(model="llama2-7b", config=config, seq_len=512, gen_tokens=32)
        for config in ("S", "M", "L")
    ] + [
        InferenceRequest(
            model="llama2-7b", config="S", seq_len=512, gen_tokens=32,
            weight_bits=4, activation_bits=16,
        )
    ]
    used = CambriconBackend()
    twin = used.with_capacity_scale(2)
    for request in requests:
        used.run(request)
        twin.run(request.with_overrides(batch_size=4))
    for request in requests:
        for batch in (1, 4):
            request = request.with_overrides(batch_size=batch)
            assert _exact(used.run(request)) == _exact(CambriconBackend().run(request))
            assert _exact(twin.run(request)) == _exact(
                CambriconBackend().with_capacity_scale(2).run(request)
            )
    reports = [used.run(request).detail for request in requests]
    assert [report.config_name for report in reports] == [
        "Cambricon-LLM-S", "Cambricon-LLM-M", "Cambricon-LLM-L", "Cambricon-LLM-S",
    ]
    assert reports[0] != reports[3]  # W8A8 and W4A16 on S are distinct reports


def test_a_capacity_twin_never_lends_its_reports_to_the_base():
    tiny = cambricon_llm_s().with_flash_scale(channels=1, chips_per_channel=1)
    base = CambriconBackend(config=tiny)
    twin = base.with_capacity_scale(8)
    request = InferenceRequest(model="llama2-70b")
    assert not twin.run(request).out_of_memory
    assert base.run(request).out_of_memory


class _Builds:
    """Counts what pricing builds: tile searches, channel-simulator runs,
    prefill workloads and the energy hook's decode workloads."""

    def __init__(self, monkeypatch):
        self.tile_searches = self.simulator_runs = 0
        self.prefill_workloads = self.energy_workloads = 0
        search, simulate = TilingStrategy.candidate_tiles, ChannelSimulator.run

        def counted_search(tiling):
            self.tile_searches += 1
            return search(tiling)

        def counted_run(simulator, workload):
            self.simulator_runs += 1
            return simulate(simulator, workload)

        def counted_prefill(*args, **kwargs):
            self.prefill_workloads += 1
            return PrefillWorkload(*args, **kwargs)

        def counted_energy(*args, **kwargs):
            self.energy_workloads += 1
            return DecodeWorkload(*args, **kwargs)

        monkeypatch.setattr(TilingStrategy, "candidate_tiles", counted_search)
        monkeypatch.setattr(ChannelSimulator, "run", counted_run)
        monkeypatch.setattr(adapters, "PrefillWorkload", counted_prefill)
        monkeypatch.setattr(energy_model, "DecodeWorkload", counted_energy)


def test_pricing_a_shape_at_every_batch_width_builds_its_reports_once(monkeypatch):
    """One tile search per GeMV shape plus the optimal tile (nine on
    llama2-7b) for both contexts, and one prefill and one energy workload,
    whatever the number of batch widths the scheduler prices."""
    builds = _Builds(monkeypatch)
    cost = BackendCostModel("cambricon")
    request = InferenceRequest(model="llama2-7b", config="S", seq_len=512, gen_tokens=16)
    for batch in range(1, 9):
        cost.ttft(request, batch)
        cost.decode_step(request, batch)
    assert builds.tile_searches == 9
    assert builds.prefill_workloads == builds.energy_workloads == 1


@pytest.mark.parametrize("use_simulator", [False, True])
def test_pricing_every_prompt_length_pays_once_per_model_and_context(
    monkeypatch, use_simulator
):
    """Five prompt lengths at eight widths: the weight plan (tile searches,
    rates) is priced once per model, prefill and energy once per prompt."""
    builds = _Builds(monkeypatch)
    engine = InferenceEngine(cambricon_llm_s(), use_simulator=use_simulator)
    cost = BackendCostModel(CambriconBackend(engine=engine))
    for seq_len in (64, 256, 512, 1024, 2048):
        request = InferenceRequest(model="llama2-7b", seq_len=seq_len, gen_tokens=16)
        for batch in range(1, 9):
            cost.ttft(request, batch)
            cost.decode_step(request, batch)
    # The simulated path's layer schedule searches its seven layer shapes
    # again (once per model).
    assert builds.tile_searches == (16 if use_simulator else 9)
    assert builds.simulator_runs == (1 if use_simulator else 0)
    assert builds.prefill_workloads == builds.energy_workloads == 5
