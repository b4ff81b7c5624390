"""Tests for the end-to-end inference engine.

The absolute tokens/s figures are regression-tested against the paper's
Fig. 9 within generous bands (our substrate is an analytical/event model, not
SSDsim + RTL); the orderings and ablation directions are tested strictly.
"""

import pytest

from repro.core import (
    InferenceEngine,
    TileShape,
    cambricon_llm_l,
    cambricon_llm_m,
    cambricon_llm_s,
)
from repro.flash.slicing import SlicePolicy


# Paper Fig. 9 decode speeds (tokens/s).
PAPER_FIG9 = {
    ("S", "opt-6.7b"): 3.6, ("S", "opt-13b"): 1.9, ("S", "opt-30b"): 0.8, ("S", "opt-66b"): 0.4,
    ("M", "opt-6.7b"): 11.0, ("M", "opt-13b"): 4.7, ("M", "opt-30b"): 2.5, ("M", "opt-66b"): 1.2,
    ("L", "opt-6.7b"): 36.3, ("L", "opt-13b"): 14.2, ("L", "opt-30b"): 7.6, ("L", "opt-66b"): 2.6,
    ("S", "llama2-70b"): 0.3, ("L", "llama2-70b"): 3.4,
}

CONFIGS = {"S": cambricon_llm_s, "M": cambricon_llm_m, "L": cambricon_llm_l}


@pytest.mark.parametrize("key", sorted(PAPER_FIG9, key=str))
def test_decode_speed_tracks_paper_within_a_factor(key):
    """Every Fig. 9 point is reproduced within ~1.6x either way."""
    config_key, model = key
    engine = InferenceEngine(CONFIGS[config_key]())
    ours = engine.decode_speed(model)
    paper = PAPER_FIG9[key]
    assert paper / 1.6 <= ours <= paper * 1.6


def test_headline_claim_70b_at_over_3_tokens_per_second():
    """Abstract: Cambricon-LLM runs a 70B model at ~3.4 token/s."""
    engine = InferenceEngine(cambricon_llm_l())
    assert engine.decode_speed("llama2-70b") >= 3.0


def test_speed_ordering_s_m_l():
    for model in ("opt-6.7b", "opt-66b"):
        speeds = [InferenceEngine(factory()).decode_speed(model) for factory in CONFIGS.values()]
        assert speeds[0] < speeds[1] < speeds[2]


def test_speed_ordering_across_model_sizes():
    engine = InferenceEngine(cambricon_llm_s())
    speeds = [engine.decode_speed(m) for m in ("opt-6.7b", "opt-13b", "opt-30b", "opt-66b")]
    assert speeds == sorted(speeds, reverse=True)


def test_w4a16_speeds_up_but_less_than_2x():
    """Fig. 11: W4A16 improves decode speed by ~48-85 %, not a full 2x."""
    w8 = InferenceEngine(cambricon_llm_s()).decode_speed("opt-6.7b")
    w4 = InferenceEngine(cambricon_llm_s().with_quantization(4, 16)).decode_speed("opt-6.7b")
    assert 1.3 < w4 / w8 < 2.0


def test_read_slice_ablation_slows_decode_and_lowers_utilisation():
    """Fig. 12: removing read-request slicing costs ~0.55-0.6x and halves usage."""
    ours = InferenceEngine(cambricon_llm_s()).decode_report("opt-6.7b")
    unsliced = InferenceEngine(
        cambricon_llm_s().with_slice_policy(SlicePolicy.UNSLICED)
    ).decode_report("opt-6.7b")
    ratio = unsliced.tokens_per_second / ours.tokens_per_second
    assert 0.4 < ratio < 0.8
    assert unsliced.channel_utilization < 0.7 * ours.channel_utilization


def test_hardware_aware_tiling_ablation():
    """Fig. 14: flash-only execution is ~0.7-0.8x and drops channel use to ~3 %."""
    ours = InferenceEngine(cambricon_llm_s()).decode_report("opt-6.7b")
    flash_only = InferenceEngine(cambricon_llm_s(), offload_to_npu=False).decode_report("opt-6.7b")
    ratio = flash_only.tokens_per_second / ours.tokens_per_second
    assert 0.55 < ratio < 0.9
    assert flash_only.channel_utilization < 0.1
    assert flash_only.alpha == pytest.approx(1.0)


def test_tile_shape_ablation_prefers_optimal_tile():
    """Fig. 13: the 256x2048 tile beats 128x4096 and 4096x128 on Cam-LLM-S."""
    optimal = InferenceEngine(cambricon_llm_s(), tile=TileShape(256, 2048)).decode_speed("opt-6.7b")
    wide = InferenceEngine(cambricon_llm_s(), tile=TileShape(128, 4096)).decode_speed("opt-6.7b")
    tall = InferenceEngine(cambricon_llm_s(), tile=TileShape(4096, 128)).decode_speed("opt-6.7b")
    assert optimal >= wide
    assert optimal > tall


def test_alpha_and_utilisation_are_physical():
    report = InferenceEngine(cambricon_llm_m()).decode_report("opt-13b")
    assert 0.0 < report.alpha < 1.0
    assert 0.0 < report.channel_utilization <= 1.0
    assert report.traffic.external_bytes < report.traffic.total_bytes
    assert report.layer_timing.total_seconds > 0
    assert report.token_seconds == pytest.approx(1.0 / report.tokens_per_second)


def test_traffic_is_an_order_of_magnitude_below_model_size():
    """Fig. 16a: external traffic per token is ~10x smaller than the weights."""
    report = InferenceEngine(cambricon_llm_s()).decode_report("opt-6.7b")
    weight_bytes = report.traffic.flash_internal_bytes
    assert report.traffic.external_bytes < 0.45 * weight_bytes


def test_simulator_calibration_agrees_with_analytical_model():
    analytical = InferenceEngine(cambricon_llm_s()).decode_speed("opt-6.7b")
    simulated = InferenceEngine(cambricon_llm_s(), use_simulator=True).decode_speed("opt-6.7b")
    assert simulated == pytest.approx(analytical, rel=0.3)


def test_model_too_large_for_flash_is_rejected():
    tiny = cambricon_llm_s().with_flash_scale(channels=1, chips_per_channel=1)
    small_flash = InferenceEngine(tiny)
    with pytest.raises(ValueError):
        small_flash.decode_report("llama2-70b")


def test_longer_context_is_slower():
    engine = InferenceEngine(cambricon_llm_l())
    short = engine.decode_speed("opt-6.7b", seq_len=128)
    long = engine.decode_speed("opt-6.7b", seq_len=4000)
    assert long < short


def test_scalability_saturates_with_chip_count():
    """Fig. 15a: speed grows with chips per channel but saturates."""
    speeds = []
    for chips in (1, 4, 16, 64):
        config = cambricon_llm_s().with_flash_scale(chips_per_channel=chips)
        speeds.append(InferenceEngine(config).decode_speed("opt-6.7b"))
    assert speeds[1] > 1.5 * speeds[0]
    # Diminishing returns: the last doubling helps much less than the first.
    first_gain = speeds[1] / speeds[0]
    last_gain = speeds[3] / speeds[2]
    assert last_gain < first_gain


def test_scalability_channel_count_scales_and_utilisation_drops():
    """Fig. 15b/d: more channels keep helping while utilisation slowly falls."""
    reports = []
    for channels in (4, 16, 64):
        config = cambricon_llm_s().with_flash_scale(channels=channels)
        reports.append(InferenceEngine(config).decode_report("opt-6.7b"))
    assert reports[0].tokens_per_second < reports[1].tokens_per_second < reports[2].tokens_per_second
    assert reports[2].channel_utilization < reports[0].channel_utilization


#: The model pins' contexts (1, 1000, 4096 and the backend points' 128 and
#: 2048) plus one more.
CONTEXTS = (1, 128, 777, 1000, 2048, 4096)


@pytest.mark.parametrize("use_simulator", [False, True])
def test_a_warm_engine_reports_like_a_cold_one(use_simulator):
    """The per-model weight plan an engine memoizes holds exactly what a
    cold engine computes: after other contexts and another model, every
    report equals a fresh engine's, float for float."""
    config = cambricon_llm_s()
    warm = InferenceEngine(config, use_simulator=use_simulator)
    warm.decode_report("opt-6.7b", seq_len=300)
    warm.decode_report("llama2-7b", seq_len=300)
    cold = [
        InferenceEngine(config, use_simulator=use_simulator).decode_report(
            "llama2-7b", seq_len=seq_len
        )
        for seq_len in CONTEXTS
    ]
    assert [warm.decode_report("llama2-7b", seq_len=n) for n in CONTEXTS] == cold
    # The rates are context-free on both paths, even computed cold.
    rates = {(r.flash_weight_rate, r.stream_weight_rate, r.alpha) for r in cold}
    assert len(rates) == 1


def test_an_engine_is_frozen():
    """The weight-plan memo is keyed by model alone, which holds because
    nothing can change an engine's fields once it is built."""
    import dataclasses

    engine = InferenceEngine(cambricon_llm_s())
    with pytest.raises(dataclasses.FrozenInstanceError):
        engine.tile = TileShape(128, 4096)
