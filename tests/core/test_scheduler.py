"""Tests for the layer scheduler."""

import pytest

from repro.core.config import cambricon_llm_s
from repro.core.scheduler import build_layer_schedule
from repro.llm.workload import DecodeWorkload


@pytest.fixture
def schedule_s():
    config = cambricon_llm_s()
    workload = DecodeWorkload("opt-6.7b", seq_len=1000)
    return build_layer_schedule(workload, config), workload, config


def test_schedule_covers_every_layer_gemv(schedule_s):
    schedule, workload, _ = schedule_s
    assert len(schedule.gemvs) == len(workload.layers[0].gemv_ops)
    assert schedule.total_weight_bytes == pytest.approx(workload.layers[0].weight_bytes)


def test_flash_and_stream_bytes_partition_the_layer(schedule_s):
    schedule, _, _ = schedule_s
    assert schedule.total_flash_bytes + schedule.total_streamed_bytes == pytest.approx(
        schedule.total_weight_bytes
    )
    for gemv in schedule.gemvs:
        assert 0.0 <= gemv.alpha <= 1.0


def test_request_counts_match_byte_split(schedule_s):
    schedule, _, config = schedule_s
    tile_bytes = config.flash.total_compute_cores * config.page_bytes
    expected_tiles = schedule.total_flash_bytes / tile_bytes
    assert schedule.total_rc_tiles == pytest.approx(expected_tiles, abs=len(schedule.gemvs))
    expected_pages = schedule.total_streamed_bytes / config.page_bytes
    assert schedule.total_read_pages == pytest.approx(expected_pages, abs=len(schedule.gemvs))


def test_channel_workload_is_consistent_with_schedule(schedule_s):
    schedule, _, config = schedule_s
    workload = schedule.channel_workload(config)
    assert workload.rc_tiles == schedule.total_rc_tiles
    assert workload.read_pages == schedule.read_pages_per_channel()
    assert workload.rc_input_bytes == pytest.approx(
        schedule.tile.width / config.channels * config.activation_bits / 8
    )


def test_disabling_offload_sends_everything_to_flash():
    config = cambricon_llm_s()
    workload = DecodeWorkload("opt-6.7b", seq_len=1000)
    schedule = build_layer_schedule(workload, config, offload_to_npu=False)
    assert schedule.total_streamed_bytes == 0.0
    assert schedule.total_read_pages == 0
    assert schedule.total_flash_bytes == pytest.approx(schedule.total_weight_bytes)


@pytest.mark.parametrize("offload_to_npu", [True, False])
def test_the_layer_schedule_does_not_depend_on_the_context(offload_to_npu):
    """The schedule reads only the weight GeMVs, so the simulated rates
    an engine takes from it are the same at every context."""
    config = cambricon_llm_s()
    schedules = [
        build_layer_schedule(
            DecodeWorkload("llama2-7b", seq_len=seq_len),
            config,
            offload_to_npu=offload_to_npu,
        )
        for seq_len in (1, 1000, 4096)
    ]
    assert schedules[1] == schedules[0] == schedules[2]
