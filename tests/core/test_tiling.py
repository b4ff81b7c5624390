"""Tests for the hardware-aware tiling strategy (Section V-A)."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tiling import TileShape, TilingStrategy
from repro.flash.geometry import FlashGeometry


def strategy_for(channels=8, chips=2, weight_bits=8, activation_bits=8, broadcast=True):
    return TilingStrategy(
        geometry=FlashGeometry(channels=channels, chips_per_channel=chips),
        weight_bits=weight_bits,
        activation_bits=activation_bits,
        input_broadcast=broadcast,
    )


def test_paper_optimal_tile_for_s_configuration():
    """Section V-A / Fig. 13: the S configuration's optimal tile is 256 x 2048."""
    tile = strategy_for().optimal_tile()
    assert (tile.height, tile.width) == (256, 2048)


def test_optimal_tile_matches_amgm_closed_form():
    """Hreq* = sqrt(ccorenum * page_elements), Wreq* = channelnum * Hreq*."""
    strategy = strategy_for()
    ideal_height, ideal_width = strategy.ideal_tile()
    assert ideal_height == pytest.approx(
        math.sqrt(strategy.geometry.compute_cores_per_channel * strategy.page_elements)
    )
    assert ideal_width == pytest.approx(strategy.geometry.channels * ideal_height)
    tile = strategy.optimal_tile()
    # The integer tile can deviate from the real-valued optimum only by the
    # rounding to per-core / per-channel multiples.
    assert strategy.tile_transfer_bytes(tile) <= 1.1 * strategy.transfer_lower_bound()


def test_candidate_tiles_cover_exactly_one_page_per_core():
    strategy = strategy_for()
    for tile in strategy.candidate_tiles():
        assert tile.elements == strategy.tile_elements
        assert tile.height % strategy.geometry.compute_cores_per_channel == 0
        assert tile.width % strategy.geometry.channels == 0


def test_optimal_tile_beats_paper_suboptimal_shapes():
    """Fig. 13: 256x2048 moves less vector traffic than 128x4096 or 4096x128."""
    strategy = strategy_for()
    optimal = strategy.tile_transfer_bytes(strategy.optimal_tile())
    assert optimal <= strategy.tile_transfer_bytes(TileShape(128, 4096))
    assert optimal < strategy.tile_transfer_bytes(TileShape(4096, 128))


def test_broadcast_scheme_moves_less_data_than_non_broadcast():
    """Fig. 7b vs 7c: input broadcast strictly lowers the traffic bound."""
    with_broadcast = strategy_for(broadcast=True)
    without_broadcast = strategy_for(broadcast=False)
    tile = with_broadcast.optimal_tile()
    assert with_broadcast.tile_transfer_bytes(tile) < without_broadcast.tile_transfer_bytes(tile)
    assert with_broadcast.transfer_lower_bound() < without_broadcast.transfer_lower_bound()


def test_grid_efficiency_exact_for_matching_matrix():
    strategy = strategy_for()
    stats = strategy.grid_for_matrix(4096, 4096)
    assert stats.efficiency == pytest.approx(1.0)
    assert stats.num_tiles == 32


def test_grid_efficiency_collapses_when_tile_exceeds_matrix():
    """The Fig. 15a saturation mechanism: oversized tiles leave cores idle."""
    strategy = strategy_for(channels=8, chips=64)
    tile = strategy.optimal_tile()
    stats = strategy.grid_for_matrix(4096, 4096, tile)
    assert stats.efficiency <= 0.5


def test_best_tile_for_matrix_recovers_efficiency():
    strategy = strategy_for(channels=32, chips=8)
    fixed = strategy.grid_for_matrix(4096, 4096, strategy.optimal_tile())
    adaptive = strategy.grid_for_matrix(
        4096, 4096, strategy.best_tile_for_matrix(4096, 4096)
    )
    assert adaptive.efficiency > fixed.efficiency
    assert adaptive.efficiency > 0.9


def test_matrix_efficiency_weighted_over_shapes():
    strategy = strategy_for()
    efficiency = strategy.matrix_efficiency([(4096, 4096), (16384, 4096)])
    assert 0.9 < efficiency <= 1.0


def test_w4_pages_hold_twice_the_elements():
    w8 = strategy_for(weight_bits=8)
    w4 = strategy_for(weight_bits=4)
    assert w4.page_elements == 2 * w8.page_elements
    assert w4.tile_elements == 2 * w8.tile_elements


def test_invalid_arguments_rejected():
    strategy = strategy_for()
    with pytest.raises(ValueError):
        TileShape(0, 16)
    with pytest.raises(ValueError):
        strategy.grid_for_matrix(0, 16)
    with pytest.raises(ValueError):
        strategy.best_tile_for_matrix(-1, 16)
    with pytest.raises(ValueError):
        strategy.matrix_efficiency([])


@settings(max_examples=30, deadline=None)
@given(
    channels=st.sampled_from([1, 2, 4, 8, 16, 32]),
    chips=st.sampled_from([1, 2, 4, 8]),
)
def test_optimal_tile_is_traffic_minimal_among_candidates(channels, chips):
    """Property: no candidate tile moves less data than the selected optimum."""
    strategy = strategy_for(channels=channels, chips=chips)
    best = strategy.optimal_tile()
    best_traffic = strategy.tile_transfer_bytes(best)
    for candidate in strategy.candidate_tiles():
        assert best_traffic <= strategy.tile_transfer_bytes(candidate) + 1e-9
    # And it never beats the AM-GM lower bound.
    assert best_traffic >= strategy.transfer_lower_bound() - 1e-9


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=65536),
    cols=st.integers(min_value=1, max_value=65536),
)
def test_grid_always_covers_the_matrix(rows, cols):
    """Property: the tile grid covers every element (efficiency in (0, 1])."""
    strategy = strategy_for()
    stats = strategy.grid_for_matrix(rows, cols)
    tile = strategy.optimal_tile()
    assert stats.tiles_high * tile.height >= rows
    assert stats.tiles_wide * tile.width >= cols
    assert 0.0 < stats.efficiency <= 1.0


def _reference_candidates(strategy):
    """The exhaustive search: every height in steps of ``ccorenum`` whose
    width is an integer multiple of ``channelnum``."""
    ccores = strategy.geometry.compute_cores_per_channel
    channels = strategy.geometry.channels
    total_elements = strategy.tile_elements
    candidates = []
    height = ccores
    while height * channels <= total_elements:
        width, remainder = divmod(total_elements, height)
        if remainder == 0 and width % channels == 0:
            candidates.append(TileShape(height=height, width=width))
        height += ccores
    return candidates


#: (channels, chips per channel, dies per chip, compute cores per die).
ORACLE_GEOMETRIES = list(
    itertools.product((1, 2, 3, 8, 32), (1, 2, 8), (1, 2), (1, 2))
)
ORACLE_MATRICES = ((1, 1), (100, 7), (4096, 4096), (11008, 4096), (4096, 32000))


@pytest.mark.parametrize("weight_bits", [4, 8, 16])
@pytest.mark.parametrize("page_bytes", [512, 4096, 16384])
def test_divisor_candidates_match_the_exhaustive_search(
    page_bytes, weight_bits, monkeypatch
):
    """Same shapes in the same order, so every tile choice is unchanged."""
    for channels, chips, dies, cores in ORACLE_GEOMETRIES:
        strategy = TilingStrategy(
            geometry=FlashGeometry(
                channels=channels,
                chips_per_channel=chips,
                dies_per_chip=dies,
                compute_cores_per_die=cores,
                page_bytes=page_bytes,
            ),
            weight_bits=weight_bits,
        )
        geometry = (channels, chips, dies, cores)
        reference = _reference_candidates(strategy)
        assert strategy.candidate_tiles() == reference, geometry

        def choices():
            return strategy.optimal_tile(), [
                strategy.best_tile_for_matrix(rows, cols)
                for rows, cols in ORACLE_MATRICES
            ]

        chosen = choices()
        with monkeypatch.context() as patch:
            patch.setattr(TilingStrategy, "candidate_tiles", lambda self: reference)
            assert chosen == choices(), geometry
