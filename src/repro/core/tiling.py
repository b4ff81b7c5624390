"""Hardware-aware tiling (Section V-A).

A read-compute tile of shape ``Hreq x Wreq`` is spread over every Compute
Core of the flash: the tile is cut column-wise across channels and row-wise
across the cores of each channel, so each core handles an *atomic tile* of
exactly one page.  The channel traffic a tile causes is

    Trans = Wreq + channelnum * Hreq          (input broadcast + results)

subject to ``Hreq * Wreq = channelnum * ccorenum * pagesize`` elements.  By
the AM–GM inequality the traffic is minimised at

    Hreq* = sqrt(ccorenum * pagesize_elements)
    Wreq* = channelnum * sqrt(ccorenum * pagesize_elements)

which for Cambricon-LLM-S (8 channels, 4 cores/channel, 16 KB pages, INT8)
gives the paper's 256 x 2048 tile.

With ``P`` weight elements per page, the integer tiles whose rows split
evenly across a channel's cores and whose columns split evenly across the
channels are exactly ``{(ccorenum * k, channelnum * P / k) : k divides P}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isqrt, sqrt
from typing import List, Tuple

from repro.flash.geometry import FlashGeometry


@dataclass(frozen=True)
class TileShape:
    """A read-compute tile: ``height`` output rows by ``width`` input columns."""

    height: int
    width: int

    def __post_init__(self) -> None:
        if self.height <= 0 or self.width <= 0:
            raise ValueError("tile dimensions must be positive")

    @property
    def elements(self) -> int:
        return self.height * self.width

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.height}x{self.width}"


@dataclass(frozen=True)
class TileGridStats:
    """How a weight matrix decomposes into tiles of a given shape."""

    tiles_high: int
    tiles_wide: int
    efficiency: float

    @property
    def num_tiles(self) -> int:
        return self.tiles_high * self.tiles_wide


@dataclass(frozen=True)
class TilingStrategy:
    """Tile-shape selection and traffic accounting for a flash geometry.

    Parameters
    ----------
    geometry:
        Flash array organisation (channel count, cores per channel, page size).
    weight_bits:
        Precision of the stored weights; fixes how many weight *elements* one
        page holds.
    activation_bits:
        Precision of the input/result vectors moved over the channels.
    input_broadcast:
        Whether input slices are broadcast to all cores of a channel
        (Fig. 7b, the paper's choice).  Disabling it reproduces the
        alternative split of Fig. 7c whose traffic lower bound is provably
        worse.
    """

    geometry: FlashGeometry
    weight_bits: int = 8
    activation_bits: int = 8
    input_broadcast: bool = True

    # -- page / tile capacity ----------------------------------------------------
    @property
    def page_elements(self) -> int:
        """Weight elements held by one flash page."""
        return int(self.geometry.page_bytes * 8 // self.weight_bits)

    @property
    def tile_elements(self) -> int:
        """Weight elements covered by one tile (one page per Compute Core)."""
        return self.page_elements * self.geometry.total_compute_cores

    # -- traffic model -------------------------------------------------------------
    def tile_transfer_bytes(self, tile: TileShape) -> float:
        """Channel traffic (all channels combined) caused by one tile.

        With input broadcast the input slice is sent once per channel; without
        it every core receives its own copy (Fig. 7c).
        """
        act = self.activation_bits / 8
        if self.input_broadcast:
            input_elems = tile.width
        else:
            input_elems = tile.width * self.geometry.compute_cores_per_channel
        output_elems = self.geometry.channels * tile.height
        return (input_elems + output_elems) * act

    def transfer_lower_bound(self) -> float:
        """The AM–GM minimum of the per-tile traffic (paper's min{Trans})."""
        act = self.activation_bits / 8
        ccores = self.geometry.compute_cores_per_channel
        channels = self.geometry.channels
        if self.input_broadcast:
            return 2.0 * channels * sqrt(ccores * self.page_elements) * act
        return 2.0 * channels * sqrt(
            ccores * self.page_elements * ccores
        ) * act

    # -- tile-shape selection ----------------------------------------------------------
    def ideal_tile(self) -> Tuple[float, float]:
        """Real-valued optimum (Hreq*, Wreq*) before rounding to integers."""
        ccores = self.geometry.compute_cores_per_channel
        height = sqrt(ccores * self.page_elements)
        width = self.geometry.channels * height
        return height, width

    def candidate_tiles(self) -> List[TileShape]:
        """Integer tile shapes that exactly pack one page per Compute Core.

        ``(ccorenum * k, channelnum * P / k)`` for each divisor ``k`` of
        the page's ``P`` elements, in ascending ``k`` (found by trial
        division up to ``sqrt(P)``).
        """
        ccores = self.geometry.compute_cores_per_channel
        channels = self.geometry.channels
        page = self.page_elements
        low = [k for k in range(1, isqrt(page) + 1) if page % k == 0]
        high = [page // k for k in reversed(low) if k * k != page]
        return [
            TileShape(height=ccores * k, width=channels * (page // k))
            for k in low + high
        ]

    def optimal_tile(self) -> TileShape:
        """The integer tile with minimal channel traffic (paper's Hreq*, Wreq*).

        Ties are broken towards the taller (narrower) tile, which fits the
        narrow projection matrices of real models with less edge waste.
        """
        return min(
            self.candidate_tiles(),
            key=lambda t: (self.tile_transfer_bytes(t), -t.height),
        )

    def best_tile_for_matrix(self, rows: int, cols: int) -> TileShape:
        """Pick the candidate tile best suited to a specific weight matrix.

        The traffic-optimal tile of :meth:`optimal_tile` can be wider than a
        narrow projection matrix (e.g. the 512x16384 tile of Cambricon-LLM-L
        against a 4096-wide matrix), which would leave most Compute Cores
        idle.  Tailoring the tile per matrix keeps one page per core while
        first minimising wasted tile coverage and then channel traffic.
        """
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")

        def score(tile: TileShape):
            stats = self.grid_for_matrix(rows, cols, tile)
            covered = stats.num_tiles * tile.elements
            traffic = stats.num_tiles * self.tile_transfer_bytes(tile)
            return (covered, traffic)

        return min(self.candidate_tiles(), key=score)

    # -- matrix decomposition --------------------------------------------------------------
    def grid_for_matrix(self, rows: int, cols: int, tile: TileShape = None) -> TileGridStats:
        """Decompose a ``rows x cols`` weight matrix into tiles.

        ``efficiency`` is the fraction of tile capacity doing useful work;
        it drops below 1.0 when tiles overhang the matrix edges, and collapses
        when the tile is larger than the matrix itself — the effect behind the
        chip-count saturation of Fig. 15(a).
        """
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if tile is None:
            tile = self.optimal_tile()
        tiles_high = ceil(rows / tile.height)
        tiles_wide = ceil(cols / tile.width)
        covered = tiles_high * tiles_wide * tile.elements
        return TileGridStats(
            tiles_high=tiles_high,
            tiles_wide=tiles_wide,
            efficiency=(rows * cols) / covered,
        )

    def matrix_efficiency(self, shapes: List[Tuple[int, int]], tile: TileShape = None) -> float:
        """Element-weighted tiling efficiency over a set of weight matrices.

        With ``tile=None`` each matrix uses its own best-fitting tile (the
        default scheduling policy); passing an explicit tile reproduces the
        fixed-shape ablation of Fig. 13.
        """
        if not shapes:
            raise ValueError("shapes must not be empty")
        total_elements = 0
        total_covered = 0.0
        for rows, cols in shapes:
            chosen = tile if tile is not None else self.best_tile_for_matrix(rows, cols)
            stats = self.grid_for_matrix(rows, cols, chosen)
            elements = rows * cols
            total_elements += elements
            total_covered += elements / stats.efficiency
        return total_elements / total_covered
