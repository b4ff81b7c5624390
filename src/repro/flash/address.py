"""Weight-to-page address mapping.

LLM weights are written into flash once (offline) and only read during
inference, so the mapping can be a simple deterministic striping: consecutive
pages of a weight matrix are spread round-robin across channels, then chips,
then dies, then planes.  This maximises the parallelism available to both
read-compute requests (which want one page per Compute Core) and plain reads
(which want to keep every channel busy).

The map also exposes distribution statistics used by the scalability study:
when the array has far more dies than a single weight matrix has pages, some
dies hold no data for that matrix and contribute nothing to its GeMV — the
effect behind the saturation in Fig. 15(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, Iterator, List, Tuple

from repro.flash.geometry import FlashGeometry


@dataclass(frozen=True)
class PageAddress:
    """Physical location of one page of weight data."""

    channel: int
    chip: int
    die: int
    plane: int
    block: int
    page: int


@dataclass
class WeightPageMap:
    """Striped placement of a weight blob across the flash array.

    Parameters
    ----------
    geometry:
        Flash array organisation.
    weight_bytes:
        Total bytes of weights to place.
    """

    geometry: FlashGeometry
    weight_bytes: float

    def __post_init__(self) -> None:
        if self.weight_bytes <= 0:
            raise ValueError("weight_bytes must be positive")
        if not self.geometry.can_store(self.weight_bytes):
            raise ValueError(
                f"weights of {self.weight_bytes / 2**30:.1f} GiB exceed flash "
                f"capacity of {self.geometry.total_capacity_bytes / 2**30:.1f} GiB"
            )
        self._num_pages = int(ceil(self.weight_bytes / self.geometry.page_bytes))

    # -- address arithmetic ----------------------------------------------------
    @property
    def num_pages(self) -> int:
        """Number of flash pages the weights occupy."""
        return self._num_pages

    def address_of(self, page_index: int) -> PageAddress:
        """Physical address of the ``page_index``-th logical weight page.

        Striping order: channel varies fastest, then chip, then die, then
        plane, then sequential block/page within the plane.
        """
        if page_index < 0 or page_index >= self._num_pages:
            raise IndexError(
                f"page_index {page_index} out of range [0, {self._num_pages})"
            )
        g = self.geometry
        channel = page_index % g.channels
        rest = page_index // g.channels
        chip = rest % g.chips_per_channel
        rest //= g.chips_per_channel
        die = rest % g.dies_per_chip
        rest //= g.dies_per_chip
        plane = rest % g.planes_per_die
        rest //= g.planes_per_die
        block = rest // g.pages_per_block
        page = rest % g.pages_per_block
        return PageAddress(channel, chip, die, plane, block, page)

    def iter_addresses(self) -> Iterator[PageAddress]:
        """Iterate over the addresses of all weight pages in logical order."""
        for index in range(self._num_pages):
            yield self.address_of(index)

    # -- distribution statistics -----------------------------------------------
    def pages_per_channel(self) -> List[int]:
        """Page count stored behind each channel."""
        counts = [0] * self.geometry.channels
        base, remainder = divmod(self._num_pages, self.geometry.channels)
        for channel in range(self.geometry.channels):
            counts[channel] = base + (1 if channel < remainder else 0)
        return counts

    def pages_per_die(self) -> Dict[Tuple[int, int, int], int]:
        """Page count stored on each die (keyed by channel, chip, die)."""
        counts: Dict[Tuple[int, int, int], int] = {}
        g = self.geometry
        dies_total = g.total_dies
        base, remainder = divmod(self._num_pages, dies_total)
        index = 0
        for channel in range(g.channels):
            for chip in range(g.chips_per_channel):
                for die in range(g.dies_per_chip):
                    counts[(channel, chip, die)] = base + (1 if index < remainder else 0)
                    index += 1
        return counts

    def die_utilization(self) -> float:
        """Fraction of dies that hold at least one weight page.

        Below 1.0 the in-flash compute cannot use every Compute Core for this
        weight blob — the saturation effect of Fig. 15(a).
        """
        populated = sum(1 for count in self.pages_per_die().values() if count > 0)
        return populated / self.geometry.total_dies

    def balance_ratio(self) -> float:
        """min/max pages per die over populated dies (1.0 = perfectly even)."""
        counts = [count for count in self.pages_per_die().values() if count > 0]
        if not counts:
            return 0.0
        return min(counts) / max(counts)
