"""Closed-form steady-state throughput model of the flash array.

This is the fast counterpart of :mod:`repro.flash.simulator`.  For the
regular, symmetric request streams produced by the hardware-aware tiling the
flash behaves like two coupled pipes per channel:

* the **in-die compute pipe** — every Compute Core consumes one page of
  weights per ``max(tR, t_compute)`` once its input slice has been broadcast;
* the **read pipe** — whatever channel time is left after the read-compute
  vector traffic can stream plain weight pages to the NPU, additionally capped
  by the array read rate of the planes not used by read-compute requests.

The model reports the same quantities as the event simulator (weight
consumption rates and channel utilisation) and the two are cross-checked in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flash.compute_core import ComputeCoreSpec
from repro.flash.geometry import FlashGeometry
from repro.flash.slicing import SliceControl, SlicePolicy
from repro.flash.timing import FlashTiming


@dataclass(frozen=True)
class FlashSteadyStateRates:
    """Steady-state per-array rates (bytes of weights per second)."""

    in_flash_rate: float
    read_stream_rate: float
    read_compute_channel_fraction: float
    tile_period_seconds: float

    @property
    def combined_rate(self) -> float:
        """Total rate at which weights are consumed (flash compute + NPU stream)."""
        return self.in_flash_rate + self.read_stream_rate


@dataclass(frozen=True)
class FlashSteadyStateModel:
    """Analytical throughput/occupancy model of the flash array.

    Parameters
    ----------
    geometry / timing / core / slice_control:
        Hardware description.
    weight_bits:
        Weight precision stored in the pages.
    activation_bits:
        Precision of the input/result vectors moved over the channel.
    """

    geometry: FlashGeometry
    timing: FlashTiming
    core: ComputeCoreSpec = ComputeCoreSpec()
    slice_control: SliceControl = SliceControl()
    weight_bits: int = 8
    activation_bits: int = 8

    # -- per-tile quantities -------------------------------------------------
    def tile_period_seconds(self) -> float:
        """Steady-state period between consecutive read-compute tiles.

        The per-die pipeline (array read → register move → compute) is limited
        by the slower of the page read and the page compute; the input
        broadcast and result collection ride in the remaining channel time.
        """
        t_read = self.timing.read_seconds
        t_compute = self.core.page_compute_seconds(
            self.geometry.page_bytes, self.weight_bits
        )
        return max(t_read, t_compute)

    def tile_channel_bytes_per_channel(self, tile_height: float, tile_width: float) -> float:
        """Channel traffic one tile causes on one channel (input + results)."""
        act_bytes = self.activation_bits / 8
        input_bytes = tile_width / self.geometry.channels * act_bytes
        output_bytes = tile_height * act_bytes
        return input_bytes + output_bytes

    def read_compute_channel_fraction(self, tile_height: float, tile_width: float) -> float:
        """Fraction of channel time consumed by read-compute vector traffic.

        This is the paper's ``rate_rc``; with the optimal tile it stays below
        a few percent, which is exactly the under-utilisation the Slice
        Control reclaims for plain reads.
        """
        per_tile = self.tile_channel_bytes_per_channel(tile_height, tile_width)
        transfer_time = self.timing.transfer_seconds(per_tile)
        overhead = self.timing.command_overhead_seconds * (
            1 + self.geometry.compute_cores_per_channel
        )
        return min(1.0, (transfer_time + overhead) / self.tile_period_seconds())

    # -- steady-state rates ----------------------------------------------------
    def effective_tile_period(self) -> float:
        """Tile period including the Slice Control policy's blocking effect.

        Under the UNSLICED policy every interleaved whole-page read transfer
        delays the next tile's input broadcast (Fig. 6b), stretching the
        read-compute cycle by one page transfer time.
        """
        if self.slice_control.policy is SlicePolicy.UNSLICED:
            return self.unsliced_tile_period()
        return self.tile_period_seconds()

    def in_flash_weight_rate(self, core_utilization: float = 1.0) -> float:
        """Bytes/s of weights consumed by the on-die Compute Cores.

        ``core_utilization`` scales the rate down when the weight matrix
        cannot populate every die or tile (see
        :meth:`repro.core.tiling.TilingStrategy.matrix_efficiency` and
        :meth:`repro.flash.address.WeightPageMap.die_utilization`).
        """
        if not 0.0 <= core_utilization <= 1.0:
            raise ValueError("core_utilization must be within [0, 1]")
        per_core = self.geometry.page_bytes / self.effective_tile_period()
        return per_core * self.geometry.total_compute_cores * core_utilization

    def read_plane_array_rate(self) -> float:
        """Array-side read bandwidth available to plain reads (bytes/s).

        The paper dedicates the plane not serving read-compute requests to
        plain reads, so one plane per die feeds the read stream.
        """
        planes_for_reads = max(1, self.geometry.planes_per_die - 1)
        per_die = planes_for_reads * self.geometry.page_bytes / self.timing.read_seconds
        return per_die * self.geometry.total_dies

    def read_stream_rate(self, tile_height: float, tile_width: float) -> float:
        """Bytes/s of weights streamed to the NPU through the channels."""
        if not self.slice_control.allows_read_requests:
            return 0.0
        fraction = self.read_compute_channel_fraction(tile_height, tile_width)
        channel_rate = (
            (1.0 - fraction)
            * self.timing.channel_bandwidth
            * self.geometry.channels
        )
        if self.slice_control.policy is SlicePolicy.UNSLICED:
            # Un-sliced page transfers block the read-compute vector traffic
            # (Fig. 6b): the channel alternately serves a whole page and a
            # read-compute tile's vectors, so roughly one page per tile period
            # plus the page transfer time itself gets through.  The event
            # simulator models this precisely; this closed form captures the
            # first-order slowdown.
            page_transfer = self.timing.page_transfer_seconds(self.geometry.page_bytes)
            period = self.tile_period_seconds() + page_transfer
            channel_rate = (
                self.geometry.page_bytes / period * self.geometry.channels
            )
        return min(channel_rate, self.read_plane_array_rate())

    def rates(
        self,
        tile_height: float,
        tile_width: float,
        core_utilization: float = 1.0,
    ) -> FlashSteadyStateRates:
        """Bundle the steady-state rates for a given tile shape."""
        return FlashSteadyStateRates(
            in_flash_rate=self.in_flash_weight_rate(core_utilization),
            read_stream_rate=self.read_stream_rate(tile_height, tile_width),
            read_compute_channel_fraction=self.read_compute_channel_fraction(
                tile_height, tile_width
            ),
            tile_period_seconds=self.tile_period_seconds(),
        )

    def unsliced_tile_period(self) -> float:
        """Effective tile period when plain reads are not sliced (Fig. 6b).

        Each interleaved whole-page transfer extends the read-compute cycle
        because the input broadcast of the next tile has to wait for it.
        """
        return self.tile_period_seconds() + self.timing.page_transfer_seconds(
            self.geometry.page_bytes
        )
