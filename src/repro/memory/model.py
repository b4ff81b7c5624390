"""The runtime KV memory model: DRAM pool + write cache + FTL + channels.

One :class:`KVMemoryModel` instance belongs to one scheduler for one run
(like the scheduler itself, it is stateful and not reusable).  The
scheduler asks it three questions — does this footprint fit, what does
spilling these bytes cost, what does reading spilled KV back cost — and
every answer is derived from integer byte ledgers, so two runs making
the same call sequence stay bit-identical.

Byte conservation invariants (checked by the unit tests):

* ``spilled_bytes == flash_spilled_bytes + write_cache.buffered_bytes``
* ``ftl.live_pages == ceil(flash_spilled_bytes / page_bytes)``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.memory.channel import FlashChannelModel
from repro.memory.footprint import KVFootprint
from repro.memory.ftl import PageMappedFTL
from repro.memory.pool import DramPool
from repro.memory.spec import MemorySpec
from repro.memory.write_cache import WriteCoalescingCache


@dataclass(frozen=True)
class MemoryReport:
    """Immutable end-of-run snapshot of the memory system's counters."""

    dram_capacity_bytes: int
    dram_high_water_bytes: int
    spill_capacity_bytes: int
    spilled_peak_bytes: int
    spill_events: int
    refill_events: int
    spill_bytes: int
    refill_bytes: int
    flash_pages_written: int
    flash_pages_read: int
    gc_page_copies: int
    erases: int
    write_cache_flushes: int

    @property
    def dram_high_water_fraction(self) -> float:
        return self.dram_high_water_bytes / self.dram_capacity_bytes

    def rows(self) -> List[Tuple[str, str]]:
        """(label, value) pairs for report summaries."""
        return [
            (
                "DRAM high water",
                f"{self.dram_high_water_bytes} B "
                f"({100.0 * self.dram_high_water_fraction:.1f}% of "
                f"{self.dram_capacity_bytes} B)",
            ),
            ("KV spills / refills", f"{self.spill_events} / {self.refill_events}"),
            (
                "KV bytes spilled / refilled",
                f"{self.spill_bytes} / {self.refill_bytes}",
            ),
            ("KV spill peak", f"{self.spilled_peak_bytes} B"),
            (
                "flash pages written / read",
                f"{self.flash_pages_written} / {self.flash_pages_read}",
            ),
            ("GC page copies / erases", f"{self.gc_page_copies} / {self.erases}"),
        ]


class KVMemoryModel:
    """Stateful composition the continuous scheduler plans against."""

    #: Cap on the per-request footprint memo (mirrors the scheduler memos).
    MEMO_SIZE = 4096

    #: Observability hook (:class:`repro.obs.Recorder`): the event loops
    #: attach the whole ``recorder=`` here, timelines included (they fold
    #: the spill/refill bytes).  Emissions are read-only — the byte
    #: ledgers never consult the recorder or the clock below.
    recorder = None
    #: Recorder track for spill/refill/GC instants; the fleet loop
    #: renames it per replica (``memory0``, ``memory1``, ...).
    track = "memory"
    #: Simulated time of the current planning call, synced by the
    #: scheduler whenever this model has a recorder (the model itself is
    #: clockless).
    now_s = 0.0

    def __init__(self, spec: MemorySpec):
        self.spec = spec
        self.pool = DramPool(spec.dram_bytes)
        self.write_cache = WriteCoalescingCache(spec.write_cache_bytes, spec.page_bytes)
        self.channel = FlashChannelModel(spec.flash, spec.timing, spec.channel_share)
        num_blocks = spec.spill_bytes // spec.block_bytes
        #: None when the spill area is too small for even the GC slack
        #: block — the model then degrades to a DRAM-only admission gate.
        self.ftl: Optional[PageMappedFTL] = (
            PageMappedFTL(num_blocks, spec.flash.pages_per_block)
            if num_blocks >= 2
            else None
        )
        #: Spilled bytes already flushed to flash (page-resident).
        self.flash_spilled_bytes = 0
        self.spill_events = 0
        self.refill_events = 0
        self.spill_bytes_total = 0
        self.refill_bytes_total = 0
        self.spilled_peak_bytes = 0
        self.flash_pages_read = 0
        self._footprints: dict = {}

    # -- capacity ------------------------------------------------------------
    @property
    def spill_capacity_bytes(self) -> int:
        """Flash bytes the spill path may occupy (after the GC slack block)."""
        if self.ftl is None:
            return 0
        return self.ftl.capacity_pages * self.spec.page_bytes

    @property
    def spilled_bytes(self) -> int:
        """KV bytes currently evicted from the pool (buffered + in flash)."""
        return self.flash_spilled_bytes + self.write_cache.buffered_bytes

    @property
    def flash_free_bytes(self) -> int:
        return self.spill_capacity_bytes - self.spilled_bytes

    def footprint(self, request) -> KVFootprint:
        """Memoized per-request footprint at this spec's KV precision."""
        memo = self._footprints
        hit = memo.get(request)
        if hit is not None:
            return hit
        footprint = KVFootprint.of_request(request, kv_bits=self.spec.kv_bits)
        if len(memo) >= self.MEMO_SIZE:
            memo.clear()
        memo[request] = footprint
        return footprint

    # -- the spill path --------------------------------------------------------
    def spill(self, num_bytes: int) -> float:
        """Evict ``num_bytes`` of KV to flash; return the modeled seconds.

        The bytes stream out of DRAM into the write-coalescing cache;
        whole pages flushed by the cache are programmed through the FTL,
        whose GC (copies + erases) is priced on the same occupancy.
        """
        if num_bytes <= 0:
            raise ValueError(f"spill needs positive bytes, got {num_bytes!r}")
        if num_bytes > self.flash_free_bytes:
            raise ValueError(
                f"spill({num_bytes}) exceeds free flash "
                f"({self.flash_free_bytes} of {self.spill_capacity_bytes} bytes)"
            )
        self.spill_events += 1
        self.spill_bytes_total += num_bytes
        seconds = num_bytes / self.spec.dram_bandwidth_bytes_per_s
        pages = self.write_cache.absorb(num_bytes)
        copies = erased = 0
        if pages:
            ftl = self.ftl
            erases_before = ftl.erases
            copies = ftl.write(pages)
            self.flash_spilled_bytes += pages * self.spec.page_bytes
            seconds += self.channel.write_seconds(pages + copies)
            if copies:
                self.flash_pages_read += copies
                seconds += self.channel.read_seconds(copies)
            erased = ftl.erases - erases_before
            seconds += self.channel.erase_seconds(erased)
        if self.spilled_bytes > self.spilled_peak_bytes:
            self.spilled_peak_bytes = self.spilled_bytes
        rec = self.recorder
        if rec is not None:
            rec.instant(
                self.track,
                "spill",
                self.now_s,
                {"bytes": num_bytes, "pages": pages, "seconds": seconds},
            )
            if copies or erased:
                rec.instant(
                    self.track,
                    "gc",
                    self.now_s,
                    {"page_copies": copies, "erases": erased},
                )
        return seconds

    def refill(self, num_bytes: int) -> float:
        """Bring ``num_bytes`` of spilled KV back to DRAM; return seconds.

        The oldest spilled bytes live in flash (the write cache holds the
        newest), so refill reads flash first and drains the buffer last.
        """
        if num_bytes <= 0:
            raise ValueError(f"refill needs positive bytes, got {num_bytes!r}")
        if num_bytes > self.spilled_bytes:
            raise ValueError(
                f"refill({num_bytes}) exceeds spilled bytes ({self.spilled_bytes})"
            )
        self.refill_events += 1
        self.refill_bytes_total += num_bytes
        seconds = num_bytes / self.spec.dram_bandwidth_bytes_per_s
        from_flash = min(num_bytes, self.flash_spilled_bytes)
        pages_read = 0
        if from_flash:
            page = self.spec.page_bytes
            pages_read = -(-from_flash // page)
            self.flash_pages_read += pages_read
            seconds += self.channel.read_seconds(pages_read)
            self._drop_flash(from_flash)
        if num_bytes > from_flash:
            self.write_cache.drop(num_bytes - from_flash)
        rec = self.recorder
        if rec is not None:
            rec.instant(
                self.track,
                "refill",
                self.now_s,
                {"bytes": num_bytes, "pages": pages_read, "seconds": seconds},
            )
        return seconds

    def discard(self, num_bytes: int) -> None:
        """A finished request's spilled bytes are dropped (trim — no I/O)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes > self.spilled_bytes:
            raise ValueError(
                f"discard({num_bytes}) exceeds spilled bytes ({self.spilled_bytes})"
            )
        from_flash = min(num_bytes, self.flash_spilled_bytes)
        if from_flash:
            self._drop_flash(from_flash)
        if num_bytes > from_flash:
            self.write_cache.drop(num_bytes - from_flash)

    def readthrough_seconds(self) -> float:
        """Per-step cost of attention reading the flash-resident KV.

        Every decode step re-reads the whole cache; the flash-resident
        part pays channel reads (the buffered part is still in DRAM).
        """
        if self.ftl is None or self.ftl.live_pages == 0:
            return 0.0
        pages = self.ftl.live_pages
        self.flash_pages_read += pages
        return self.channel.read_seconds(pages)

    def _drop_flash(self, num_bytes: int) -> None:
        """Shrink the flash-resident footprint, keeping the page invariant."""
        page = self.spec.page_bytes
        self.flash_spilled_bytes -= num_bytes
        target_live = -(-self.flash_spilled_bytes // page)
        self.ftl.invalidate(self.ftl.live_pages - target_live)

    # -- reporting -------------------------------------------------------------
    def report(self) -> MemoryReport:
        ftl = self.ftl
        return MemoryReport(
            dram_capacity_bytes=self.pool.capacity_bytes,
            dram_high_water_bytes=self.pool.high_water_bytes,
            spill_capacity_bytes=self.spill_capacity_bytes,
            spilled_peak_bytes=self.spilled_peak_bytes,
            spill_events=self.spill_events,
            refill_events=self.refill_events,
            spill_bytes=self.spill_bytes_total,
            refill_bytes=self.refill_bytes_total,
            flash_pages_written=ftl.page_writes if ftl is not None else 0,
            flash_pages_read=self.flash_pages_read,
            gc_page_copies=ftl.gc_page_copies if ftl is not None else 0,
            erases=ftl.erases if ftl is not None else 0,
            write_cache_flushes=self.write_cache.flushes,
        )
