"""Opt-in wall-clock phase timers for the event loops.

Everything else in ``repro.obs`` runs on the simulated clock and is part
of the determinism guarantee; this module is the one deliberate
exception.  A :class:`PhaseProfiler` accumulates *real* elapsed seconds
(``time.perf_counter``) around the loops' planning, dispatch and
metric-folding phases, answering "where does the simulator itself spend
its wall clock" — the question the perf suite's ``obs`` section asks.

Wall-clock readings are machine- and load-dependent, so profiler output
is explicitly excluded from byte-identity invariants: attaching one
never changes a trace, a report, or a recorder's event stream, only how
fast the loop runs (two ``perf_counter`` calls per timed phase).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Tuple


class PhaseProfiler:
    """Accumulates wall-clock seconds per named phase.

    The event loop calls :meth:`add` with pre-measured durations (it
    hoists ``perf_counter`` into a local and times phases inline);
    :meth:`time` wraps the same bookkeeping as a context manager for
    coarser call sites.
    """

    __slots__ = ("seconds", "counts")

    #: The wall-clock source, exposed on the profiler so the simulation
    #: packages never import a time module themselves — their no-wall-
    #: clock guard tests stay meaningful, and the only clock reads in a
    #: run are the ones an explicitly-passed profiler performs.
    clock = staticmethod(perf_counter)

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        """Fold one timed interval into ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.counts[phase] = self.counts.get(phase, 0) + 1

    @contextmanager
    def time(self, phase: str) -> Iterator[None]:
        """``with profiler.time("planning"): ...`` convenience wrapper."""
        start = perf_counter()
        try:
            yield
        finally:
            self.add(phase, perf_counter() - start)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"seconds": ..., "count": ...}}``, sorted by cost."""
        return {
            phase: {"seconds": self.seconds[phase], "count": self.counts[phase]}
            for phase in sorted(
                self.seconds, key=lambda name: (-self.seconds[name], name)
            )
        }

    def rows(self) -> List[Tuple[str, str]]:
        """(label, value) pairs for report-style tables."""
        return [
            (
                f"wall {phase} (s)",
                f"{stats['seconds']:.4f} ({int(stats['count'])} calls)",
            )
            for phase, stats in self.summary().items()
        ]
