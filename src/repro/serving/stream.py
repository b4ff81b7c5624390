"""Streaming trace output: each CSV row rendered once, when its record
resolves, and written to the sink in batches.

The in-memory path renders the per-request trace *after* a run from the
full record list (:meth:`repro.serving.metrics.ServingReport.to_csv`).
For million-request runs that list — not the event loop — dominates
memory, so :func:`repro.serving.simulator.simulate` and
:func:`repro.fleet.simulator.simulate_fleet` instead accept a
``trace_sink`` (a file-like object or a path) and stream the trace,
optionally dropping each record once it resolves (``keep_records=False``),
leaving only O(in-flight batch) record state alive.

Byte-identity is the contract: both paths render every row with
:func:`repro.serving.metrics.trace_line`, so the sink receives exactly
the bytes ``to_csv()`` would have produced.  A record's row is rendered
when it resolves, from the sample its fold read.  Requests *finish* out
of arrival order while the trace is written in arrival order, so the
:class:`TraceStreamer` keeps a row that finished early, as text, until
every earlier row is released.
"""

from __future__ import annotations

import io
import os
from typing import Dict, IO, List, Optional, Sequence, Tuple, Union

from repro.serving.metrics import MetricSample, trace_csv, trace_line
from repro.serving.request import RequestRecord

#: What the loops accept as a trace sink: an open text-mode file-like
#: object (anything with ``write``) or a filesystem path to create.
TraceSink = Union[str, "os.PathLike[str]", IO[str]]

#: Rows released in arrival order per sink write.
BATCH_ROWS = 256


class TraceStreamer:
    """Order-preserving row emitter behind every streamed trace.

    ``register`` is called once per record in arrival order (assigning its
    trace-row index); ``finish`` once it resolves, with the
    :func:`~repro.serving.metrics.metric_sample` its fold read, and renders
    its row at once (a fleet row's device cell comes from ``assignments``,
    the loop's routed devices in arrival order).  Rows are released in
    registration order, each as soon as its predecessors are, and written
    one batch of :data:`BATCH_ROWS` per sink write, plus what is pending
    at ``close`` and ``release`` — the error path included, so a run that
    raises leaves every released row in the sink.  ``close`` expects every
    registered record finished (an ``early_exit`` run finishes its
    unresolved ones, partially stamped, first) and appends the rows of
    records that never entered the loop, so the trace covers exactly the
    rows the in-memory report would have rendered.
    """

    def __init__(self, sink: TraceSink, assignments: Optional[List[int]]) -> None:
        self._assignments = assignments
        # A file-like sink is used as-is and never closed here; a path is
        # opened with the csv module's ``newline=""``.
        owns = self._owns_handle = not hasattr(sink, "write")
        self._handle = open(os.fspath(sink), "w", newline="") if owns else sink
        #: Released rows not yet written, after the header (a CSV of no rows).
        self._pending: List[str] = [trace_csv((), None, assignments, None)]
        #: id(record) -> arrival index, for registered, unfinished records.
        self._index_of: Dict[int, int] = {}
        #: arrival index -> row of a record that finished before an earlier one.
        self._waiting: Dict[int, str] = {}
        self._next = 0
        self._count = 0
        #: High-water mark of registered records whose rows are not yet
        #: released — how far completion order diverged from arrival order
        #: (a debug metric: the streamer holds back O(max_buffered) rows).
        self.max_buffered = 0

    # -- event-loop interface ------------------------------------------------
    def register(self, record: RequestRecord) -> None:
        """Admit ``record`` to the trace in arrival order."""
        index = self._count
        self._count = index + 1
        self._index_of[id(record)] = index
        buffered = self._count - self._next
        if buffered > self.max_buffered:
            self.max_buffered = buffered

    def finish(self, record: RequestRecord, sample: MetricSample) -> None:
        """Render ``record``'s row from ``sample``; release the ready prefix."""
        index = self._index_of.pop(id(record))
        assignments = self._assignments
        device = None if assignments is None else assignments[index]
        line = trace_line(record, sample, device)
        if index != self._next:
            self._waiting[index] = line
            return
        pending = self._pending
        pending.append(line)
        index += 1
        waiting = self._waiting
        while index in waiting:
            pending.append(waiting.pop(index))
            index += 1
        self._next = index
        if len(pending) >= BATCH_ROWS:
            self._write()

    def _write(self) -> None:
        self._handle.write("".join(self._pending))
        self._pending.clear()

    # -- teardown ------------------------------------------------------------
    def close(self, tail: Sequence[Tuple[RequestRecord, MetricSample]] = ()) -> None:
        """Append ``tail``'s rows, write what is pending, release the sink.

        ``tail`` carries the records an early-exited run never delivered
        to a scheduler (they were never registered or routed), each with
        its sample; their rows render with blank lifecycle and device
        cells, exactly as ``to_csv`` would.
        """
        if self._index_of:
            raise RuntimeError(f"{len(self._index_of)} trace rows never finished")
        pending = self._pending
        device = None if self._assignments is None else ""
        for record, sample in tail:
            pending.append(trace_line(record, sample, device))
            if len(pending) >= BATCH_ROWS:
                self._write()
        self.release()

    def release(self) -> None:
        """Write the pending rows, and close the sink if this streamer
        opened it (idempotent).  The loop's error path ends here too: rows
        still waiting on an earlier one are dropped."""
        if self._handle is None:
            return
        try:
            if self._pending:
                self._write()
        finally:
            if self._owns_handle:
                self._handle.close()
            self._handle = None


class DigestSink(io.TextIOBase):
    """A write-only sink hashing everything written to it (O(1) memory).

    Comparing two million-row traces byte for byte without holding either
    in memory: stream both runs through a ``DigestSink`` and compare
    :meth:`hexdigest`.  Used by the perf suite's byte-identity checks.
    """

    def __init__(self, algorithm: str = "sha256") -> None:
        import hashlib

        self._hash = hashlib.new(algorithm)
        self.bytes_written = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self._hash.update(data)
        self.bytes_written += len(data)
        return len(text)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
