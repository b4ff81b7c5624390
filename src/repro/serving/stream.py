"""Streaming trace output: each CSV row filed when its record resolves,
and rendered and written to the sink a batch at a time.

The in-memory path renders the per-request trace *after* a run from the
full record list (:meth:`repro.serving.metrics.ServingReport.to_csv`).
For million-request runs that list — not the event loop — dominates
memory, so :func:`repro.serving.simulator.simulate` and
:func:`repro.fleet.simulator.simulate_fleet` instead accept a
``trace_sink`` (a file-like object or a path) and stream the trace,
optionally dropping each record once it resolved and its row was written
(``keep_records=False``), leaving only O(in-flight batch) record state
alive.

Byte-identity is the contract: both paths render every row with
:func:`repro.serving.metrics.trace_line`, so the sink receives exactly
the bytes ``to_csv()`` would have produced.  A record's row waits as its
inputs — the record, the sample its fold read, its device cell — from
when it resolves until its batch is written, so a resolved record's
stamps must stay final until then; nothing stamps one again.  Requests
*finish* out of arrival order while the trace is written in arrival
order, so the :class:`TraceStreamer` holds a row that resolved early
until every earlier row is filed.  Rendering a batch's rows back to
back, rather than one row between two loop passes, is what keeps a
row's cost near a tight loop's.
"""

from __future__ import annotations

import io
import os
from typing import Dict, IO, List, Optional, Sequence, Tuple, Union

from repro.serving.metrics import MetricSample, TraceCells, trace_csv, trace_line
from repro.serving.request import RequestRecord

#: What the loops accept as a trace sink: an open text-mode file-like
#: object (anything with ``write``) or a filesystem path to create.
TraceSink = Union[str, "os.PathLike[str]", IO[str]]

#: Rows rendered and written in arrival order per sink write.
BATCH_ROWS = 256

#: A row's inputs: its record, its sample and its device cell.
_Row = Tuple[RequestRecord, MetricSample, object]


class TraceStreamer:
    """Order-preserving row emitter behind every streamed trace.

    ``register`` is called once per record in arrival order, and only
    counts rows (and :attr:`max_buffered`); ``finish`` once it resolves,
    with the :func:`~repro.serving.metrics.metric_sample` its fold read
    and its trace-row position, and files the row's inputs (a fleet row's
    device cell comes from ``assignments``, the loop's routed devices in
    arrival order, as it stands then).  Rows are filed in arrival order,
    each as soon as its predecessors are, and rendered and written one
    batch of :data:`BATCH_ROWS` per sink write, plus what is filed at
    ``close`` and ``release`` — the error path included, so a run that
    raises leaves every filed row in the sink.  ``close`` expects every
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
        #: Text the next write starts with: the header (a CSV of no rows)
        #: until the first write.
        self._head = trace_csv((), None, assignments, None)
        #: Filed rows not yet written, in arrival order.
        self._rows: List[_Row] = []
        #: Row position -> a row that resolved before an earlier one.
        self._waiting: Dict[int, _Row] = {}
        #: The text this trace's rows reuse.
        self._cells = TraceCells()
        self._next = 0
        self._count = 0
        #: High-water mark of registered records whose rows are not yet
        #: filed — how far completion order diverged from arrival order
        #: (a debug metric: the streamer holds back O(max_buffered) rows).
        self.max_buffered = 0

    # -- event-loop interface ------------------------------------------------
    def register(self) -> None:
        """Count one more record admitted to the trace, in arrival order."""
        self._count += 1
        buffered = self._count - self._next
        if buffered > self.max_buffered:
            self.max_buffered = buffered

    def finish(
        self, record: RequestRecord, sample: MetricSample, position: int
    ) -> None:
        """File the row at ``position`` from ``record`` and ``sample``;
        file the ready prefix, and write it once it fills a batch."""
        assignments = self._assignments
        device = None if assignments is None else assignments[position]
        row = (record, sample, device)
        if position != self._next:
            self._waiting[position] = row
            return
        rows = self._rows
        rows.append(row)
        position += 1
        waiting = self._waiting
        while position in waiting:
            rows.append(waiting.pop(position))
            position += 1
        self._next = position
        if len(rows) >= BATCH_ROWS:
            self._write()

    def _write(self) -> None:
        """Render the filed rows back to back and write them in one call."""
        rows, self._rows = self._rows, []
        cells = self._cells
        text = "".join(
            [
                trace_line(record, sample, device, cells)
                for record, sample, device in rows
            ]
        )
        self._handle.write(self._head + text)
        self._head = ""

    # -- teardown ------------------------------------------------------------
    def close(self, tail: Sequence[Tuple[RequestRecord, MetricSample]] = ()) -> None:
        """Append ``tail``'s rows, write what is filed, release the sink.

        ``tail`` carries the records an early-exited run never delivered
        to a scheduler (they were never registered or routed), each with
        its sample; their rows render with blank lifecycle and device
        cells, exactly as ``to_csv`` would.
        """
        if self._next != self._count:
            raise RuntimeError(f"{self._count - self._next} trace rows never finished")
        device = None if self._assignments is None else ""
        for record, sample in tail:
            self._rows.append((record, sample, device))
            if len(self._rows) >= BATCH_ROWS:
                self._write()
        self.release()

    def release(self) -> None:
        """Write the filed rows, and close the sink if this streamer
        opened it (idempotent).  The loop's error path ends here too: rows
        still waiting on an earlier one are dropped."""
        if self._handle is None:
            return
        try:
            if self._rows or self._head:
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
