"""Streaming trace output: CSV rows written the moment records finish.

The in-memory path renders the per-request trace *after* a run from the
full record list (:meth:`repro.serving.metrics.ServingReport.to_csv`).
For million-request runs that list — not the event loop — dominates
memory, so :func:`repro.serving.simulator.simulate` and
:func:`repro.fleet.simulator.simulate_fleet` instead accept a
``trace_sink`` (a file-like object or a path) and stream each row out the
moment the record is fully stamped, optionally dropping the record
afterwards (``keep_records=False``), leaving only O(in-flight batch)
record state alive.

Byte-identity is the contract: the sink receives exactly the bytes
``to_csv()`` would have produced.  Since requests *finish* out of arrival
order under continuous batching while the trace is written in arrival
order, the :class:`TraceStreamer` keeps a small reorder buffer and
flushes a record only once every earlier-arriving record has flushed —
the buffer holds at most the records currently in flight plus those
queued behind them, which is the same O(batch + queue) state the event
loop already carries.
"""

from __future__ import annotations

import csv
import io
import os
from typing import Callable, Dict, IO, List, Sequence, Tuple, Union

from repro.serving.request import RequestRecord

#: What the loops accept as a trace sink: an open text-mode file-like
#: object (anything with ``write``) or a filesystem path to create.
TraceSink = Union[str, "os.PathLike[str]", IO[str]]


def open_trace_sink(sink: TraceSink) -> Tuple[IO[str], bool]:
    """Resolve ``sink`` to ``(handle, owns_handle)``.

    Paths are opened for writing with ``newline=""`` (the csv module's
    requirement); file-like objects are used as-is and never closed here.
    """
    if hasattr(sink, "write"):
        return sink, False
    return open(os.fspath(sink), "w", newline=""), True


class TraceStreamer:
    """Order-preserving record emitter behind every streamed trace.

    ``register`` is called once per record in arrival order (assigning the
    record its trace-row index); ``finish`` when the record resolves.  Rows
    are written to the CSV sink in registration order, each as soon as all
    its predecessors have finished.  ``close`` drains whatever never
    finished (partially-stamped rows from an ``early_exit`` run) plus an
    optional tail of records that never even entered the loop, so the
    written trace covers exactly the rows the in-memory report would have
    rendered.  The streamer only writes rows: the event loop folds every
    record's metrics itself, when the record resolves.
    """

    def __init__(
        self,
        sink: TraceSink,
        header: Sequence[str],
        row_of: Callable[[RequestRecord, int], List[object]],
    ) -> None:
        self._row_of = row_of
        self._handle, self._owns_handle = open_trace_sink(sink)
        self._writer = csv.writer(self._handle, lineterminator="\n")
        self._writer.writerow(header)
        #: arrival index -> registered-but-unflushed record.
        self._buffer: Dict[int, RequestRecord] = {}
        #: id(record) -> arrival index, for live (buffered) records only.
        self._index_of: Dict[int, int] = {}
        #: arrival indices whose record has finished but not yet flushed.
        self._finished: set = set()
        self._next = 0
        self._count = 0
        #: High-water mark of the reorder buffer — how far completion
        #: order actually diverged from arrival order (a debug metric:
        #: bounds the streamer's extra memory at O(max_buffered) records).
        self.max_buffered = 0

    # -- event-loop interface ------------------------------------------------
    def register(self, record: RequestRecord) -> None:
        """Admit ``record`` to the trace in arrival order."""
        index = self._count
        self._count += 1
        buffer = self._buffer
        buffer[index] = record
        self._index_of[id(record)] = index
        if len(buffer) > self.max_buffered:
            self.max_buffered = len(buffer)

    def finish(self, record: RequestRecord) -> None:
        """Mark ``record`` fully stamped; flush the ready prefix."""
        self._finished.add(self._index_of[id(record)])
        while self._next in self._finished:
            self._finished.discard(self._next)
            self._flush(self._next)

    def _flush(self, index: int) -> None:
        record = self._buffer.pop(index)
        del self._index_of[id(record)]
        self._writer.writerow(self._row_of(record, index))
        self._next = index + 1

    # -- teardown ------------------------------------------------------------
    def close(self, tail: Sequence[RequestRecord] = ()) -> None:
        """Drain unfinished records in order, emit ``tail``, release the sink.

        ``tail`` carries the records an early-exited run never delivered
        to a scheduler (they were never registered); their rows render
        with blank lifecycle cells, exactly as ``to_csv`` would.
        """
        for index in sorted(self._buffer):
            self._flush(index)
        self._finished.clear()
        for record in tail:
            self._writer.writerow(self._row_of(record, self._count))
            self._count += 1
        self.release()

    def release(self) -> None:
        """Close the sink handle if this streamer opened it (idempotent)."""
        if self._owns_handle and self._handle is not None:
            self._handle.close()
            self._handle = None
            self._writer = None


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
