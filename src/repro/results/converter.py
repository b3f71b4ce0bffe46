"""The Result Converter: backend rows -> source binary format (Section 4.6).

Takes the row batches coming out of the ODBC Server and encodes each one
straight into the source database's binary record format with one compiled
:class:`~repro.protocol.encoding.RowCodec` per result
(:meth:`ResultConverter.encode_stream`), and either streams the converted
chunks or buffers them in a :class:`~repro.results.store.ResultStore` when
the source protocol needs the full count up front. Every batch passes :func:`repro.tdf.conform_batch`, so
the bytes equal those of a TDF round trip without paying for one;
:meth:`~ResultConverter.convert_stream` and :meth:`~ResultConverter.convert`
are the adapters for callers that hold TDF packets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from repro import tdf
from repro.errors import ConversionError
from repro.core import timing as timing_mod
from repro.core import trace as trace_mod
from repro.protocol.encoding import (
    ColumnMeta, RowCodec, decode_rows, effective_meta)
from repro.results.store import ResultStore
from repro.xtra.types import SQLType


@dataclass
class ConvertedResult:
    """A fully converted result set in source binary format."""

    metas: list[ColumnMeta]
    chunks: list[bytes] = field(default_factory=list)
    rowcount: int = 0
    store: Optional[ResultStore] = None

    def iter_chunks(self) -> Iterator[bytes]:
        if self.store is not None:
            yield from self.store
        else:
            yield from self.chunks

    def rows(self) -> list[tuple]:
        """Decode back into Python rows (what a client library would do)."""
        out: list[tuple] = []
        for chunk in self.iter_chunks():
            out.extend(decode_rows(self.metas, chunk))
        return out

    def close(self) -> None:
        """Release converted row data (buffers and any spill file)."""
        self.chunks = []
        if self.store is not None:
            self.store.close()


class StreamingResult:
    """A converted result whose chunks arrive lazily from the backend.

    Chunks flow through exactly once via :meth:`iter_chunks`; nothing is
    retained unless a consumer needs replay or the total row count first, in
    which case :meth:`buffer` drains the remainder into a bounded
    :class:`ResultStore` (spilling past the memory budget). The interface
    mirrors :class:`ConvertedResult` so downstream layers take either.
    """

    def __init__(self, metas: list[ColumnMeta],
                 source: Iterator[tuple[bytes, int]],
                 max_memory_bytes: int = 64 * 1024 * 1024,
                 spill_dir: Optional[str] = None,
                 on_first_chunk: Optional[Callable[[], None]] = None):
        self.metas = metas
        self._source = source
        self._max_memory = max_memory_bytes
        self._spill_dir = spill_dir
        self._on_first_chunk = on_first_chunk
        self._store: Optional[ResultStore] = None
        self._rowcount = 0
        self._consumed = False
        #: Largest single converted chunk seen — the layer's live footprint
        #: on the pure streaming path.
        self.peak_chunk_bytes = 0

    @property
    def streaming(self) -> bool:
        return not self._consumed and self._store is None

    @property
    def store(self) -> ResultStore:
        """The bounded buffer behind this result (compatibility accessor:
        drains the remaining stream into it on first touch)."""
        return self.buffer()

    @property
    def rowcount(self) -> int:
        """Total rows; buffers the remaining stream to find out."""
        if not self._consumed:
            self.buffer()
        return self._rowcount

    def _pull(self) -> Iterator[bytes]:
        first = True
        for chunk, nrows in self._source:
            self._rowcount += nrows
            if len(chunk) > self.peak_chunk_bytes:
                self.peak_chunk_bytes = len(chunk)
            if first:
                first = False
                if self._on_first_chunk is not None:
                    self._on_first_chunk()
            yield chunk
        self._consumed = True

    def iter_chunks(self) -> Iterator[bytes]:
        """Yield converted chunks: replayed from the buffer once one exists,
        otherwise streamed straight through (single use)."""
        if self._store is not None:
            yield from self._store
            return
        if self._consumed:
            raise ConversionError("converted stream was already consumed")
        yield from self._pull()

    def buffer(self) -> ResultStore:
        """Drain the stream into a bounded store; replayable afterwards."""
        if self._store is None:
            store = ResultStore(self._max_memory, self._spill_dir)
            if not self._consumed:
                for chunk in self._pull():
                    store.append(chunk)
            self._store = store
        return self._store

    def rows(self) -> list[tuple]:
        """Decode back into Python rows (what a client library would do)."""
        self.buffer()
        out: list[tuple] = []
        for chunk in self.iter_chunks():
            out.extend(decode_rows(self.metas, chunk))
        return out

    def close(self) -> None:
        """Release buffered chunks and stop pulling from the backend."""
        source, self._source = self._source, iter(())
        self._consumed = True
        close_source = getattr(source, "close", None)
        if close_source is not None:
            # Run the conversion generator's finally blocks now (span
            # finish, in-flight encode bookkeeping) instead of at GC time —
            # the wire paths call close() even on abrupt client disconnect.
            try:
                close_source()
            except Exception:
                pass
        if self._store is not None:
            self._store.close()
            self._store = None


class ResultConverter:
    """Converts backend row batches into source-format chunks, one batch at
    a time on the consumer's thread. (The paper forks conversion processes;
    threads only add a hand-off here, because the GIL serializes the codec.)
    """

    def __init__(self, max_memory_bytes: int = 64 * 1024 * 1024,
                 spill_dir: Optional[str] = None):
        self._max_memory = max_memory_bytes
        self._spill_dir = spill_dir

    def set_max_memory(self, max_memory_bytes: int) -> None:
        """Adjust the buffering ceiling for subsequent conversions
        (per-request workload-class budget overrides)."""
        if max_memory_bytes < 0:
            raise ValueError("max_memory_bytes cannot be negative")
        self._max_memory = max_memory_bytes

    def encode_stream(self, columns: list[str],
                      row_batches: Iterable[list[tuple]],
                      declared_types: Optional[list[SQLType]] = None,
                      on_first_chunk: Optional[Callable[[], None]] = None,
                      tee: Optional[Callable[[list[ColumnMeta], Iterator],
                                             Iterator]] = None,
                      ) -> StreamingResult:
        """Encode row batches into source chunks one batch at a time — the
        one conversion pipeline.

        Pulls lazily from *row_batches*; only the first batch is taken up
        front (it supplies the sample for meta inference, and it makes a
        malformed result fail at convert time). Each batch passes
        :func:`repro.tdf.conform_batch` and one compiled codec per stream
        encodes it; that time is charged to the ``result_conversion`` stage
        of the request building the stream, as the stream is consumed.
        *tee*, given the metas and the ``(chunk, rows)`` stream, returns the
        stream the result will consume (the result cache captures chunks
        this way).
        """
        charge = timing_mod.charger("convert")
        clock = time.perf_counter
        width = len(columns)
        iterator = iter(row_batches)
        first = next(iterator, None)  # backend pull, not conversion
        if first is None:
            return StreamingResult([], iter(()), self._max_memory,
                                   self._spill_dir, on_first_chunk)
        start = clock()
        first = tdf.conform_batch(width, first)
        metas = effective_meta(columns, declared_types or [], first)
        charge(clock() - start)
        codec = RowCodec.for_metas(metas)  # one compiled codec per stream

        def chunk_source() -> Iterator[tuple[bytes, int]]:
            encode, conform = codec.encode, tdf.conform_batch
            rows, start = first, clock()
            while True:
                chunk = encode(rows)
                charge(clock() - start)
                yield chunk, len(rows)
                rows = next(iterator, None)  # backend pull, not conversion
                if rows is None:
                    return
                start = clock()
                rows = conform(width, rows)

        def traced_source() -> Iterator[tuple[bytes, int]]:
            # One span covers the whole lazy conversion, opened at first
            # pull on whatever thread is draining (so it nests under the
            # wire-encode span on the server path) and closed when the
            # stream ends — or clamped by Trace.finish if abandoned.
            span = trace_mod.begin_span("result_convert")
            chunks = rows = size = 0
            try:
                for chunk, nrows in chunk_source():
                    chunks += 1
                    rows += nrows
                    size += len(chunk)
                    yield chunk, nrows
            finally:
                if span is not None:
                    span.annotate("chunks", chunks)
                    span.annotate("rows", rows)
                    span.annotate("bytes", size)
                    span.finish()

        source = traced_source()
        if tee is not None:
            source = tee(metas, source)
        return StreamingResult(metas, source, self._max_memory,
                               self._spill_dir, on_first_chunk)

    def encode(self, columns: list[str], row_batches: Iterable[list[tuple]],
               declared_types: Optional[list[SQLType]] = None,
               ) -> ConvertedResult:
        """:meth:`encode_stream`, drained into a :class:`ConvertedResult`
        backed by a bounded store."""
        stream = self.encode_stream(columns, row_batches, declared_types)
        store = stream.buffer()
        return ConvertedResult(metas=stream.metas, rowcount=stream.rowcount,
                               store=store)

    def convert_stream(self, batches: Iterable[bytes],
                       declared_types: Optional[list[SQLType]] = None,
                       on_first_chunk: Optional[Callable[[], None]] = None,
                       ) -> StreamingResult:
        """TDF adapter over :meth:`encode_stream`: each packet is decoded
        when the stream pulls it (the first one up front, for its column
        names)."""
        columns, row_batches = _decode_first(iter(batches))
        return self.encode_stream(columns, row_batches, declared_types,
                                  on_first_chunk=on_first_chunk)

    def convert(self, batches: Iterable[bytes],
                declared_types: Optional[list[SQLType]] = None
                ) -> ConvertedResult:
        """TDF adapter over :meth:`encode`."""
        columns, row_batches = _decode_first(iter(batches))
        return self.encode(columns, row_batches, declared_types)


def _decode_first(packets: Iterator[bytes]):
    """``(columns, lazily decoded row batches)`` of a TDF packet stream;
    no columns and no batches when there is no packet."""
    first = next(packets, None)
    if first is None:
        return [], iter(())
    columns, rows = tdf.decode_batch(first)

    def row_batches() -> Iterator[list[tuple]]:
        yield rows
        for packet in packets:
            yield tdf.decode_batch(packet)[1]

    return columns, row_batches()
