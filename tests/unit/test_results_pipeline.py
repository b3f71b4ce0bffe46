"""Unit tests for the result pipeline: store spill, converter, streaming."""

import datetime

import pytest

from repro import tdf
from repro.errors import ConversionError
from repro.results.converter import ResultConverter
from repro.results.store import ResultStore
from repro.xtra import types as t


class TestResultStore:
    def test_in_memory_until_cap(self):
        store = ResultStore(max_memory_bytes=1024)
        store.append(b"x" * 100)
        assert not store.spilled
        assert store.memory_bytes == 100

    def test_spills_past_cap_and_replays_in_order(self, tmp_path):
        store = ResultStore(max_memory_bytes=150, spill_dir=str(tmp_path))
        chunks = [bytes([i]) * 100 for i in range(5)]
        for chunk in chunks:
            store.append(chunk)
        assert store.spilled
        assert list(store) == chunks
        assert store.chunk_count == 5
        store.close()

    def test_iteration_is_repeatable(self, tmp_path):
        store = ResultStore(max_memory_bytes=10, spill_dir=str(tmp_path))
        store.append(b"abc")
        store.append(b"defg")
        assert list(store) == [b"abc", b"defg"]
        assert list(store) == [b"abc", b"defg"]
        store.close()

    def test_close_removes_spill_file(self, tmp_path):
        store = ResultStore(max_memory_bytes=1, spill_dir=str(tmp_path))
        store.append(b"spilled")
        assert any(tmp_path.iterdir())
        store.close()
        assert not any(tmp_path.iterdir())

    def test_context_manager(self, tmp_path):
        with ResultStore(max_memory_bytes=1, spill_dir=str(tmp_path)) as store:
            store.append(b"zz")
        assert not any(tmp_path.iterdir())


class TestResultConverter:
    def batches(self, rows, batch_rows=2):
        return list(tdf.batches_of(["N", "S", "D"], rows, batch_rows))

    def rows(self, count):
        return [(i, f"s{i}", datetime.date(2014, 1, 1 + i % 28))
                for i in range(count)]

    def test_roundtrip_through_source_format(self):
        rows = self.rows(5)
        converter = ResultConverter()
        result = converter.convert(self.batches(rows),
                                   [t.INTEGER, t.varchar(10), t.DATE])
        assert result.rowcount == 5
        assert result.rows() == rows
        result.close()

    def test_spill_path_exercised(self, tmp_path):
        converter = ResultConverter(max_memory_bytes=64, spill_dir=str(tmp_path))
        rows = self.rows(100)
        result = converter.convert(self.batches(rows, 10),
                                   [t.INTEGER, t.varchar(10), t.DATE])
        assert result.store is not None and result.store.spilled
        assert result.rows() == rows
        result.close()

    def test_empty_input(self):
        result = ResultConverter().convert([])
        assert result.rowcount == 0
        assert result.rows() == []


class TestStreamingConverter:
    """convert_stream: lazy pull, bounded buffering, spill mid-stream."""

    TYPES = [t.INTEGER, t.varchar(10), t.DATE]

    def batches(self, rows, batch_rows=2):
        return tdf.batches_of(["N", "S", "D"], rows, batch_rows)

    def rows(self, count):
        return [(i, f"s{i}", datetime.date(2014, 1, 1 + i % 28))
                for i in range(count)]

    def test_pulls_lazily_one_batch_at_a_time(self):
        """The converter must not read ahead of the consumer (serial path)."""
        pulled = []

        def tracked():
            for index, packet in enumerate(self.batches(self.rows(10), 2)):
                pulled.append(index)
                yield packet

        result = ResultConverter().convert_stream(tracked(), self.TYPES)
        assert pulled == [0]  # only the meta-sample packet so far
        chunks = result.iter_chunks()
        next(chunks)
        assert pulled == [0]
        next(chunks)
        assert pulled == [0, 1]

    def test_streaming_consumption_never_builds_a_store(self):
        result = ResultConverter().convert_stream(
            self.batches(self.rows(20), 4), self.TYPES)
        consumed = list(result.iter_chunks())
        assert len(consumed) == 5
        assert result.rowcount == 20  # accumulated, not re-buffered
        assert not result.streaming

    def test_stream_is_single_use(self):
        result = ResultConverter().convert_stream(
            self.batches(self.rows(4), 2), self.TYPES)
        list(result.iter_chunks())
        with pytest.raises(ConversionError):
            next(result.iter_chunks())

    def test_spill_triggered_mid_stream(self, tmp_path):
        """Draining through the store under a tiny budget spills partway and
        replays everything in order."""
        converter = ResultConverter(max_memory_bytes=64,
                                    spill_dir=str(tmp_path))
        rows = self.rows(100)
        result = converter.convert_stream(self.batches(rows, 10), self.TYPES)
        store = result.buffer()
        assert store.spilled
        assert store.memory_bytes <= 64
        assert store.high_water <= 64
        assert result.rows() == rows  # replay preserves order
        assert result.rows() == rows  # and is repeatable once buffered
        result.close()
        assert not any(tmp_path.iterdir())  # temp spill file cleaned up

    def test_rowcount_access_buffers_with_bounded_memory(self, tmp_path):
        converter = ResultConverter(max_memory_bytes=64,
                                    spill_dir=str(tmp_path))
        result = converter.convert_stream(
            self.batches(self.rows(100), 10), self.TYPES)
        assert result.rowcount == 100
        assert result.store.high_water <= 64
        result.close()

    def test_empty_result_still_yields_header_chunk(self):
        result = ResultConverter().convert_stream(
            self.batches([], 2), self.TYPES)
        assert result.rowcount == 0
        assert result.rows() == []

    def test_first_chunk_callback_fires_once(self):
        seen = []
        result = ResultConverter().convert_stream(
            self.batches(self.rows(6), 2), self.TYPES,
            on_first_chunk=lambda: seen.append(True))
        assert seen == []  # nothing converted until the consumer pulls
        list(result.iter_chunks())
        assert seen == [True]

    def test_close_stops_pulling(self):
        pulled = []

        def tracked():
            for index, packet in enumerate(self.batches(self.rows(10), 2)):
                pulled.append(index)
                yield packet

        result = ResultConverter().convert_stream(tracked(), self.TYPES)
        result.close()
        assert result.rowcount == 0
        assert pulled == [0]
