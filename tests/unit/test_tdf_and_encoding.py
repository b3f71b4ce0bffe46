"""Unit tests for the binary formats: TDF and the source wire encoding."""

import datetime
import time

import pytest

from repro import tdf
from repro.errors import ConversionError
from repro.protocol import encoding as enc
from repro.xtra import types as t


SAMPLE_ROWS = [
    (1, "text", 2.5, datetime.date(2014, 1, 1), True, None),
    (None, "", -0.0, datetime.date(1899, 12, 31), False,
     datetime.datetime(2018, 6, 10, 12, 30, 45)),
]
SAMPLE_COLUMNS = ["I", "S", "F", "D", "B", "X"]


class TestTDF:
    def test_roundtrip(self):
        packet = tdf.encode_batch(SAMPLE_COLUMNS, SAMPLE_ROWS)
        columns, rows = tdf.decode_batch(packet)
        assert columns == SAMPLE_COLUMNS
        assert rows == SAMPLE_ROWS

    def test_empty_batch(self):
        packet = tdf.encode_batch(["A"], [])
        columns, rows = tdf.decode_batch(packet)
        assert columns == ["A"]
        assert rows == []

    def test_nested_list_values(self):
        packet = tdf.encode_batch(["L"], [([1, "two", None],)])
        __, rows = tdf.decode_batch(packet)
        assert rows == [([1, "two", None],)]

    def test_bytes_values(self):
        packet = tdf.encode_batch(["B"], [(b"\x00\xff",)])
        __, rows = tdf.decode_batch(packet)
        assert rows == [(b"\x00\xff",)]

    def test_time_values(self):
        value = datetime.time(13, 5, 7, 123456)
        packet = tdf.encode_batch(["T"], [(value,)])
        __, rows = tdf.decode_batch(packet)
        assert rows == [(value,)]

    def test_timestamps_exact_over_full_range_in_any_time_zone(
            self, monkeypatch):
        """TIMESTAMP is microseconds since the naive epoch: years 1-9999
        survive, and a wall-clock time in a DST gap is not shifted."""
        values = [(datetime.datetime(9999, 12, 31, 23, 59, 59, 999999),),
                  (datetime.datetime(1, 1, 1),),
                  (datetime.datetime(2021, 3, 14, 2, 30),)]
        monkeypatch.setenv("TZ", "EST5EDT,M3.2.0,M11.1.0")  # New York
        time.tzset()
        try:
            __, rows = tdf.decode_batch(tdf.encode_batch(["TS"], values))
        finally:
            monkeypatch.undo()
            time.tzset()
        assert rows == values

    def test_integer_beyond_64_bits_rejected(self):
        with pytest.raises(ConversionError):
            tdf.encode_batch(["A"], [(2 ** 63,)])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ConversionError):
            tdf.encode_batch(["A", "B"], [(1,)])

    def test_bad_magic_rejected(self):
        with pytest.raises(ConversionError):
            tdf.decode_batch(b"XXXX" + b"\x00" * 8)

    def test_unencodable_value_rejected(self):
        with pytest.raises(ConversionError):
            tdf.encode_batch(["A"], [(object(),)])

    def test_batches_of_splits(self):
        rows = [(i,) for i in range(10)]
        packets = list(tdf.batches_of(["N"], rows, batch_rows=4))
        assert len(packets) == 3
        decoded = []
        for packet in packets:
            decoded.extend(tdf.decode_batch(packet)[1])
        assert decoded == rows

    def test_batches_of_empty_result_yields_one_header_packet(self):
        packets = list(tdf.batches_of(["N"], []))
        assert len(packets) == 1
        assert tdf.decode_batch(packets[0]) == (["N"], [])


class TestWireEncoding:
    def metas(self, rows):
        return enc.effective_meta(
            SAMPLE_COLUMNS,
            [t.BIGINT, t.varchar(10), t.FLOAT, t.DATE, t.SQLType(t.TypeKind.BOOLEAN),
             t.TIMESTAMP],
            rows)

    def test_roundtrip(self):
        rows = [
            (1, "text", 2.5, datetime.date(2014, 1, 1), True,
             datetime.datetime(2018, 6, 10, 12, 0)),
            (None, None, None, None, None, None),
        ]
        metas = self.metas(rows)
        blob = enc.encode_rows(metas, rows)
        assert enc.decode_rows(metas, blob) == rows

    def test_meta_roundtrip(self):
        metas = self.metas([])
        assert enc.decode_meta(enc.encode_meta(metas)) == metas

    def test_dates_use_teradata_internal_encoding(self):
        metas = [enc.ColumnMeta("D", enc.CODE_DATE)]
        blob = enc.encode_rows(metas, [(datetime.date(2014, 1, 1),)])
        # record: u32 len | bitmap(1) | i32 date.
        import struct

        (__, date_int) = struct.unpack("<xxxxb i", blob[:9])[0], \
            struct.unpack("<i", blob[5:9])[0]
        assert date_int == 1140101

    def test_unknown_type_inferred_from_values(self):
        metas = enc.effective_meta(["X"], [t.UNKNOWN], [(None,), (3,)])
        assert metas[0].code == enc.CODE_BIGINT

    def test_all_null_unknown_column_degrades_to_varchar(self):
        metas = enc.effective_meta(["X"], [t.UNKNOWN], [(None,)])
        assert metas[0].code == enc.CODE_VARCHAR

    def test_more_than_eight_columns_bitmap(self):
        names = [f"C{i}" for i in range(10)]
        metas = [enc.ColumnMeta(name, enc.CODE_INTEGER) for name in names]
        row = tuple(i if i % 3 else None for i in range(10))
        blob = enc.encode_rows(metas, [row])
        assert enc.decode_rows(metas, blob) == [row]

    def test_corrupt_record_rejected(self):
        metas = [enc.ColumnMeta("A", enc.CODE_INTEGER)]
        blob = enc.encode_rows(metas, [(1,)])
        # Declare a longer record than was written.
        import struct

        bad = struct.pack("<I", len(blob)) + blob[4:]
        with pytest.raises(ConversionError):
            enc.decode_rows(metas, bad)
