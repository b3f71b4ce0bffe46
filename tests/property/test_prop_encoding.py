"""Property tests for the compiled row codecs (``RowCodec``).

The compiled encode/decode functions are an optimization; the behavioral
contract is the reference implementation
(``encode_rows_reference``/``decode_rows_reference``), which this battery
holds them to three ways:

* **round-trip** — every encodable row comes back exactly, across NULLs,
  empty strings, non-ASCII text, maximum-length varchars, boundary
  integers, and decimals;
* **byte identity** — the compiled encoder produces byte-for-byte the
  reference encoder's output (old clients must keep decoding new servers),
  and the compiled decoder reads reference-encoded blobs;
* **chunk-boundary invariance** — splitting a row batch into arbitrary
  chunks and concatenating the decoded chunks equals decoding the whole:
  records never straddle or depend on chunk boundaries.

The codecs pack NULL-free records by runs of fixed-width columns, so three
more families aim at that path: wrong-typed values that make it give up
part-way through a record, decoder edges (NULL-free and NULL-bearing records
in one chunk, slices of a larger buffer, truncation), and the bound on the
DATE memos.
"""

import datetime

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConversionError
from repro.protocol import encoding as enc
from repro.protocol.encoding import ColumnMeta, RowCodec

# -- value strategies per wire type code ----------------------------------------------

# DATE is carried as the Teradata integer (YYYY-1900)MMDD, which cannot
# represent years before 1900.
_dates = st.dates(min_value=datetime.date(1900, 1, 1),
                  max_value=datetime.date(9999, 12, 31))
# Naive datetimes only: the wire carries ``isoformat(sep=" ")`` and the
# decoder parses it back without timezone handling.
_datetimes = st.datetimes(min_value=datetime.datetime(1900, 1, 1),
                          max_value=datetime.datetime(9999, 12, 28))
_text = st.text(max_size=120)  # includes empty strings and non-ASCII

_VALUES_BY_CODE = {
    enc.CODE_SMALLINT: st.integers(min_value=-(2 ** 15),
                                   max_value=2 ** 15 - 1),
    enc.CODE_INTEGER: st.integers(min_value=-(2 ** 31),
                                  max_value=2 ** 31 - 1),
    enc.CODE_BIGINT: st.integers(min_value=-(2 ** 63),
                                 max_value=2 ** 63 - 1),
    enc.CODE_FLOAT: st.floats(allow_nan=False, allow_infinity=False,
                              width=64),
    enc.CODE_DECIMAL: st.floats(allow_nan=False, allow_infinity=False,
                                width=64),
    enc.CODE_CHAR: _text,
    enc.CODE_VARCHAR: _text,
    enc.CODE_DATE: _dates,
    enc.CODE_TIMESTAMP: _datetimes,
    enc.CODE_BOOLEAN: st.booleans(),
    enc.CODE_TIME: st.times(),
}

# Up to 10 columns so the NULL bitmap regularly crosses its one-byte
# boundary (9+ columns need two bitmap bytes).
_schemas = st.lists(st.sampled_from(sorted(_VALUES_BY_CODE)),
                    min_size=1, max_size=10)


def _metas_for(codes: list[int]) -> list[ColumnMeta]:
    return [ColumnMeta(name=f"C{i}", code=code)
            for i, code in enumerate(codes)]


@st.composite
def schema_and_rows(draw, max_rows: int = 30):
    codes = draw(_schemas)
    row = st.tuples(*[st.one_of(st.none(), _VALUES_BY_CODE[code])
                      for code in codes])
    rows = draw(st.lists(row, max_size=max_rows))
    return codes, rows


class TestRoundTrip:
    @given(data=schema_and_rows())
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_roundtrip(self, data):
        codes, rows = data
        codec = RowCodec.for_metas(_metas_for(codes))
        assert codec.decode(codec.encode(rows)) == rows

    def test_max_length_varchar(self):
        # The u16 length prefix caps strings at 65535 UTF-8 bytes; the
        # maximum must survive, one byte more must be rejected.
        import struct

        import pytest

        codec = RowCodec.for_codes((enc.CODE_VARCHAR,))
        rows = [("x" * 65535,), ("",), (None,)]
        assert codec.decode(codec.encode(rows)) == rows
        with pytest.raises((struct.error, Exception)):
            codec.encode([("x" * 65536,)])

    def test_boundary_integers(self):
        for code, lo, hi in [
            (enc.CODE_SMALLINT, -(2 ** 15), 2 ** 15 - 1),
            (enc.CODE_INTEGER, -(2 ** 31), 2 ** 31 - 1),
            (enc.CODE_BIGINT, -(2 ** 63), 2 ** 63 - 1),
        ]:
            codec = RowCodec.for_codes((code,))
            rows = [(lo,), (hi,), (0,), (-1,), (None,)]
            assert codec.decode(codec.encode(rows)) == rows

    def test_empty_batch(self):
        codec = RowCodec.for_codes((enc.CODE_INTEGER, enc.CODE_VARCHAR))
        assert codec.encode([]) == b""
        assert codec.decode(b"") == []

    def test_all_null_row(self):
        codes = tuple(sorted(_VALUES_BY_CODE))
        codec = RowCodec.for_codes(codes)
        rows = [tuple(None for __ in codes)]
        assert codec.decode(codec.encode(rows)) == rows


class TestReferenceByteIdentity:
    @given(data=schema_and_rows())
    @settings(max_examples=200, deadline=None)
    def test_compiled_encoder_matches_reference(self, data):
        codes, rows = data
        metas = _metas_for(codes)
        compiled = RowCodec.for_metas(metas).encode(rows)
        reference = enc.encode_rows_reference(metas, rows)
        assert compiled == reference

    @given(data=schema_and_rows())
    @settings(max_examples=100, deadline=None)
    def test_compiled_decoder_reads_reference_blobs(self, data):
        codes, rows = data
        metas = _metas_for(codes)
        blob = enc.encode_rows_reference(metas, rows)
        assert RowCodec.for_metas(metas).decode(blob) == rows

    @given(data=schema_and_rows())
    @settings(max_examples=100, deadline=None)
    def test_reference_decoder_reads_compiled_blobs(self, data):
        codes, rows = data
        metas = _metas_for(codes)
        blob = RowCodec.for_metas(metas).encode(rows)
        assert enc.decode_rows_reference(metas, blob) == rows

    @given(data=schema_and_rows())
    @settings(max_examples=100, deadline=None)
    def test_module_level_api_delegates(self, data):
        codes, rows = data
        metas = _metas_for(codes)
        blob = enc.encode_rows(metas, rows)
        assert blob == enc.encode_rows_reference(metas, rows)
        assert enc.decode_rows(metas, blob) == rows


class TestChunkInvariance:
    @given(data=schema_and_rows(max_rows=40),
           splits=st.lists(st.integers(min_value=1, max_value=7),
                           max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_chunked_encode_concatenates(self, data, splits):
        """Encoding arbitrary row chunks and concatenating the blobs is
        byte-identical to encoding the whole batch, and decodes to the
        same rows — the streaming pipeline's per-chunk encode must not
        depend on where chunk boundaries fall."""
        codes, rows = data
        codec = RowCodec.for_metas(_metas_for(codes))
        whole = codec.encode(rows)
        chunks = []
        remaining = list(rows)
        split_iter = iter(splits)
        while remaining:
            size = next(split_iter, 3)
            chunks.append(codec.encode(remaining[:size]))
            remaining = remaining[size:]
        assert b"".join(chunks) == whole
        decoded = []
        for chunk in chunks:
            decoded.extend(codec.decode(chunk))
        assert decoded == rows

    @given(data=schema_and_rows(max_rows=20))
    @settings(max_examples=100, deadline=None)
    def test_decode_accepts_memoryview(self, data):
        codes, rows = data
        codec = RowCodec.for_metas(_metas_for(codes))
        blob = codec.encode(rows)
        assert codec.decode(memoryview(blob)) == rows


# -- the NULL-free fast path giving up part-way through a record ------------------------

# Values of the wrong type for their column. The reference encoder converts
# some (int(2.5), str(7), a datetime's date) and rejects the others; placed
# after a VARCHAR, each makes the fast path fail with part of the record
# already written, or pack what the reference converts.
_MISFITS = st.one_of(
    st.tuples(st.sampled_from([enc.CODE_BIGINT, enc.CODE_INTEGER]),
              st.floats()),
    st.tuples(st.just(enc.CODE_INTEGER), st.booleans()),
    st.tuples(st.just(enc.CODE_VARCHAR), st.integers()),
    st.tuples(st.just(enc.CODE_DATE), _datetimes),
    st.tuples(st.just(enc.CODE_DATE), _text),
    st.tuples(st.just(enc.CODE_VARCHAR), st.just("x" * 65536)),
)
_well_typed_codes = st.lists(st.sampled_from(sorted(_VALUES_BY_CODE)),
                             max_size=4)


@st.composite
def misfit_batches(draw):
    """Three NULL-free rows; the middle one holds a misfit after a VARCHAR."""
    code, misfit = draw(_MISFITS)
    before = draw(_well_typed_codes)
    codes = before + [enc.CODE_VARCHAR, code] + draw(_well_typed_codes)

    def row():
        return tuple(draw(_VALUES_BY_CODE[c]) for c in codes)

    bad = list(row())
    bad[len(before) + 1] = misfit
    return codes, [row(), tuple(bad), row()]


def _outcome(encode, metas, rows):
    try:
        return encode(metas, rows)
    except Exception as exc:  # the class is the behaviour under test
        return type(exc)


class TestFallbackInsideRecord:
    @given(data=misfit_batches())
    @settings(max_examples=200, deadline=None)
    def test_reference_bytes_or_reference_error(self, data):
        codes, rows = data
        metas = _metas_for(codes)
        compiled = _outcome(lambda m, r: RowCodec.for_metas(m).encode(r),
                            metas, rows)
        assert compiled == _outcome(enc.encode_rows_reference, metas, rows)


# -- decoder edges --------------------------------------------------------------------

# TPC-H LINEITEM as the wire sees it: 4 BIGINT, 4 DECIMAL, 2 CHAR, 3 DATE,
# 2 CHAR and a VARCHAR.
_LINEITEM = ((enc.CODE_BIGINT,) * 4 + (enc.CODE_DECIMAL,) * 4
             + (enc.CODE_CHAR,) * 2 + (enc.CODE_DATE,) * 3
             + (enc.CODE_CHAR,) * 2 + (enc.CODE_VARCHAR,))
_LINEITEM_ROW = (1, 155190, 7706, 1, 17.0, 21168.23, 0.04, 0.02, "N", "O",
                 datetime.date(1996, 3, 13), datetime.date(1996, 2, 12),
                 datetime.date(1996, 3, 22), "DELIVER IN PERSON", "TRUCK",
                 "egular courts above the")


def _rows_of(codes, nullable: bool):
    return st.tuples(*[
        st.one_of(st.none(), _VALUES_BY_CODE[code]) if nullable
        else _VALUES_BY_CODE[code] for code in codes])


@st.composite
def mixed_chunks(draw):
    """A schema and rows where NULL-free and NULL-bearing records alternate."""
    codes = draw(_schemas)
    free = draw(st.lists(_rows_of(codes, False), min_size=1, max_size=8))
    nulls = draw(st.lists(_rows_of(codes, True), min_size=1, max_size=8))
    nulls = [row if None in row else (None,) + row[1:] for row in nulls]
    rows = [row for pair in zip(free, nulls) for row in pair]
    return codes, rows + free[len(nulls):] + nulls[len(free):]


class TestDecoderEdges:
    def test_lineitem_record(self):
        metas = _metas_for(list(_LINEITEM))
        with_nulls = _LINEITEM_ROW[:9] + (None,) + _LINEITEM_ROW[10:15] \
            + (None,)
        rows = [_LINEITEM_ROW, with_nulls, _LINEITEM_ROW]
        codec = RowCodec.for_metas(metas)
        blob = codec.encode(rows)
        assert blob == enc.encode_rows_reference(metas, rows)
        assert codec.decode(blob) == rows
        assert enc.decode_rows_reference(metas, blob) == rows

    @given(rows=st.lists(st.one_of(_rows_of(_LINEITEM, False),
                                   _rows_of(_LINEITEM, True)), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_lineitem_schema_matches_reference(self, rows):
        metas = _metas_for(list(_LINEITEM))
        blob = RowCodec.for_metas(metas).encode(rows)
        assert blob == enc.encode_rows_reference(metas, rows)
        assert RowCodec.for_metas(metas).decode(blob) == rows

    @given(data=mixed_chunks())
    @settings(max_examples=150, deadline=None)
    def test_null_free_and_null_bearing_records_in_one_chunk(self, data):
        codes, rows = data
        metas = _metas_for(codes)
        blob = enc.encode_rows_reference(metas, rows)
        assert RowCodec.for_metas(metas).encode(rows) == blob
        assert RowCodec.for_metas(metas).decode(blob) == rows

    @given(data=schema_and_rows(max_rows=10),
           head=st.binary(max_size=9), tail=st.binary(max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_slice_of_a_larger_buffer(self, data, head, tail):
        codes, rows = data
        codec = RowCodec.for_metas(_metas_for(codes))
        buf = bytearray(head + codec.encode(rows) + tail)
        a, b = len(head), len(buf) - len(tail)
        assert codec.decode(memoryview(buf)[a:b]) \
            == codec.decode(bytes(buf[a:b])) == rows

    @given(data=schema_and_rows(max_rows=6), cut=st.integers(min_value=1))
    @settings(max_examples=150, deadline=None)
    def test_truncated_record_raises(self, data, cut):
        """Cut anywhere inside a record, both decoders raise
        ``ConversionError`` and return no rows; cut at a record boundary,
        both return the whole records before it."""
        codes, rows = data
        metas = _metas_for(codes)
        codec = RowCodec.for_metas(metas)
        boundaries = {len(codec.encode(rows[:n])) for n in range(len(rows) + 1)}
        blob = codec.encode(rows)
        cut %= len(blob) + 1
        for decode in (codec.decode,
                       lambda chunk: enc.decode_rows_reference(metas, chunk)):
            if cut in boundaries:
                assert decode(blob[:cut]) == rows[:sorted(
                    boundaries).index(cut)]
            else:
                with pytest.raises(ConversionError):
                    decode(blob[:cut])


# -- DATE memo bound --------------------------------------------------------------------

class TestDateMemo:
    def test_memos_stay_within_their_cap(self, monkeypatch):
        monkeypatch.setattr(enc, "_DATE_MEMO_MAX", 8)
        codes = (enc.CODE_DATE, enc.CODE_VARCHAR, enc.CODE_DATE)
        metas = _metas_for(list(codes))
        first = datetime.date(1992, 1, 1)
        rows = [(first + datetime.timedelta(days=n), str(n),
                 first - datetime.timedelta(days=n)) for n in range(50)]
        codec = RowCodec(codes)  # not the cached one: its memos start empty
        blob = codec.encode(rows)
        assert blob == enc.encode_rows_reference(metas, rows)
        assert codec.decode(blob) == rows
        assert 0 < len(codec.date_to_wire) <= 8
        assert 0 < len(codec.wire_to_date) <= 8
