"""Property battery for the fused result path (``encode_stream``).

The live path hands backend row batches straight to the compiled codec; the
TDF adapters (``convert_stream`` / ``convert``) decode packets first. Both
must be indistinguishable from the wire-format spec:

* **equivalence** — over random schemas, random batch splits and random
  UNKNOWN declared types, the chunks ``encode_stream`` yields equal the
  chunks ``convert_stream`` yields over the same rows as TDF packets, and
  both equal ``encode_rows_reference`` per batch;
* **same normalisation** — ``tdf.conform_batch`` returns exactly what a
  TDF round trip returns, for values TDF rewrites (int subclasses, tuples,
  bytearrays, aware clocks) as well as values it keeps;
* **same rejections** — a value TDF cannot carry, or a short row, raises
  ``ConversionError`` on the fused path and on the TDF path;
* **empty results** — no rows yields the same metas and zero rows.
"""

import datetime
import decimal
import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tdf
from repro.errors import ConversionError
from repro.protocol import encoding as enc
from repro.protocol.encoding import effective_meta
from repro.results.converter import ResultConverter
from repro.xtra import types as t

from tests.property.test_prop_encoding import schema_and_rows

_DECLARED = {
    enc.CODE_SMALLINT: t.SMALLINT, enc.CODE_INTEGER: t.INTEGER,
    enc.CODE_BIGINT: t.BIGINT, enc.CODE_FLOAT: t.FLOAT,
    enc.CODE_DECIMAL: t.decimal(12, 2), enc.CODE_CHAR: t.char(10),
    enc.CODE_VARCHAR: t.varchar(120), enc.CODE_DATE: t.DATE,
    enc.CODE_TIMESTAMP: t.TIMESTAMP, enc.CODE_BOOLEAN: t.BOOLEAN,
    enc.CODE_TIME: t.TIME,
}


def _split(rows: list, sizes: list[int]) -> list[list]:
    """Cut *rows* into batches of the given sizes (3 once they run out);
    no rows is one empty batch, as the ODBC Server frames it."""
    batches, sizes = [], iter(sizes)
    while rows:
        size = next(sizes, 3)
        batches.append(rows[:size])
        rows = rows[size:]
    return batches or [[]]


def _chunks(result) -> list[bytes]:
    try:
        return list(result.iter_chunks())
    finally:
        result.close()


@st.composite
def result_sets(draw):
    """(columns, declared types, row batches) — each declared type is the
    column's own or UNKNOWN, so metas are sometimes inferred from data."""
    codes, rows = draw(schema_and_rows(max_rows=40))
    declared = [draw(st.sampled_from([_DECLARED[code], t.UNKNOWN]))
                for code in codes]
    sizes = draw(st.lists(st.integers(min_value=1, max_value=9),
                          max_size=8))
    columns = [f"C{i}" for i in range(len(codes))]
    return columns, declared, _split(rows, sizes)


class TestEquivalence:
    @given(data=result_sets())
    @settings(max_examples=200, deadline=None)
    def test_fused_adapter_and_reference_agree(self, data):
        columns, declared, batches = data
        metas = effective_meta(columns, declared, batches[0])
        reference = [enc.encode_rows_reference(metas, rows)
                     for rows in batches]
        converter = ResultConverter()
        fused = converter.encode_stream(columns, iter(batches), declared)
        packets = [tdf.encode_batch(columns, rows) for rows in batches]
        adapted = converter.convert_stream(iter(packets), declared)
        assert fused.metas == adapted.metas == metas
        assert _chunks(fused) == _chunks(adapted) == reference
        buffered = converter.convert(packets, declared)
        assert list(buffered.iter_chunks()) == reference
        assert buffered.rowcount == sum(len(rows) for rows in batches)
        buffered.close()


class _Code(enum.IntEnum):
    SEVEN = 7


class _Text(str):
    pass


_EAST = datetime.timezone(datetime.timedelta(hours=5))

# Values TDF carries, including the ones its round trip rewrites.
_carried = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1),
    st.floats(width=64),
    st.text(max_size=20),
    st.dates(),
    st.datetimes(), st.datetimes(timezones=st.just(_EAST)),
    st.times(), st.times(timezones=st.just(_EAST)),
    st.binary(max_size=8), st.binary(max_size=8).map(bytearray),
    st.just(_Code.SEVEN), st.text(max_size=5).map(_Text),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=3),
    st.tuples(st.text(max_size=3), st.none()),
)


def _seen(value):
    """What the codec can observe of a value: its type and its text (NaN
    by its text, a clock by ``isoformat``, which ignores ``fold``)."""
    if isinstance(value, (datetime.date, datetime.time)):
        return type(value), value.isoformat()
    if isinstance(value, (list, tuple)):
        return type(value), [_seen(item) for item in value]
    return type(value), repr(value)


def _same(left: list, right: list) -> bool:
    return [[_seen(value) for value in row] for row in left] \
        == [[_seen(value) for value in row] for row in right]


class TestNormalisation:
    @given(rows=st.integers(min_value=1, max_value=4).flatmap(
        lambda width: st.lists(st.tuples(*[_carried] * width), max_size=6)))
    @settings(max_examples=200, deadline=None)
    def test_conform_is_the_tdf_round_trip(self, rows):
        width = len(rows[0]) if rows else 2
        columns = [f"C{i}" for i in range(width)]
        expected = tdf.decode_batch(tdf.encode_batch(columns, rows))[1]
        assert _same(tdf.conform_batch(width, rows), expected)

    @given(rows=st.lists(st.tuples(_carried, _carried), min_size=1,
                         max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_rewritten_values_encode_like_their_round_trip(self, rows):
        """Into VARCHAR columns (``str()`` of whatever arrives) the fused
        path writes the same bytes as the TDF path, rewrites included."""
        columns = ["A", "B"]
        declared = [t.varchar(64), t.varchar(64)]
        converter = ResultConverter()
        fused = _chunks(converter.encode_stream(columns, iter([rows]),
                                                declared))
        adapted = _chunks(converter.convert_stream(
            iter([tdf.encode_batch(columns, rows)]), declared))
        assert fused == adapted


_rejected = st.one_of(
    st.builds(object), st.just(decimal.Decimal("1.5")),
    st.just(2 ** 64), st.just(-(2 ** 63) - 1), st.just({1: 2}),
    st.just(frozenset()), st.just(datetime.timedelta(days=1)),
)


class TestRejection:
    @given(data=schema_and_rows(max_rows=10), bad=_rejected,
           where=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_rejected_value_fails_both_paths(self, data, bad, where):
        codes, rows = data
        rows = list(rows) or [tuple(None for __ in codes)]
        row_at, column_at = where % len(rows), where % len(codes)
        row = list(rows[row_at])
        row[column_at] = bad
        rows[row_at] = tuple(row)
        columns = [f"C{i}" for i in range(len(codes))]
        with pytest.raises(ConversionError):
            tdf.encode_batch(columns, rows)
        with pytest.raises(ConversionError):
            _chunks(ResultConverter().encode_stream(columns, iter([rows])))

    @given(data=schema_and_rows(max_rows=10),
           where=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_short_row_fails_both_paths(self, data, where):
        codes, rows = data
        rows = list(rows) or [tuple(None for __ in codes)]
        row_at = where % len(rows)
        rows[row_at] = rows[row_at][:-1]
        columns = [f"C{i}" for i in range(len(codes))]
        with pytest.raises(ConversionError):
            tdf.encode_batch(columns, rows)
        with pytest.raises(ConversionError):
            _chunks(ResultConverter().encode_stream(columns, iter([rows])))


class TestEmptyResult:
    @given(data=result_sets())
    @settings(max_examples=50, deadline=None)
    def test_no_rows_same_metas_zero_rows(self, data):
        columns, declared, __ = data
        converter = ResultConverter()
        fused = converter.encode_stream(columns, iter([[]]), declared)
        adapted = converter.convert_stream(tdf.batches_of(columns, []),
                                           declared)
        assert fused.metas == adapted.metas \
            == effective_meta(columns, declared, [])
        assert _chunks(fused) == _chunks(adapted) == [b""]
        assert fused.rowcount == adapted.rowcount == 0
