"""Tabular Data Format (TDF): Hyper-Q's internal binary result encoding.

Section 4.5: result batches fetched through the ODBC Server are packaged in
TDF, "an extensible binary format that is able to handle arbitrarily large
nested data". Every value carries a type tag, so batches are self-describing
and survive schema-less paths (CTAS results, untyped projections); LIST and
BYTES tags provide the nesting/extensibility hook.

TDF is the ODBC Server's framing for out-of-process drivers and the
byte-level spec of what a result row may hold. The in-process driver does
not round-trip through it: its row batches go straight to the Result
Converter, which applies :func:`conform_batch` — the same checks and value
normalisation as ``decode_batch(encode_batch(...))``, without the packet.

Layout of one batch::

    magic 'TDF1' | u32 column_count | column names (u16 len + utf8) ...
    | u32 row_count | rows

Each value: 1 tag byte followed by a tag-specific payload. TIMESTAMP is an
i64 count of microseconds since the naive 1970 epoch (wall clock: exact,
independent of the process time zone, and covering years 1-9999); TIME is
an i64 count of microseconds since midnight. Both drop ``tzinfo``.
"""

from __future__ import annotations

import datetime
import struct
from typing import Iterable, Iterator

from repro.errors import ConversionError

MAGIC = b"TDF1"

TAG_NULL = 0
TAG_INT = 1
TAG_FLOAT = 2
TAG_STRING = 3
TAG_DATE = 4
TAG_TIMESTAMP = 5
TAG_BOOL = 6
TAG_TIME = 7
TAG_BYTES = 8
TAG_LIST = 9

_EPOCH = datetime.date(1970, 1, 1)
_EPOCH_TS = datetime.datetime(1970, 1, 1)
_MICROSECOND = datetime.timedelta(microseconds=1)
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

# Out-of-process drivers push every row through these loops, so the
# per-value ``struct`` formats are compiled once at import and bound as
# locals, and the common scalar tags take an exact-type fast path ahead of
# the isinstance ladder.
_S_I64 = struct.Struct("<q")
_S_F64 = struct.Struct("<d")
_S_I32 = struct.Struct("<i")
_S_U32 = struct.Struct("<I")
_S_U16 = struct.Struct("<H")


def _too_wide(value: int) -> ConversionError:
    return ConversionError(f"TDF cannot encode integer {value} "
                           "(outside 64 bits)")


def _encode_value(value: object, out: bytearray,
                  _pq=_S_I64.pack, _pd=_S_F64.pack, _pi=_S_I32.pack,
                  _pu=_S_U32.pack) -> None:
    kind = type(value)
    if kind is int:
        out.append(TAG_INT)
        try:
            out += _pq(value)
        except struct.error:
            raise _too_wide(value) from None
    elif kind is str:
        payload = value.encode("utf-8")
        out.append(TAG_STRING)
        out += _pu(len(payload))
        out += payload
    elif kind is float:
        out.append(TAG_FLOAT)
        out += _pd(value)
    elif value is None:
        out.append(TAG_NULL)
    elif kind is bool:
        out.append(TAG_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, int):
        out.append(TAG_INT)
        try:
            out += _pq(value)
        except struct.error:
            raise _too_wide(value) from None
    elif isinstance(value, float):
        out.append(TAG_FLOAT)
        out += _pd(value)
    elif isinstance(value, str):
        payload = value.encode("utf-8")
        out.append(TAG_STRING)
        out += _pu(len(payload))
        out += payload
    elif isinstance(value, datetime.datetime):
        out.append(TAG_TIMESTAMP)
        out += _pq((value.replace(tzinfo=None) - _EPOCH_TS) // _MICROSECOND)
    elif isinstance(value, datetime.date):
        out.append(TAG_DATE)
        out += _pi((value - _EPOCH).days)
    elif isinstance(value, datetime.time):
        out.append(TAG_TIME)
        micros = ((value.hour * 60 + value.minute) * 60 + value.second) * 1_000_000 \
            + value.microsecond
        out += _pq(micros)
    elif isinstance(value, (bytes, bytearray)):
        out.append(TAG_BYTES)
        out += _pu(len(value))
        out += bytes(value)
    elif isinstance(value, (list, tuple)):
        out.append(TAG_LIST)
        out += _pu(len(value))
        for item in value:
            _encode_value(item, out)
    else:
        raise ConversionError(f"TDF cannot encode {type(value).__name__}")


def _decode_value(buffer: memoryview, offset: int,
                  _uq=_S_I64.unpack_from, _ud=_S_F64.unpack_from,
                  _ui=_S_I32.unpack_from,
                  _uu=_S_U32.unpack_from) -> tuple[object, int]:
    tag = buffer[offset]
    offset += 1
    if tag == TAG_INT:
        return _uq(buffer, offset)[0], offset + 8
    if tag == TAG_STRING:
        length = _uu(buffer, offset)[0]
        offset += 4
        text = str(buffer[offset:offset + length], "utf-8")
        return text, offset + length
    if tag == TAG_FLOAT:
        return _ud(buffer, offset)[0], offset + 8
    if tag == TAG_NULL:
        return None, offset
    if tag == TAG_BOOL:
        return bool(buffer[offset]), offset + 1
    if tag == TAG_DATE:
        days = _ui(buffer, offset)[0]
        return _EPOCH + datetime.timedelta(days=days), offset + 4
    if tag == TAG_TIMESTAMP:
        micros = _uq(buffer, offset)[0]
        return _EPOCH_TS + micros * _MICROSECOND, offset + 8
    if tag == TAG_TIME:
        micros = _uq(buffer, offset)[0]
        seconds, micro = divmod(micros, 1_000_000)
        minutes, second = divmod(seconds, 60)
        hour, minute = divmod(minutes, 60)
        return datetime.time(hour, minute, second, micro), offset + 8
    if tag == TAG_BYTES:
        length = _uu(buffer, offset)[0]
        offset += 4
        return bytes(buffer[offset:offset + length]), offset + length
    if tag == TAG_LIST:
        count = _uu(buffer, offset)[0]
        offset += 4
        items = []
        for __ in range(count):
            item, offset = _decode_value(buffer, offset)
            items.append(item)
        return items, offset
    raise ConversionError(f"TDF: unknown tag {tag}")


def encode_batch(columns: list[str], rows: Iterable[tuple]) -> bytes:
    """Encode one batch of rows into a TDF packet."""
    out = bytearray(MAGIC)
    out += _S_U32.pack(len(columns))
    for name in columns:
        payload = name.encode("utf-8")
        out += _S_U16.pack(len(payload))
        out += payload
    rows = list(rows)
    out += _S_U32.pack(len(rows))
    encode_value = _encode_value
    width = len(columns)
    for row in rows:
        if len(row) != width:
            raise ConversionError(
                f"TDF row has {len(row)} values for {width} columns")
        for value in row:
            encode_value(value, out)
    return bytes(out)


def decode_batch(packet: bytes) -> tuple[list[str], list[tuple]]:
    """Decode one TDF packet back into (column names, rows)."""
    if packet[:4] != MAGIC:
        raise ConversionError("not a TDF packet")
    buffer = memoryview(packet)
    offset = 4
    column_count = _S_U32.unpack_from(buffer, offset)[0]
    offset += 4
    columns = []
    for __ in range(column_count):
        length = _S_U16.unpack_from(buffer, offset)[0]
        offset += 2
        columns.append(str(buffer[offset:offset + length], "utf-8"))
        offset += length
    row_count = _S_U32.unpack_from(buffer, offset)[0]
    offset += 4
    rows = []
    decode_value = _decode_value
    for __ in range(row_count):
        values = []
        append = values.append
        for __ in range(column_count):
            value, offset = decode_value(buffer, offset)
            append(value)
        rows.append(tuple(values))
    return columns, rows


#: Value types a TDF round trip hands back unchanged, provided an int fits
#: in 64 bits and a datetime or time is naive (checked per column).
_KEPT = frozenset({type(None), bool, int, float, str, datetime.date,
                   datetime.datetime, datetime.time})


def _kept(column: tuple, kinds: set) -> bool:
    """Does a TDF round trip return every value of *column* unchanged?"""
    if not kinds <= _KEPT:
        return False
    if int in kinds:
        ints = column if len(kinds) == 1 \
            else [value for value in column if type(value) is int]
        if min(ints) < _I64_MIN or max(ints) > _I64_MAX:
            return False
    if datetime.datetime in kinds or datetime.time in kinds:
        return not any(getattr(value, "tzinfo", None) is not None
                       for value in column)
    return True


def _read_back(value: object) -> object:
    out = bytearray()
    _encode_value(value, out)
    return _decode_value(memoryview(out), 0)[0]


def conform_batch(width: int, rows: list) -> list:
    """The rows ``decode_batch(encode_batch(columns, rows))`` would return,
    for *width* columns, without building the packet.

    This is how the in-process data path keeps TDF's contract while
    skipping its bytes: the same row-width check, the same
    ``ConversionError`` for any value the type ladder rejects, and the same
    normalised values (int subclasses to int, tuples to lists, aware clocks
    to naive ...). A batch whose values the round trip would keep as they
    are — every batch the stand-in warehouse produces — comes back as the
    same list after one type scan per column.
    """
    if not set(map(len, rows)) <= {width}:
        short = next(row for row in rows if len(row) != width)
        raise ConversionError(
            f"TDF row has {len(short)} values for {width} columns")
    for column in zip(*rows):
        if not _kept(column, set(map(type, column))):
            return [tuple(map(_read_back, row)) for row in rows]
    return rows


def batches_of(columns: list[str], rows: list[tuple],
               batch_rows: int = 1024) -> Iterator[bytes]:
    """Split a result into encoded TDF batches of at most *batch_rows*."""
    if not rows:
        yield encode_batch(columns, [])
        return
    for start in range(0, len(rows), batch_rows):
        yield encode_batch(columns, rows[start:start + batch_rows])
