"""Source-database binary result encoding (Teradata-style records).

The Result Converter must hand the application "query results that are
bit-identical to the original database" (Section 4). This module defines that
target format for the reproduction: length-prefixed records with a NULL
indicator bitmap followed by per-column payloads in declared-type layout —
including Teradata's internal integer DATE encoding
``(year-1900)*10000 + month*100 + day``.

This is the hottest byte-bashing loop in the proxy (every result row of every
request funnels through :func:`encode_rows`), so :class:`RowCodec` generates
an encoder and a decoder per column layout, batched over one growing buffer
per chunk. A NULL-free record is packed by runs: each run of consecutive
fixed-width columns (numbers, BOOLEAN, and DATE as its integer) is one
precompiled :class:`struct.Struct` call, with the strings written between the
runs. The decoder takes that path when a record's bitmap is zero, and decodes
strings from a ``bytes`` copy of the chunk. Each codec memoises its DATE
conversions, within a bound. Records with NULLs, and rows the fast
path cannot pack, take a per-column body that mirrors
:func:`encode_rows_reference`, the format's specification.
"""

from __future__ import annotations

import datetime
import struct
from dataclasses import dataclass

from repro.errors import ConversionError
from repro.xtra import types as t
from repro.xtra.types import SQLType, TypeKind, date_to_teradata_int, teradata_int_to_date

# Column type codes on the wire.
CODE_SMALLINT = 1
CODE_INTEGER = 2
CODE_BIGINT = 3
CODE_FLOAT = 4
CODE_DECIMAL = 5
CODE_CHAR = 6
CODE_VARCHAR = 7
CODE_DATE = 8
CODE_TIMESTAMP = 9
CODE_BOOLEAN = 10
CODE_TIME = 11

_KIND_TO_CODE = {
    TypeKind.SMALLINT: CODE_SMALLINT,
    TypeKind.INTEGER: CODE_INTEGER,
    TypeKind.BIGINT: CODE_BIGINT,
    TypeKind.FLOAT: CODE_FLOAT,
    TypeKind.DECIMAL: CODE_DECIMAL,
    TypeKind.CHAR: CODE_CHAR,
    TypeKind.VARCHAR: CODE_VARCHAR,
    TypeKind.DATE: CODE_DATE,
    TypeKind.TIMESTAMP: CODE_TIMESTAMP,
    TypeKind.BOOLEAN: CODE_BOOLEAN,
    TypeKind.TIME: CODE_TIME,
}

# Precompiled wire layouts: parsing a format string per value is pure
# overhead on the row path.
_S_I16 = struct.Struct("<h")
_S_I32 = struct.Struct("<i")
_S_I64 = struct.Struct("<q")
_S_F64 = struct.Struct("<d")
_S_U16 = struct.Struct("<H")
_S_U32 = struct.Struct("<I")
_S_META = struct.Struct("<BHH")


@dataclass(frozen=True)
class ColumnMeta:
    """Wire-level column descriptor."""

    name: str
    code: int
    length: int = 0
    scale: int = 0


def column_code(declared: SQLType) -> int | None:
    return _KIND_TO_CODE.get(declared.kind)


def _infer_code(value: object) -> int:
    if isinstance(value, bool):
        return CODE_BOOLEAN
    if isinstance(value, int):
        return CODE_BIGINT
    if isinstance(value, float):
        return CODE_FLOAT
    if isinstance(value, str):
        return CODE_VARCHAR
    if isinstance(value, datetime.datetime):
        return CODE_TIMESTAMP
    if isinstance(value, datetime.date):
        return CODE_DATE
    if isinstance(value, datetime.time):
        return CODE_TIME
    raise ConversionError(f"cannot infer wire type for {type(value).__name__}")


def effective_meta(names: list[str], declared: list[SQLType],
                   rows: list[tuple]) -> list[ColumnMeta]:
    """Concretize column metadata, inferring UNKNOWN types from the data.

    A column whose declared type is UNKNOWN takes the wire type of its first
    non-NULL value; an all-NULL column degrades to VARCHAR.
    """
    metas: list[ColumnMeta] = []
    for index, name in enumerate(names):
        declared_type = declared[index] if index < len(declared) else t.UNKNOWN
        code = column_code(declared_type)
        if code is None:
            code = CODE_VARCHAR
            for row in rows:
                if row[index] is not None:
                    code = _infer_code(row[index])
                    break
        metas.append(ColumnMeta(
            name=name,
            code=code,
            length=declared_type.length or 0,
            scale=declared_type.scale or 0,
        ))
    return metas


# -- metadata framing -----------------------------------------------------------

def encode_meta(metas: list[ColumnMeta]) -> bytes:
    out = bytearray(_S_U16.pack(len(metas)))
    for meta in metas:
        payload = meta.name.encode("utf-8")
        out += _S_U16.pack(len(payload))
        out += payload
        out += _S_META.pack(meta.code, meta.length, meta.scale)
    return bytes(out)


def decode_meta(blob: bytes) -> list[ColumnMeta]:
    offset = 0
    count = _S_U16.unpack_from(blob, offset)[0]
    offset += 2
    metas = []
    for __ in range(count):
        length = _S_U16.unpack_from(blob, offset)[0]
        offset += 2
        name = blob[offset:offset + length].decode("utf-8")
        offset += length
        code, col_len, scale = _S_META.unpack_from(blob, offset)
        offset += 5
        metas.append(ColumnMeta(name, code, col_len, scale))
    return metas


# -- per-type value codecs ----------------------------------------------------------

def _enc_smallint(value: object, out: bytearray) -> None:
    out += _S_I16.pack(int(value))


def _enc_integer(value: object, out: bytearray) -> None:
    out += _S_I32.pack(int(value))


def _enc_bigint(value: object, out: bytearray) -> None:
    out += _S_I64.pack(int(value))


def _enc_float(value: object, out: bytearray) -> None:
    out += _S_F64.pack(float(value))


def _enc_string(value: object, out: bytearray) -> None:
    if not isinstance(value, str):
        value = str(value)
    payload = value.encode("utf-8")
    out += _S_U16.pack(len(payload))
    out += payload


def _enc_date(value: object, out: bytearray) -> None:
    if isinstance(value, datetime.datetime):
        value = value.date()
    if not isinstance(value, datetime.date):
        raise ConversionError(f"DATE column got {type(value).__name__}")
    out += _S_I32.pack(date_to_teradata_int(value))


def _enc_timestamp(value: object, out: bytearray) -> None:
    if isinstance(value, datetime.date) \
            and not isinstance(value, datetime.datetime):
        value = datetime.datetime(value.year, value.month, value.day)
    payload = value.isoformat(sep=" ").encode("ascii")
    out += _S_U16.pack(len(payload))
    out += payload


def _enc_boolean(value: object, out: bytearray) -> None:
    out.append(1 if value else 0)


def _enc_time(value: object, out: bytearray) -> None:
    payload = value.isoformat().encode("ascii")
    out += _S_U16.pack(len(payload))
    out += payload


_ENCODERS = {
    CODE_SMALLINT: _enc_smallint,
    CODE_INTEGER: _enc_integer,
    CODE_BIGINT: _enc_bigint,
    CODE_FLOAT: _enc_float,
    CODE_DECIMAL: _enc_float,
    CODE_CHAR: _enc_string,
    CODE_VARCHAR: _enc_string,
    CODE_DATE: _enc_date,
    CODE_TIMESTAMP: _enc_timestamp,
    CODE_BOOLEAN: _enc_boolean,
    CODE_TIME: _enc_time,
}


def _encode_value(code: int, value: object, out: bytearray) -> None:
    encoder = _ENCODERS.get(code)
    if encoder is None:
        raise ConversionError(f"unknown wire type code {code}")
    encoder(value, out)


def _dec_smallint(view, offset: int) -> tuple[object, int]:
    return _S_I16.unpack_from(view, offset)[0], offset + 2


def _dec_integer(view, offset: int) -> tuple[object, int]:
    return _S_I32.unpack_from(view, offset)[0], offset + 4


def _dec_bigint(view, offset: int) -> tuple[object, int]:
    return _S_I64.unpack_from(view, offset)[0], offset + 8


def _dec_float(view, offset: int) -> tuple[object, int]:
    return _S_F64.unpack_from(view, offset)[0], offset + 8


def _dec_string(view, offset: int) -> tuple[object, int]:
    length = _S_U16.unpack_from(view, offset)[0]
    offset += 2
    return str(view[offset:offset + length], "utf-8"), offset + length


def _dec_timestamp(view, offset: int) -> tuple[object, int]:
    text, offset = _dec_string(view, offset)
    return datetime.datetime.fromisoformat(text), offset


def _dec_time(view, offset: int) -> tuple[object, int]:
    text, offset = _dec_string(view, offset)
    return datetime.time.fromisoformat(text), offset


def _dec_date(view, offset: int) -> tuple[object, int]:
    return teradata_int_to_date(_S_I32.unpack_from(view, offset)[0]), offset + 4


def _dec_boolean(view, offset: int) -> tuple[object, int]:
    return bool(view[offset]), offset + 1


_DECODERS = {
    CODE_SMALLINT: _dec_smallint,
    CODE_INTEGER: _dec_integer,
    CODE_BIGINT: _dec_bigint,
    CODE_FLOAT: _dec_float,
    CODE_DECIMAL: _dec_float,
    CODE_CHAR: _dec_string,
    CODE_VARCHAR: _dec_string,
    CODE_DATE: _dec_date,
    CODE_TIMESTAMP: _dec_timestamp,
    CODE_BOOLEAN: _dec_boolean,
    CODE_TIME: _dec_time,
}


def _decode_value(code: int, blob, offset: int) -> tuple[object, int]:
    decoder = _DECODERS.get(code)
    if decoder is None:
        raise ConversionError(f"unknown wire type code {code}")
    return decoder(blob, offset)


# -- row records -------------------------------------------------------------------

def encode_rows_reference(metas: list[ColumnMeta], rows: list[tuple]) -> bytes:
    """Per-row reference encoder: the wire-format specification.

    This is the original interpretive loop — per-column encoder functions
    dispatched per value. The compiled :class:`RowCodec` below must produce
    byte-identical output (property-tested in
    ``tests/property/test_prop_encoding.py``); keep this in sync with the
    format, never with the codec internals.
    """
    encoders = []
    for meta in metas:
        encoder = _ENCODERS.get(meta.code)
        if encoder is None:
            raise ConversionError(f"unknown wire type code {meta.code}")
        encoders.append(encoder)
    bitmap_len = (len(metas) + 7) // 8
    prefix = bytes(4 + bitmap_len)  # length placeholder + zeroed bitmap
    pack_length = _S_U32.pack_into
    out = bytearray()
    for row in rows:
        header = len(out)
        out += prefix
        bitmap_at = header + 4
        for index, (encoder, value) in enumerate(zip(encoders, row)):
            if value is None:
                out[bitmap_at + (index >> 3)] |= 1 << (index & 7)
            else:
                encoder(value, out)
        pack_length(out, header, len(out) - bitmap_at)
    return bytes(out)


def decode_rows_reference(metas: list[ColumnMeta], blob: bytes) -> list[tuple]:
    """Per-row reference decoder matching :func:`encode_rows_reference`."""
    decoders = []
    for meta in metas:
        decoder = _DECODERS.get(meta.code)
        if decoder is None:
            raise ConversionError(f"unknown wire type code {meta.code}")
        decoders.append(decoder)
    rows = []
    view = memoryview(blob)
    offset = 0
    bitmap_len = (len(metas) + 7) // 8
    total = len(view)
    unpack_length = _S_U32.unpack_from
    while offset < total:
        if offset + 4 > total:
            raise ConversionError("corrupt record: truncated")
        record_len = unpack_length(view, offset)[0]
        offset += 4
        record_end = offset + record_len
        if record_end > total:
            raise ConversionError("corrupt record: truncated")
        bitmap_at = offset
        cursor = offset + bitmap_len
        values = []
        for index, decoder in enumerate(decoders):
            if view[bitmap_at + (index >> 3)] & (1 << (index & 7)):
                values.append(None)
            else:
                value, cursor = decoder(view, cursor)
                values.append(value)
        if cursor != record_end:
            raise ConversionError("corrupt record: trailing bytes")
        rows.append(tuple(values))
        offset = record_end
    return rows


# -- compiled batch codecs ----------------------------------------------------------
#
# encode_rows()/decode_rows() funnel every result row of every request, so the
# interpretive per-value dispatch above is replaced on the hot path by
# per-schema functions generated once per column layout.
#
# A NULL-free record takes a fast path. Its columns split into runs of
# consecutive fixed-width columns, and each run is packed (or unpacked) by one
# precompiled struct.Struct, together with the u16 length of the string that
# follows it. The first run's Struct also carries the record length and the
# bitmap: the encoder encodes the strings first, so the length is known
# before anything is written, and the decoder takes the fast path only when
# the bitmap it read is zero. Strings are decoded from a bytes copy of the
# chunk, which is cheaper per value than a memoryview.
#
# Records with NULLs take the general per-column body. So does any NULL-free
# row the fast path cannot pack (a float in an INTEGER column, an int in a
# VARCHAR, an out-of-range value): the partial record is cut off and the
# general body, which mirrors the reference encoder value for value, writes
# the reference's bytes or raises the reference's error.

def _date_wire(value: object) -> int:
    if isinstance(value, datetime.datetime):
        value = value.date()
    if not isinstance(value, datetime.date):
        raise ConversionError(f"DATE column got {type(value).__name__}")
    return date_to_teradata_int(value)


def _timestamp_wire(value: object) -> bytes:
    if isinstance(value, datetime.date) \
            and not isinstance(value, datetime.datetime):
        value = datetime.datetime(value.year, value.month, value.day)
    return value.isoformat(sep=" ").encode("ascii")


# A result holds few distinct dates (TPC-H's LINEITEM ~2.5k), so each codec
# memoises both DATE conversions: date -> Teradata integer on encode, integer
# -> date on decode. A memo is cleared when it reaches this many entries,
# which bounds its memory.
_DATE_MEMO_MAX = 4096


class _DateMemo(dict):
    """A conversion memo that fills itself on a miss and clears when full."""

    __slots__ = ("convert",)

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        # Codecs are shared by server threads. Unlocked, a race can only
        # store a value twice or leave the memo a few entries over the cap.
        value = self.convert(key)  # a bad value raises and is not stored
        if len(self) >= _DATE_MEMO_MAX:
            self.clear()
        self[key] = value
        return value


# Struct codes of the fixed-width columns a run may hold. Each packs what the
# reference encoder writes: DATE goes in as its Teradata integer, and "?"
# stores 1 for a true value and 0 otherwise, as `1 if value else 0` does.
_FIXED_CHAR = {
    CODE_SMALLINT: "h",
    CODE_INTEGER: "i",
    CODE_BIGINT: "q",
    CODE_FLOAT: "d",
    CODE_DECIMAL: "d",
    CODE_DATE: "i",
    CODE_BOOLEAN: "?",
}

# Fast-path payload of the variable-width columns, as a format of the value
# (encode) or of its decoded text (decode). str.encode raises on a non-str
# value, which sends the row to the general body and its str() conversion.
_VAR_ENCODE = {
    CODE_CHAR: "senc({})",
    CODE_VARCHAR: "senc({})",
    CODE_TIMESTAMP: "tswire({})",
    CODE_TIME: "{}.isoformat().encode('ascii')",
}
_VAR_DECODE = {
    CODE_CHAR: "{}",
    CODE_VARCHAR: "{}",
    CODE_TIMESTAMP: "ts_parse({})",
    CODE_TIME: "t_parse({})",
}

_CODEGEN_GLOBALS = {
    "p16": _S_I16.pack, "p32": _S_I32.pack, "p64": _S_I64.pack,
    "pf": _S_F64.pack, "pu16": _S_U16.pack,
    "u16": _S_I16.unpack_from, "u32i": _S_I32.unpack_from,
    "u64": _S_I64.unpack_from, "uf": _S_F64.unpack_from,
    "uu16": _S_U16.unpack_from, "ulen": _S_U32.unpack_from,
    "pklen": _S_U32.pack_into,
    "dwire": _date_wire, "tswire": _timestamp_wire, "senc": str.encode,
    "ts_parse": datetime.datetime.fromisoformat,
    "t_parse": datetime.time.fromisoformat,
    "CErr": ConversionError, "Exception": Exception,
    "isinstance": isinstance, "str": str, "len": len,
    "int": int, "float": float, "bool": bool,
    "__builtins__": {},
}


def _segments(codes: tuple[int, ...]) -> list[tuple[list[int], int | None]]:
    """Split a NULL-free record into ``(run, var)`` segments: the indices of
    a run of fixed-width columns, then the index of the variable-width column
    after it (``None`` for the run that ends the record)."""
    segments: list[tuple[list[int], int | None]] = []
    run: list[int] = []
    for index, code in enumerate(codes):
        if code in _FIXED_CHAR:
            run.append(index)
        else:
            segments.append((run, index))
            run = []
    segments.append((run, None))
    return segments


def _segment_format(codes: tuple[int, ...], run: list[int],
                    var: int | None) -> str:
    return "".join(_FIXED_CHAR[codes[i]] for i in run) \
        + ("H" if var is not None else "")


def _enc_value_lines(code: int) -> list[str]:
    if code == CODE_SMALLINT:
        return ["out += p16(int(v))"]
    if code == CODE_INTEGER:
        return ["out += p32(int(v))"]
    if code == CODE_BIGINT:
        return ["out += p64(int(v))"]
    if code in (CODE_FLOAT, CODE_DECIMAL):
        return ["out += pf(float(v))"]
    if code in (CODE_CHAR, CODE_VARCHAR):
        return ["b = (v if isinstance(v, str) else str(v)).encode('utf-8')",
                "out += pu16(len(b))",
                "out += b"]
    if code == CODE_DATE:
        return ["out += p32(dwire(v))"]
    if code == CODE_TIMESTAMP:
        return ["b = tswire(v)", "out += pu16(len(b))", "out += b"]
    if code == CODE_BOOLEAN:
        return ["out.append(1 if v else 0)"]
    if code == CODE_TIME:
        return ["b = v.isoformat().encode('ascii')",
                "out += pu16(len(b))",
                "out += b"]
    raise ConversionError(f"unknown wire type code {code}")


def _dec_value_lines(code: int, i: int) -> list[str]:
    if code == CODE_SMALLINT:
        return [f"v{i} = u16(buf, cur)[0]", "cur += 2"]
    if code == CODE_INTEGER:
        return [f"v{i} = u32i(buf, cur)[0]", "cur += 4"]
    if code == CODE_BIGINT:
        return [f"v{i} = u64(buf, cur)[0]", "cur += 8"]
    if code in (CODE_FLOAT, CODE_DECIMAL):
        return [f"v{i} = uf(buf, cur)[0]", "cur += 8"]
    if code in (CODE_CHAR, CODE_VARCHAR):
        return ["n = uu16(buf, cur)[0]", "cur += 2",
                f"v{i} = buf[cur:cur + n].decode()", "cur += n"]
    if code == CODE_DATE:
        return [f"v{i} = dd[u32i(buf, cur)[0]]", "cur += 4"]
    if code == CODE_TIMESTAMP:
        return ["n = uu16(buf, cur)[0]", "cur += 2",
                f"v{i} = ts_parse(buf[cur:cur + n].decode())", "cur += n"]
    if code == CODE_BOOLEAN:
        return [f"v{i} = bool(buf[cur])", "cur += 1"]
    if code == CODE_TIME:
        return ["n = uu16(buf, cur)[0]", "cur += 2",
                f"v{i} = t_parse(buf[cur:cur + n].decode())", "cur += n"]
    raise ConversionError(f"unknown wire type code {code}")


def _compile_encode(codes: tuple[int, ...], date_to_wire: _DateMemo):
    ncols = len(codes)
    bitmap_len = (ncols + 7) // 8
    namespace = dict(_CODEGEN_GLOBALS, dw=date_to_wire)
    lines = ["def _encode_batch(rows, out):", " for row in rows:"]
    if ncols:
        segments = _segments(codes)
        variable = [var for __, var in segments[:-1]]
        names = "".join(f"c{i}, " for i in range(ncols))
        fast = ["base = len(out)", "try:", f" {names}= row"]
        for i in variable:
            encode = _VAR_ENCODE[codes[i]].format(f"c{i}")
            fast += [f" b{i} = {encode}", f" n{i} = len(b{i})"]
        fixed = -4  # the record length counts what follows it
        for k, (run, var) in enumerate(segments):
            fmt = _segment_format(codes, run, var)
            args = [f"dw[c{i}]" if codes[i] == CODE_DATE else f"c{i}"
                    for i in run]
            if var is not None:
                args.append(f"n{var}")
            if k == 0:
                fmt = "I" + "x" * bitmap_len + fmt
                args.insert(0, " + ".join(
                    ["_FIX"] + [f"n{i}" for i in variable]))
            if fmt:
                packer = struct.Struct("<" + fmt)
                namespace[f"s{k}"] = packer.pack
                fixed += packer.size
                fast.append(f" out += s{k}({', '.join(args)})")
            if var is not None:
                fast.append(f" out += b{var}")
        namespace["_FIX"] = fixed
        fast += [" continue", "except Exception:", " del out[base:]"]
        lines += ["  if None not in row:"] + ["   " + line for line in fast]
    b = "  "
    lines += [b + "base = len(out)", b + "out += _PREFIX", b + "m = 0"]
    for i, code in enumerate(codes):
        lines += [b + f"v = row[{i}]",
                  b + "if v is None:",
                  b + f" m |= {1 << i}",
                  b + "else:"]
        lines += [b + " " + line for line in _enc_value_lines(code)]
    if ncols:
        lines += [b + "if m:",
                  b + f" out[base + 4:base + {4 + bitmap_len}]"
                      f" = m.to_bytes({bitmap_len}, 'little')"]
    lines += [b + "pklen(out, base, len(out) - base - 4)"]
    namespace["_PREFIX"] = bytes(4 + bitmap_len)
    exec("\n".join(lines), namespace)
    return namespace["_encode_batch"]


def _compile_decode(codes: tuple[int, ...], wire_to_date: _DateMemo):
    ncols = len(codes)
    bitmap_len = (ncols + 7) // 8
    namespace = dict(_CODEGEN_GLOBALS, dd=wire_to_date)
    lines = ["def _decode_batch(buf):",
             " rows = []",
             " append = rows.append",
             " off = 0",
             " total = len(buf)",
             " while off < total:"]
    if ncols:
        # The first Struct reads the record length, the bitmap and the first
        # run; the rest of the fast path runs only when the bitmap is zero.
        for k, (run, var) in enumerate(_segments(codes)):
            fmt = _segment_format(codes, run, var)
            names = "".join(f"v{i}, " for i in run) \
                + ("n, " if var is not None else "")
            if k == 0:
                head = struct.Struct("<I%ds" % bitmap_len + fmt)
                namespace["s0"] = head.unpack_from
                lines += [f"  if off + {head.size} <= total:",
                          f"   reclen, m, {names}= s0(buf, off)",
                          "   if m == _ZB:",
                          "    end = off + 4 + reclen",
                          "    if end > total:",
                          "     raise CErr('corrupt record: truncated')",
                          f"    cur = off + {head.size}"]
            elif fmt:
                unpacker = struct.Struct("<" + fmt)
                namespace[f"s{k}"] = unpacker.unpack_from
                lines += [f"    {names}= s{k}(buf, cur)",
                          f"    cur += {unpacker.size}"]
            if var is not None:
                value = _VAR_DECODE[codes[var]].format(
                    "buf[cur:cur + n].decode()")
                lines += [f"    v{var} = {value}", "    cur += n"]
        values = "".join(f"dd[v{i}], " if code == CODE_DATE else f"v{i}, "
                         for i, code in enumerate(codes))
        lines += ["    if cur != end:",
                  "     raise CErr('corrupt record: trailing bytes')",
                  f"    append(({values}))",
                  "    off = end",
                  "    continue"]
        namespace["_ZB"] = bytes(bitmap_len)
    lines += ["  reclen = ulen(buf, off)[0]",
              "  off += 4",
              "  end = off + reclen",
              "  if end > total:",
              "   raise CErr('corrupt record: truncated')"]
    if bitmap_len:
        lines += [f"  m = int.from_bytes(buf[off:off + {bitmap_len}],"
                  " 'little')"]
    else:
        lines += ["  m = 0"]
    lines += [f"  cur = off + {bitmap_len}"]
    for i, code in enumerate(codes):
        lines += [f"  if m & {1 << i}:", f"   v{i} = None", "  else:"]
        lines += ["   " + line for line in _dec_value_lines(code, i)]
    values = "".join(f"v{i}, " for i in range(ncols))
    lines += ["  if cur != end:",
              "   raise CErr('corrupt record: trailing bytes')",
              f"  append(({values}))",
              "  off = end",
              " return rows"]
    exec("\n".join(lines), namespace)
    return namespace["_decode_batch"]


class RowCodec:
    """Compiled encode/decode pair for one column layout.

    Keyed and cached by the tuple of wire type codes; converter streams
    grab one codec per result set and reuse it for every chunk.
    """

    __slots__ = ("codes", "date_to_wire", "wire_to_date", "encode_into",
                 "decode_bytes")

    def __init__(self, codes: tuple[int, ...]):
        for code in codes:
            if code not in _ENCODERS:
                raise ConversionError(f"unknown wire type code {code}")
        self.codes = codes
        self.date_to_wire = _DateMemo(_date_wire)
        self.wire_to_date = _DateMemo(teradata_int_to_date)
        self.encode_into = _compile_encode(codes, self.date_to_wire)
        self.decode_bytes = _compile_decode(codes, self.wire_to_date)

    @classmethod
    def for_codes(cls, codes: tuple[int, ...]) -> "RowCodec":
        codec = _CODEC_CACHE.get(codes)
        if codec is None:
            if len(_CODEC_CACHE) >= _CODEC_CACHE_MAX:
                _CODEC_CACHE.clear()
            codec = cls(codes)
            _CODEC_CACHE[codes] = codec
        return codec

    @classmethod
    def for_metas(cls, metas: list[ColumnMeta]) -> "RowCodec":
        return cls.for_codes(tuple(meta.code for meta in metas))

    def encode(self, rows: list[tuple]) -> bytes:
        out = bytearray()
        self.encode_into(rows, out)
        return bytes(out)

    def decode(self, blob) -> list[tuple]:
        try:
            return self.decode_bytes(bytes(blob))
        except struct.error:  # a length header cut short by the chunk end
            raise ConversionError("corrupt record: truncated") from None


_CODEC_CACHE: dict[tuple[int, ...], RowCodec] = {}
_CODEC_CACHE_MAX = 256


def encode_rows(metas: list[ColumnMeta], rows: list[tuple]) -> bytes:
    """Encode rows as length-prefixed records with NULL indicator bitmaps.

    Delegates to the compiled per-schema :class:`RowCodec`; output is
    byte-identical to :func:`encode_rows_reference`.
    """
    return RowCodec.for_metas(metas).encode(rows)


def decode_rows(metas: list[ColumnMeta], blob: bytes) -> list[tuple]:
    """Decode a stream of records produced by :func:`encode_rows`."""
    return RowCodec.for_metas(metas).decode(blob)
