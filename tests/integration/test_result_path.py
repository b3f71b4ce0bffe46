"""The fused result path over the wire: backend row batches go straight to
the compiled codec, and TDF — the ODBC Server's framing for out-of-process
drivers — is no hop on the live path."""

from __future__ import annotations

import datetime
import re
import socket

import pytest

from repro import HyperQ, ServerThread, TdClient, tdf
from repro.core.budget import BatchBudget
from repro.protocol.aio_server import AioServerThread
from repro.protocol.encoding import decode_meta, decode_rows
from repro.protocol.messages import HEADER, MAGIC, MessageKind

PAD = "p" * 40

#: A streamed multi-chunk SELECT that misses the result cache, the same
#: SELECT again (a hit), a fabricated HELP result and the metrics dump.
SCRIPT = ("SEL N, PAD FROM BIGSTREAM",
          "SEL N, PAD FROM BIGSTREAM",
          "HELP TABLE BIGSTREAM",
          "SHOW HYPERQ METRICS")


def _frame(kind: MessageKind, payload: bytes = b"") -> bytes:
    return HEADER.pack(MAGIC, int(kind), len(payload)) + payload


def _transcript(server_cls) -> list[list[tuple[int, bytes]]]:
    """SCRIPT through a fresh engine behind *server_cls*: the frames of
    each reply, in order."""
    engine = HyperQ(result_cache_bytes=1 << 20,
                    batch_budget=BatchBudget(batch_rows=64))
    session = engine.create_session()
    session.execute("CREATE TABLE BIGSTREAM (N INTEGER, PAD VARCHAR(80))")
    session.close()
    engine.backend.catalog.table("BIGSTREAM").insert_rows(
        [(i, PAD) for i in range(500)])
    script = _frame(MessageKind.LOGON_REQUEST, b"dbc\0dbc") \
        + b"".join(_frame(MessageKind.RUN_QUERY, sql.encode())
                   for sql in SCRIPT) + _frame(MessageKind.LOGOFF)
    thread = server_cls(engine)
    try:
        with socket.create_connection(thread.start(), timeout=60) as sock:
            sock.sendall(script)
            sock.shutdown(socket.SHUT_WR)
            reply = bytearray()
            while chunk := sock.recv(65536):
                reply += chunk
    finally:
        thread.stop()
    assert engine.result_cache_stats().hits == 1
    replies, current, offset = [], [], 0
    while offset < len(reply):
        __, kind, length = HEADER.unpack_from(reply, offset)
        offset += HEADER.size
        current.append((kind, bytes(reply[offset:offset + length])))
        offset += length
        if kind in (MessageKind.SUCCESS, MessageKind.FAILURE,
                    MessageKind.LOGON_RESPONSE):
            replies.append(current)
            current = []
    return replies


def _timings_masked(reply: list[tuple[int, bytes]]) -> list:
    """The metrics dump with its measured durations blanked out."""
    metas = decode_meta(reply[0][1])
    lines = [row[0] for kind, payload in reply
             if kind == MessageKind.RESULT_ROWS
             for row in decode_rows(metas, payload)]
    return [reply[0], [re.sub(r"\d+\.\d+", "#", line) for line in lines],
            reply[-1]]


@pytest.mark.parametrize("server_cls", [ServerThread, AioServerThread],
                         ids=["threaded", "async"])
def test_live_path_never_touches_tdf(server_cls, monkeypatch):
    """With TDF's packet coders booby-trapped, every reply — streamed rows,
    a result-cache miss and hit, HELP and SHOW HYPERQ — is byte for byte
    what an unpatched run sends (the metrics dump up to its durations)."""
    expected = _transcript(server_cls)

    def trapped(*args, **kwargs):
        raise AssertionError("TDF packet coder called on the live path")

    monkeypatch.setattr(tdf, "encode_batch", trapped)
    monkeypatch.setattr(tdf, "decode_batch", trapped)
    observed = _transcript(server_cls)
    assert len(observed) == len(expected) == 1 + len(SCRIPT)
    assert observed[:-1] == expected[:-1]
    assert _timings_masked(observed[-1]) == _timings_masked(expected[-1])
    streamed = [kind for kind, __ in expected[1]]
    assert streamed.count(MessageKind.RESULT_ROWS) > 1


def test_extreme_timestamps_survive_the_wire():
    """TIMESTAMP values at both ends of the range reach the client intact
    (they used to die in the TDF hop as a bare ValueError)."""
    values = {1: datetime.datetime(9999, 12, 31, 23, 59, 59, 999999),
              2: datetime.datetime(1, 1, 1)}
    with ServerThread(HyperQ()) as (host, port):
        with TdClient(host, port) as client:
            client.execute("CREATE TABLE T (A INTEGER, TS TIMESTAMP)")
            for key, value in values.items():
                client.execute(f"INSERT INTO T VALUES ({key}, TIMESTAMP "
                               f"'{value.isoformat(sep=' ')}')")
            for key, value in values.items():
                assert client.execute(f"SEL * FROM T WHERE A={key}").rows \
                    == [(key, value)]
