"""The asyncio wire path against the threaded one: byte parity and the
async-only behaviors (backpressure, cancellation).

Parity is checked at the rawest level that matters: two identically
configured engines, one behind each server, receive the same frame script
and must produce **byte-identical** reply streams — streaming results,
workload-managed admission, tenancy rejections, and mid-stream FAILURE
included. Any divergence (a different chunk boundary, a different error
text, a missing frame) is a client-visible protocol change.
"""

from __future__ import annotations

import gc
import socket
import struct
import time
import weakref

import pytest

from repro import HyperQ, ServerThread, TdClient
from repro.core.budget import BatchBudget
from repro.core.tenancy import TenancyConfig, TenantRegistry
from repro.core.workload import WorkloadConfig, WorkloadManager
from repro.protocol.aio_server import AioHyperQServer, AioServerThread
from repro.protocol.messages import HEADER, MAGIC, MessageKind
from repro.results.store import ResultStore

PAD = "p" * 40


def _frame(kind: MessageKind, payload: bytes = b"") -> bytes:
    return HEADER.pack(MAGIC, int(kind), len(payload)) + payload


def _logon(tenant: str | None = None) -> bytes:
    payload = b"dbc\0dbc"
    if tenant is not None:
        payload += b"\0" + tenant.encode()
    return _frame(MessageKind.LOGON_REQUEST, payload)


def _query(sql: str) -> bytes:
    return _frame(MessageKind.RUN_QUERY, sql.encode())


def _raw_exchange(address, script: bytes, timeout: float = 60.0) -> bytes:
    """Send a pre-built frame script, then drain the reply to EOF."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(script)
        sock.shutdown(socket.SHUT_WR)
        reply = bytearray()
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return bytes(reply)
            reply += chunk


def _frames(reply: bytes) -> list[tuple[int, bytes]]:
    out, offset = [], 0
    while offset + HEADER.size <= len(reply):
        __, kind, length = HEADER.unpack_from(reply, offset)
        out.append((kind, reply[offset + HEADER.size:
                                offset + HEADER.size + length]))
        offset += HEADER.size + length
    return out


class _KeepsSessions(HyperQ):
    """An engine that keeps every session it hands out, as a connection
    registry or an accounting wrapper would."""

    def __init__(self):
        super().__init__()
        self.sessions = []

    def create_session(self):
        session = super().create_session()
        self.sessions.append(session)
        return session


def _seed_table(engine, rows: int) -> None:
    session = engine.create_session()
    session.execute("CREATE TABLE BIGSTREAM (N INTEGER, PAD VARCHAR(80))")
    session.close()
    table = engine.backend.catalog.table("BIGSTREAM")
    table.insert_rows([(i, PAD) for i in range(rows)])


def _both_replies(make_engine, script: bytes) -> tuple[bytes, bytes]:
    """The same frame script against a threaded and an async server, each
    wrapping an identically built engine."""
    replies = []
    for thread_cls in (ServerThread, AioServerThread):
        engine = make_engine()
        thread = thread_cls(engine)
        try:
            address = thread.start()
            replies.append(_raw_exchange(address, script))
        finally:
            thread.stop()
    return replies[0], replies[1]


def _settle(predicate, deadline: float = 5.0) -> bool:
    until = time.monotonic() + deadline
    while time.monotonic() < until:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestReplyParity:
    def test_streaming_result_byte_identical(self):
        """A multi-chunk streaming SELECT: same metas, same chunk
        boundaries, same SUCCESS total — byte for byte."""
        def make_engine():
            engine = HyperQ(batch_budget=BatchBudget(batch_rows=64))
            _seed_table(engine, rows=1500)
            return engine

        script = _logon() + _query("SEL N, PAD FROM BIGSTREAM") \
            + _frame(MessageKind.LOGOFF)
        threaded, asyncio_ = _both_replies(make_engine, script)
        assert threaded == asyncio_
        kinds = [kind for kind, __ in _frames(threaded)]
        assert kinds.count(int(MessageKind.RESULT_ROWS)) > 1  # multi-chunk

    def test_workload_managed_admission_byte_identical(self):
        """Managed path: classify → admit → execute replies identically."""
        def make_engine():
            manager = WorkloadManager(WorkloadConfig(workers=2))
            engine = HyperQ(workload=manager,
                            batch_budget=BatchBudget(batch_rows=32))
            _seed_table(engine, rows=200)
            return engine

        script = _logon() \
            + _query("SEL N FROM BIGSTREAM WHERE N < 10") \
            + _query("INS INTO BIGSTREAM VALUES (9999, 'x')") \
            + _frame(MessageKind.LOGOFF)
        threaded, asyncio_ = _both_replies(make_engine, script)
        assert threaded == asyncio_

    def test_tenancy_rejections_byte_identical(self):
        """Unknown tenant at LOGON and a tripped QPS quota both produce
        identical FAILURE frames on both paths."""
        tenancy = {
            "tenants": {
                # One admission token, effectively never refilled: the
                # first query is admitted, the second sheds QUOTA_EXCEEDED.
                "meter": {"weight": 1.0, "rate": 0.000001, "burst": 1},
            },
        }

        def make_engine():
            registry = TenantRegistry(TenancyConfig.from_dict(tenancy))
            manager = WorkloadManager(WorkloadConfig(workers=2),
                                      tenancy=registry)
            return HyperQ(workload=manager)

        unknown = _logon(tenant="ghost")
        threaded, asyncio_ = _both_replies(make_engine, unknown)
        assert threaded == asyncio_
        assert _frames(threaded)[0][0] == int(MessageKind.FAILURE)

        quota = _logon(tenant="meter") + _query("SEL 1") \
            + _query("SEL 2") + _frame(MessageKind.LOGOFF)
        threaded, asyncio_ = _both_replies(make_engine, quota)
        assert threaded == asyncio_
        kinds = [kind for kind, __ in _frames(threaded)]
        assert int(MessageKind.SUCCESS) in kinds
        assert int(MessageKind.FAILURE) in kinds
        failure = next(payload for kind, payload in _frames(threaded)
                       if kind == int(MessageKind.FAILURE))
        assert b"QUOTA_EXCEEDED" in failure

    def test_mid_stream_failure_byte_identical(self):
        """A lazily raised backend error after chunks already shipped:
        both paths truncate at the same chunk and send the same FAILURE."""
        def make_engine():
            engine = HyperQ(batch_budget=BatchBudget(batch_rows=16))
            _seed_table(engine, rows=200)
            return engine

        script = _logon() \
            + _query("SEL 100 / (N - 50) FROM BIGSTREAM") \
            + _frame(MessageKind.LOGOFF)
        threaded, asyncio_ = _both_replies(make_engine, script)
        assert threaded == asyncio_
        kinds = [kind for kind, __ in _frames(threaded)]
        assert int(MessageKind.RESULT_ROWS) in kinds  # rows shipped first
        assert kinds[-1] == int(MessageKind.FAILURE)  # then truncation
        assert int(MessageKind.SUCCESS) not in kinds


class TestBackpressure:
    def test_slow_consumer_bounds_server_buffering(self):
        """With a deliberately tiny write high-water mark and a paced
        client, the server's write buffer stays bounded: the chunk pump
        stalls in drain() instead of buffering the whole result."""
        high_water = 8 * 1024
        engine = HyperQ(batch_budget=BatchBudget(batch_rows=64))
        _seed_table(engine, rows=4000)
        server = AioHyperQServer(engine, write_high_water=high_water)
        try:
            host, port = server.start()
            with TdClient(host, port, timeout=120.0) as client:
                stream = client.execute_stream("SEL N, PAD FROM BIGSTREAM")
                frame_sizes: list[int] = []

                def paced(frame_rows):
                    frame_sizes.append(len(frame_rows))
                    time.sleep(0.005)

                stream.on_rows = paced
                total = sum(1 for __ in stream)
            assert total == 4000
            assert len(frame_sizes) > 1
            # One frame may be mid-write when the mark trips; anything
            # beyond high-water + one frame means drain() wasn't honored.
            biggest_frame = 64 * (4 + 2 + len(PAD) + 4 + 2) + HEADER.size
            assert server.peak_write_buffer <= high_water + biggest_frame, \
                (f"peak write buffer {server.peak_write_buffer} "
                 f"not bounded by {high_water} + {biggest_frame}")
        finally:
            server.server_close()


class TestCancellation:
    @pytest.mark.parametrize("thread_cls", [ServerThread, AioServerThread],
                             ids=["threaded", "async"])
    def test_disconnect_mid_stream_releases_everything(self, thread_cls):
        """A client that vanishes mid-result releases the executor slot
        (no pull left in flight), closes the converter's stream, and frees
        the session — on both wire paths."""
        engine = HyperQ(batch_budget=BatchBudget(batch_rows=32))
        _seed_table(engine, rows=5000)
        store_baseline = ResultStore.open_count()
        thread = thread_cls(engine)
        try:
            host, port = thread.start()
            for __ in range(10):
                sock = socket.create_connection((host, port), timeout=30.0)
                sock.sendall(_logon())
                sock.settimeout(30.0)
                sock.recv(HEADER.size + 4)  # LOGON_RESPONSE
                sock.sendall(_query("SEL N, PAD FROM BIGSTREAM"))
                sock.recv(4096)  # first reply bytes are in flight...
                sock.close()     # ...and the client is gone.
            assert _settle(lambda: engine.open_session_count == 0), \
                f"{engine.open_session_count} sessions leaked"
            assert _settle(
                lambda: ResultStore.open_count() <= store_baseline), \
                "result stores leaked"
            server = thread.server
            if isinstance(server, AioHyperQServer):
                assert _settle(lambda: server.active_pulls == 0), \
                    f"{server.active_pulls} executor pulls leaked"
        finally:
            thread.stop()

    @pytest.mark.parametrize("thread_cls", [ServerThread, AioServerThread],
                             ids=["threaded", "async"])
    def test_stopped_server_frees_its_engine_without_the_collector(
            self, thread_cls):
        """No reference cycle holds the engine once its server has stopped
        — not the server, not the sessions it closed, even when something
        still keeps those sessions — so refcounting alone frees it."""
        engine = _KeepsSessions()
        _seed_table(engine, rows=10)
        gc.disable()
        try:
            thread = thread_cls(engine)
            host, port = thread.start()
            with TdClient(host, port) as client:
                assert client.execute("SEL N FROM BIGSTREAM WHERE N = 3"
                                      ).rows == [(3,)]
            thread.stop()
            assert _settle(lambda: engine.open_session_count == 0)
            gone = [weakref.ref(engine),
                    *(weakref.ref(s) for s in engine.sessions)]
            del engine, thread
            assert _settle(lambda: all(ref() is None for ref in gone)), \
                "engine or session kept alive"
        finally:
            gc.enable()

    def test_session_survives_for_next_request_after_failure(self):
        """After a mid-stream FAILURE the async connection keeps serving:
        the stream was closed server-side, not the session."""
        engine = HyperQ(batch_budget=BatchBudget(batch_rows=16))
        _seed_table(engine, rows=200)
        with AioServerThread(engine) as (host, port):
            with TdClient(host, port) as client:
                from repro.errors import BackendError
                with pytest.raises(BackendError, match="division by zero"):
                    client.execute("SEL 100 / (N - 50) FROM BIGSTREAM")
                result = client.execute(
                    "SEL N FROM BIGSTREAM WHERE N = 7")
                assert result.rows == [(7,)]
