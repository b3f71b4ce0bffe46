"""Integration tests for the wire protocol: server, client, concurrency."""

import datetime
import struct
import threading

import pytest

from repro.errors import BackendError, ProtocolError
from repro.core.engine import HyperQ
from repro.protocol.client import TdClient
from repro.protocol.messages import MessageKind, encode_message
from repro.protocol.server import ServerThread


@pytest.fixture
def served():
    engine = HyperQ()
    thread = ServerThread(engine)
    address = thread.start()
    yield engine, address
    thread.stop()


class TestBasicFlow:
    def test_logon_assigns_session_id(self, served):
        __, (host, port) = served
        with TdClient(host, port) as client:
            assert client.session_id is not None

    def test_ddl_dml_query_roundtrip(self, served):
        __, (host, port) = served
        with TdClient(host, port) as client:
            assert client.execute("CREATE TABLE W (A INTEGER, B VARCHAR(8), "
                                  "D DATE)").kind == "ok"
            count = client.execute(
                "INSERT INTO W VALUES (1, 'x', DATE '2014-01-01'), "
                "(2, NULL, NULL)")
            assert count.kind == "count"
            assert count.rowcount == 2
            result = client.execute("SEL A, B, D FROM W ORDER BY A")
            assert result.columns == ["A", "B", "D"]
            assert result.rows == [
                (1, "x", datetime.date(2014, 1, 1)),
                (2, None, None),
            ]

    def test_user_name_flows_into_session(self, served):
        __, (host, port) = served
        with TdClient(host, port, user="erika") as client:
            params = dict(client.execute("HELP SESSION").rows)
            assert params["USER"] == "ERIKA"

    def test_error_reported_and_session_survives(self, served):
        __, (host, port) = served
        with TdClient(host, port) as client:
            with pytest.raises(BackendError):
                client.execute("SEL * FROM MISSING_TABLE")
            client.execute("CREATE TABLE OK1 (A INTEGER)")
            assert client.execute("SEL COUNT(*) FROM OK1").rows == [(0,)]

    def test_large_result_streams_in_chunks(self, served):
        __, (host, port) = served
        with TdClient(host, port) as client:
            client.execute("CREATE TABLE BIGT (N INTEGER, PAD VARCHAR(64))")
            values = ", ".join(f"({i}, '{'x' * 60}')" for i in range(3000))
            client.execute(f"INSERT INTO BIGT VALUES {values}")
            result = client.execute("SEL N FROM BIGT ORDER BY N")
            assert result.rowcount == 3000
            assert result.rows[0] == (0,)
            assert result.rows[-1] == (2999,)


class TestConcurrency:
    def test_parallel_clients_have_isolated_volatile_tables(self, served):
        __, (host, port) = served
        outcomes: list[object] = []

        def worker(index: int) -> None:
            try:
                with TdClient(host, port, user=f"w{index}") as client:
                    client.execute("CREATE VOLATILE TABLE MINE (X INTEGER) "
                                   "ON COMMIT PRESERVE ROWS")
                    client.execute(f"INSERT INTO MINE VALUES ({index})")
                    rows = client.execute("SEL X FROM MINE").rows
                    outcomes.append(rows == [(index,)])
            except Exception as error:  # pragma: no cover - failure detail
                outcomes.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes == [True] * 6

    def test_shared_tables_visible_across_clients(self, served):
        __, (host, port) = served
        with TdClient(host, port) as one:
            one.execute("CREATE TABLE SHARED_T (X INTEGER)")
            one.execute("INSERT INTO SHARED_T VALUES (42)")
        with TdClient(host, port) as two:
            assert two.execute("SEL X FROM SHARED_T").rows == [(42,)]


class TestProtocolStrictness:
    def test_query_before_logon_closes_connection(self, served):
        import socket

        __, (host, port) = served
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(encode_message(MessageKind.RUN_QUERY, b"SEL 1"))
            # Server drops the connection instead of answering.
            assert sock.recv(1) == b""

    def test_bad_magic_detected_client_side(self):
        with pytest.raises(ProtocolError):
            from repro.protocol.messages import HEADER

            class FakeSock:
                def __init__(self):
                    self.data = b"XX" + bytes(HEADER.size - 2)

                def recv(self, n):
                    chunk, self.data = self.data[:n], self.data[n:]
                    return chunk

            from repro.protocol.messages import read_message

            read_message(FakeSock())  # type: ignore[arg-type]

    def test_oversized_payload_rejected(self):
        with pytest.raises(ProtocolError):
            encode_message(MessageKind.RUN_QUERY, b"x" * (64 * 1024 * 1024 + 1))

    def test_timing_recorded_for_wire_requests(self, served):
        engine, (host, port) = served
        with TdClient(host, port) as client:
            client.execute("CREATE TABLE TM (A INTEGER)")
            client.execute("INSERT INTO TM VALUES (1)")
            client.execute("SEL * FROM TM")
        log = engine.timing_log
        assert log.count == 3
        assert log.total > 0
