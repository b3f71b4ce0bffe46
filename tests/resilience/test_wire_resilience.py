"""The Protocol Handler under adverse conditions: disconnects, deadlines,
session reclamation, graceful failure replies.
"""

from __future__ import annotations

import socket
import struct
import time

import pytest

from repro.errors import BackendError, ProtocolError
from repro.core.engine import HyperQ, HyperQSession
from repro.core.faults import (
    SLOW_RESULT, WIRE_DISCONNECT, FaultSchedule, FaultSpec,
)
from repro.protocol.aio_server import AioServerThread
from repro.protocol.client import TdClient
from repro.protocol.messages import MessageKind, read_message, send_message
from repro.protocol.server import ServerThread
from repro.results.store import ResultStore


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def close_counter(monkeypatch):
    """Counts HyperQSession.close calls without disturbing them."""
    closed = []
    original = HyperQSession.close

    def counting_close(self):
        closed.append(self)
        return original(self)

    monkeypatch.setattr(HyperQSession, "close", counting_close)
    return closed


class TestSessionReclamation:
    def test_clean_logoff_closes_the_session(self, close_counter):
        with ServerThread(HyperQ()) as address:
            client = TdClient(*address)
            client.execute("SEL 1")
            client.close()
            assert wait_until(lambda: len(close_counter) == 1)

    def test_abrupt_disconnect_closes_the_session_too(self, close_counter):
        """The satellite fix: a vanished client must not orphan its session
        (and the volatile-table overlay riding on it)."""
        with ServerThread(HyperQ()) as address:
            client = TdClient(*address)
            client.execute("CREATE VOLATILE TABLE GONE (X INTEGER)")
            client._sock.close()  # yank the cable: no LOGOFF
            assert wait_until(lambda: len(close_counter) == 1)

    def test_injected_disconnect_closes_the_session(self, close_counter):
        sched = FaultSchedule(0, [FaultSpec(WIRE_DISCONNECT, "wire", at=(2,))])
        engine = HyperQ(faults=sched)
        with ServerThread(engine) as address:
            client = TdClient(*address)
            client.execute("SEL 1")
            with pytest.raises((ProtocolError, ConnectionError, OSError)):
                client.execute("SEL 1")
            assert wait_until(lambda: len(close_counter) == 1)
        assert engine.resilience_stats()["wire_disconnects"] == 1

    def test_malformed_handshake_never_leaks_a_session(self, close_counter):
        with ServerThread(HyperQ()) as address:
            sock = socket.create_connection(address, timeout=5)
            # RUN_QUERY before LOGON is a protocol violation.
            send_message(sock, MessageKind.RUN_QUERY, b"SEL 1")
            sock.close()
            time.sleep(0.1)
        assert close_counter == []  # no session was ever created


class TestRequestTimeouts:
    def test_slow_request_gets_a_timely_failure_reply(self):
        sched = FaultSchedule(0, [
            FaultSpec(SLOW_RESULT, "wire", at=(1,), delay=1.5)])
        engine = HyperQ(faults=sched)
        with ServerThread(engine, request_timeout=0.1) as address:
            client = TdClient(*address)
            start = time.monotonic()
            with pytest.raises(BackendError, match="timed out"):
                client.execute("SEL 1")
            assert time.monotonic() - start < 1.0
            client.close()
        assert engine.resilience_stats()["timeouts"] == 1

    def test_connection_survives_a_timeout(self):
        sched = FaultSchedule(0, [
            FaultSpec(SLOW_RESULT, "wire", at=(1,), delay=0.4)])
        engine = HyperQ(faults=sched)
        with ServerThread(engine, request_timeout=0.1) as address:
            client = TdClient(*address)
            with pytest.raises(BackendError, match="timed out"):
                client.execute("SEL 1")
            time.sleep(0.5)  # let the straggler drain off the worker
            assert client.execute("SEL 1").rows == [(1,)]
            client.close()

    @pytest.mark.parametrize("thread_cls", [ServerThread, AioServerThread],
                             ids=["threaded", "async"])
    def test_session_outlives_its_straggler(self, thread_cls, monkeypatch):
        """No workload manager: the client reads its timeout FAILURE and
        hangs up at once, while the statement is still running. The
        session must close only after that straggler has landed."""
        events = []
        execute, close = HyperQSession.execute, HyperQSession.close

        def recording_execute(session, *args, **kwargs):
            try:
                return execute(session, *args, **kwargs)
            except BaseException as error:
                events.append(f"raised {error!r}")
                raise
            finally:
                events.append("executed")

        def recording_close(session):
            events.append("closed")
            return close(session)

        monkeypatch.setattr(HyperQSession, "execute", recording_execute)
        monkeypatch.setattr(HyperQSession, "close", recording_close)
        sched = FaultSchedule(0, [
            FaultSpec(SLOW_RESULT, "wire", at=(1,), delay=0.4)])
        engine = HyperQ(faults=sched)
        stores = ResultStore.open_count()
        with thread_cls(engine, request_timeout=0.05) as address:
            client = TdClient(*address)
            with pytest.raises(BackendError, match="timed out"):
                client.execute("SEL 1")
            client._sock.close()
            assert wait_until(lambda: len(events) >= 2)
            assert events == ["executed", "closed"]
            assert wait_until(lambda: engine.open_session_count == 0)
            assert wait_until(lambda: ResultStore.open_count() <= stores)

    def test_fast_requests_unaffected_by_the_deadline(self):
        with ServerThread(HyperQ(), request_timeout=5.0) as address:
            client = TdClient(*address)
            assert client.execute("SEL 1").rows == [(1,)]
            client.close()


class TestGracefulFailures:
    def test_sql_errors_reply_failure_and_continue(self):
        with ServerThread(HyperQ()) as address:
            client = TdClient(*address)
            with pytest.raises(BackendError):
                client.execute("SELECT FROM WHERE")
            assert client.execute("SEL 1").rows == [(1,)]
            client.close()

    def test_internal_errors_reply_failure_not_hangup(self, monkeypatch):
        engine = HyperQ()

        def explode(self, sql):
            raise RuntimeError("wires crossed")

        with ServerThread(engine) as address:
            client = TdClient(*address)
            monkeypatch.setattr(HyperQSession, "execute", explode)
            with pytest.raises(BackendError, match="internal error"):
                client.execute("SEL 1")
            monkeypatch.undo()
            assert client.execute("SEL 1").rows == [(1,)]
            client.close()

    def test_slow_result_without_deadline_just_arrives_late(self):
        sched = FaultSchedule(0, [
            FaultSpec(SLOW_RESULT, "wire", at=(1,), delay=0.05)])
        engine = HyperQ(faults=sched)
        with ServerThread(engine) as address:
            client = TdClient(*address)
            start = time.monotonic()
            assert client.execute("SEL 1").rows == [(1,)]
            assert time.monotonic() - start >= 0.05
            client.close()
