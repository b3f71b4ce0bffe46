"""Integration tests: the workload manager behind the wire server.

Covers the bounded accept-side concurrency regression (hundreds of
concurrent connections never exceed the configured worker count), managed
end-to-end request flow, queue-deadline expiry surfacing as a clean FAILURE
with the session surviving, and straggler isolation under the managed path.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import HyperQ, ServerThread, TdClient
from repro.core.faults import SLOW_RESULT, FaultSchedule, FaultSpec
from repro.core.tracker import FeatureTracker
from repro.core.workload import (
    ADMIN, ETL, INTERACTIVE,
    WorkloadClassConfig, WorkloadConfig, WorkloadManager,
)
from repro.errors import BackendError


def _conn_threads() -> int:
    return sum(1 for thread in threading.enumerate()
               if thread.name.startswith("hyperq-conn"))


class TestBoundedAcceptConcurrency:
    """Satellite 1: the unbounded thread-per-connection bug stays fixed."""

    def test_200_connections_never_exceed_worker_cap(self):
        engine = HyperQ()
        baseline = _conn_threads()
        with ServerThread(engine, max_connections=4) as (host, port):
            sockets = []
            try:
                for __ in range(200):
                    sockets.append(
                        socket.create_connection((host, port), timeout=10))
                # Give the accept loop time to pull every connection off the
                # backlog and hand it to the pool.
                deadline = time.time() + 2.0
                while time.time() < deadline:
                    time.sleep(0.05)
                    assert _conn_threads() - baseline <= 4
            finally:
                for sock in sockets:
                    sock.close()
            # With the idlers gone, a real client queued behind them still
            # gets served on the same bounded pool.
            with _client(host, port) as client:
                client.execute("CREATE TABLE CAPPED (A INTEGER)")
                client.execute("INS INTO CAPPED VALUES (1)")
                result = client.execute("SEL A FROM CAPPED")
                assert result.rows == [(1,)]
            assert _conn_threads() - baseline <= 4

    def test_pool_worker_survives_handler_error(self):
        engine = HyperQ()
        with ServerThread(engine, max_connections=2) as (host, port):
            # Garbage instead of a LOGON frame kills the handler, not the
            # pool worker.
            for __ in range(3):
                sock = socket.create_connection((host, port), timeout=5)
                sock.sendall(b"\xff" * 16)
                sock.close()
            with _client(host, port) as client:
                assert client.execute("SEL DATE").kind == "rows"


def _client(host, port) -> TdClient:
    return TdClient(host, port, timeout=30.0)


def _managed_engine(config: WorkloadConfig | None = None,
                    faults: FaultSchedule | None = None):
    tracker = FeatureTracker()
    manager = WorkloadManager(config or WorkloadConfig())
    engine = HyperQ(tracker=tracker, faults=faults, workload=manager)
    return engine, manager, tracker


class TestManagedServer:
    def test_classified_requests_flow_end_to_end(self):
        engine, manager, tracker = _managed_engine()
        try:
            with ServerThread(engine) as (host, port):
                with _client(host, port) as client:
                    client.execute("CREATE TABLE T (A INTEGER)")  # admin
                    client.execute("INS INTO T VALUES (41)")      # etl
                    client.execute("UPDATE T SET A = A + 1")      # etl
                    result = client.execute("SEL A FROM T")       # interactive
                    assert result.rows == [(42,)]
            assert manager.stats.get(ADMIN, "admitted") >= 1
            assert manager.stats.get(ETL, "admitted") == 2
            assert manager.stats.get(INTERACTIVE, "admitted") >= 1
            assert manager.stats.total("shed") == 0
            assert tracker.workload_total("admitted") >= 4
            # Queue wait was measured and folded into the timing log.
            assert engine.timing_log.queue_wait > 0.0
        finally:
            manager.close()

    def test_managed_requests_produce_valid_span_trees(self):
        """Every managed wire request ends with exactly one complete span
        tree: the classify and queue_wait stages appear on the connection
        side, the pipeline stages follow on the pool worker (cross-thread
        hand-off), and all children nest within the root interval."""
        from repro.core.trace import assert_span_tree

        engine, manager, __ = _managed_engine()
        try:
            with ServerThread(engine) as (host, port):
                with _client(host, port) as client:
                    client.execute("CREATE TABLE T (A INTEGER)")
                    client.execute("INS INTO T VALUES (41)")
                    assert client.execute("SEL A FROM T").rows == [(41,)]

            hub = engine.tracing
            deadline = time.monotonic() + 5

            def finished_wire_traces():
                traces = [hub.get_trace(tid) for tid in hub.trace_ids()]
                return [t for t in traces if t is not None and t.done
                        and "protocol_decode" in t.stage_names()]

            while time.monotonic() < deadline \
                    and len(finished_wire_traces()) < 3:
                time.sleep(0.01)
            traced = finished_wire_traces()
            assert len(traced) == 3
            for trace in traced:
                assert_span_tree(trace)
                names = trace.stage_names()
                assert names[0] == "request"
                assert "classify" in names
                assert "queue_wait" in names
                assert "odbc_execute" in names
                roots = [s for s in trace.spans if s.parent_id is None]
                assert len(roots) == 1
            select = next(t for t in traced if t.sql.startswith("SEL"))
            classify = next(s for s in select.spans if s.name == "classify")
            assert classify.attrs["wl_class"] == INTERACTIVE
        finally:
            manager.close()

    def test_queue_expired_request_gets_clean_failure(self):
        """Satellite 2: an expired request is rejected with a FAILURE reply
        and the session keeps serving subsequent requests."""
        faults = FaultSchedule(0, [
            # The second admission decision arrives with 30s of synthetic
            # queue age — an instant miss of interactive's 5s deadline.
            FaultSpec(SLOW_RESULT, "admission", at=(2,), delay=30.0),
        ])
        engine, manager, __ = _managed_engine(faults=faults)
        try:
            with ServerThread(engine) as (host, port):
                with _client(host, port) as client:
                    client.execute("CREATE TABLE T (A INTEGER)")
                    with pytest.raises(BackendError, match="deadline"):
                        client.execute("SEL A FROM T")
                    # Same connection, same session: alive and well.
                    assert client.execute("SEL A FROM T").rows == []
            assert manager.stats.get(INTERACTIVE, "deadline_missed") == 1
        finally:
            manager.close()

    def test_real_queue_expiry_behind_a_slow_request(self):
        """A genuinely queued request whose class deadline lapses is
        rejected before execution, quickly, while the slow request that
        caused the backlog completes normally."""
        classes = dict(WorkloadConfig().classes)
        classes[INTERACTIVE] = WorkloadClassConfig(
            INTERACTIVE, weight=4.0, deadline=0.15)
        config = WorkloadConfig(classes=classes, workers=1)
        faults = FaultSchedule(0, [
            # after=2 skips the setup CREATE; times=1 stalls exactly the
            # one statement naming SLOWTAG that follows it.
            FaultSpec(SLOW_RESULT, "wire", match="SLOWTAG", after=2,
                      times=1, delay=0.5),
        ])
        engine, manager, __ = _managed_engine(config, faults)
        try:
            with ServerThread(engine) as (host, port):
                with _client(host, port) as setup:
                    setup.execute("CREATE TABLE SLOWTAG (A INTEGER)")

                started = threading.Event()
                slow_result = {}

                def slow_query():
                    with _client(host, port) as slow:
                        started.set()
                        slow_result["value"] = slow.execute(
                            "SEL A FROM SLOWTAG")

                thread = threading.Thread(target=slow_query)
                thread.start()
                started.wait(5)
                time.sleep(0.1)  # let the slow query occupy the sole worker
                with _client(host, port) as fast:
                    begin = time.monotonic()
                    with pytest.raises(BackendError, match="deadline"):
                        fast.execute("SEL DATE")
                    elapsed = time.monotonic() - begin
                    # Rejected at its own 0.15s deadline, not after the
                    # 0.5s straggler ahead of it.
                    assert elapsed < 0.45
                    thread.join(timeout=5)
                    # The backlog drained; the same rejected session works.
                    assert fast.execute("SEL DATE").kind == "rows"
                assert slow_result["value"].kind == "rows"
            assert manager.stats.get(INTERACTIVE, "deadline_missed") >= 1
        finally:
            manager.close()

    def test_request_timeout_straggler_does_not_break_session(self):
        faults = FaultSchedule(0, [
            FaultSpec(SLOW_RESULT, "wire", match="SLOWTAG", after=2,
                      times=1, delay=0.4),
        ])
        engine, manager, __ = _managed_engine(faults=faults)
        try:
            with ServerThread(engine, request_timeout=0.1) as (host, port):
                with _client(host, port) as client:
                    client.execute("CREATE TABLE SLOWTAG (A INTEGER)")
                    with pytest.raises(BackendError, match="timed out"):
                        client.execute("SEL A FROM SLOWTAG")
                    # The straggler is awaited before the next request runs,
                    # so the session is never driven concurrently.
                    client.execute("INS INTO SLOWTAG VALUES (7)")
                    assert client.execute(
                        "SEL A FROM SLOWTAG WHERE A = 7").rows == [(7,)]
            assert engine.resilience.timeouts >= 1
        finally:
            manager.close()

    def test_timeout_while_queued_cancels_cleanly(self):
        """A request that hits ``request_timeout`` while still *queued* is
        cancelled by the manager: the client gets a clean FAILURE, nothing
        straggles, and the connection-pool worker survives. (A
        CancelledError escaping the discard callback used to kill the
        worker, permanently shrinking the pool.)"""
        config = WorkloadConfig(workers=1)
        faults = FaultSchedule(0, [
            # after=2 skips the setup CREATE; the one SLOWTAG query that
            # follows stalls long enough to back up the sole worker.
            FaultSpec(SLOW_RESULT, "wire", match="SLOWTAG", after=2,
                      times=1, delay=0.6),
        ])
        engine, manager, __ = _managed_engine(config, faults)
        try:
            with ServerThread(engine, request_timeout=0.15,
                              max_connections=2) as (host, port):
                with _client(host, port) as setup:
                    setup.execute("CREATE TABLE SLOWTAG (A INTEGER)")

                started = threading.Event()

                def slow_query():
                    with _client(host, port) as slow:
                        started.set()
                        # Runs past the request timeout itself; its own
                        # FAILURE and straggler handling are exercised by
                        # the straggler test above.
                        with pytest.raises(BackendError, match="timed out"):
                            slow.execute("SEL A FROM SLOWTAG")

                thread = threading.Thread(target=slow_query)
                thread.start()
                started.wait(5)
                time.sleep(0.1)  # let the slow query occupy the sole worker
                with _client(host, port) as fast:
                    begin = time.monotonic()
                    with pytest.raises(BackendError, match="timed out"):
                        fast.execute("SEL DATE")
                    # Cancelled at the 0.15s request timeout while queued,
                    # not after the 0.6s blocker ahead of it.
                    assert time.monotonic() - begin < 0.5
                    thread.join(timeout=5)
                    # The slow client got its FAILURE early; its straggler
                    # may still occupy the sole worker — let it drain.
                    time.sleep(0.8)
                    # Same connection keeps working: the pool worker did
                    # not die and no straggler holds the session.
                    assert fast.execute("SEL DATE").kind == "rows"
                # A fresh connection is served too — pool capacity intact.
                with _client(host, port) as again:
                    assert again.execute("SEL DATE").kind == "rows"
            # The cancelled request was queued but never admitted/run.
            assert manager.stats.get(INTERACTIVE, "queued") \
                > manager.stats.get(INTERACTIVE, "admitted")
        finally:
            manager.close()

    def test_session_override_param_reaches_classifier(self):
        engine, manager, __ = _managed_engine()
        try:
            with ServerThread(engine) as (host, port):
                with _client(host, port) as client:
                    client.execute("CREATE TABLE T (A INTEGER)")
                    client.execute("SET SESSION WORKLOAD = 'etl'")
                    client.execute("SEL A FROM T")
            assert manager.stats.get(ETL, "admitted") >= 1
        finally:
            manager.close()
