"""Unit tests for the observability layer (:mod:`repro.core.trace`)."""

from __future__ import annotations

import gc
import json
import threading
import weakref

import pytest

from repro.core import trace as trace_mod
from repro.core.engine import HyperQ
from repro.core.trace import (
    MetricsRegistry, Trace, TraceHub, assert_span_tree, render_trace,
    xtra_digest,
)
from repro.errors import HyperQError


class TestSpanTree:
    def test_nested_spans_form_a_tree(self):
        hub = TraceHub()
        with hub.request("request", "SEL 1") as trace:
            with trace_mod.span("outer"):
                with trace_mod.span("inner", depth=2):
                    trace_mod.add_event("tick", n=1)
        assert_span_tree(trace)
        names = trace.stage_names()
        assert names == ["request", "outer", "inner"]
        inner = trace.spans[2]
        assert inner.attrs["depth"] == 2
        assert inner.events == [("tick", {"n": 1})]

    def test_evicted_trace_is_freed_without_the_cycle_collector(self):
        hub = TraceHub(ring_size=1)
        with hub.request("request", "SEL 1") as first:
            with trace_mod.span("child"):
                pass
            straggler = trace_mod.begin_span("late")
        gone = weakref.ref(first)
        del first
        gc.disable()
        try:
            with hub.request("request", "SEL 2"):
                pass
            assert gone() is None
        finally:
            gc.enable()
        # A span that outlived its trace is inert, not an error.
        straggler.finish()
        with trace_mod.activate(straggler):
            assert trace_mod.begin_span("after") is None
            assert trace_mod.current_trace() is None

    def test_no_active_trace_means_noop(self):
        with trace_mod.span("orphan") as span:
            assert span is None
        trace_mod.add_event("dropped")  # must not raise
        assert trace_mod.current_span() is None
        assert trace_mod.current_trace() is None

    def test_exception_marks_outcome_and_propagates(self):
        hub = TraceHub()
        with pytest.raises(HyperQError):
            with hub.request("request") as trace:
                with trace_mod.span("stage"):
                    raise HyperQError("boom")
        assert trace.spans[1].outcome == "error:HyperQError"
        assert trace.spans[0].outcome == "error:HyperQError"
        assert hub.metrics.counter("hyperq_request_errors_total").value == 1

    def test_finish_clamps_open_spans(self):
        """A span abandoned mid-stream (lazy result never drained) is
        clamped to the root's end so nesting invariants still hold."""
        hub = TraceHub()
        with hub.request("request") as trace:
            dangling = trace_mod.begin_span("stream")
            assert dangling is not None
        assert dangling.end is not None
        assert dangling.outcome == "unfinished"
        assert_span_tree(trace)

    def test_finished_trace_rejects_new_spans(self):
        """A timed-out straggler must not mutate a recorded trace."""
        hub = TraceHub()
        with hub.request("request") as trace:
            root = trace_mod.current_span()
        late = trace.new_span("late", root)
        assert late is None
        with trace_mod.activate(root):
            with trace_mod.span("also-late") as span:
                assert span is None
        assert trace.stage_names() == ["request"]

    def test_cross_thread_handoff(self):
        hub = TraceHub()
        with hub.request("request") as trace:
            root = trace_mod.current_span()
            done = threading.Event()

            def work():
                with trace_mod.activate(root):
                    with trace_mod.span("worker"):
                        pass
                done.set()

            thread = threading.Thread(target=work)
            thread.start()
            assert done.wait(5)
            thread.join()
        assert "worker" in trace.stage_names()
        assert_span_tree(trace)

    def test_nested_request_is_noop(self):
        hub = TraceHub()
        with hub.request("outer") as outer:
            with hub.request("inner") as inner:
                assert inner is None
        assert len(hub.trace_ids()) == 1
        assert outer.name == "outer"

    def test_disabled_hub_traces_nothing(self):
        hub = TraceHub(enabled=False)
        with hub.request("request") as trace:
            assert trace is None
            assert trace_mod.current_span() is None
        assert hub.trace_ids() == []


class TestHubSinks:
    def test_ring_buffer_evicts_oldest(self):
        hub = TraceHub(ring_size=3)
        for i in range(5):
            with hub.request("request", f"Q{i}"):
                pass
        assert hub.trace_ids() == [3, 4, 5]
        assert hub.get_trace(1) is None
        assert hub.last_trace().sql == "Q4"

    def test_jsonl_trace_log(self, tmp_path):
        log = tmp_path / "traces.jsonl"
        hub = TraceHub(trace_log=str(log))
        with hub.request("request", "SEL 1"):
            with trace_mod.span("stage"):
                pass
        lines = log.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["sql"] == "SEL 1"
        assert [s["name"] for s in record["spans"]] == ["request", "stage"]

    def test_slow_query_log_gated_on_class_threshold(self, tmp_path):
        log = tmp_path / "slow.jsonl"
        hub = TraceHub(slow_query_log=str(log),
                       slow_thresholds={"default": 0.0, "etl": 1e9})
        with hub.request("request", "SEL SLOW") as trace:
            pass
        hub2_trace = hub.start_trace("request", "SEL FAST")
        hub.finish_trace(hub2_trace, wl_class="etl")
        assert [r["sql"] for r in hub.slow_queries] == ["SEL SLOW"]
        record = json.loads(log.read_text().splitlines()[0])
        assert record["trace_id"] == trace.trace_id
        assert hub.metrics.counter("hyperq_slow_queries_total").value == 1

    def test_dump_jsonl_round_trips(self):
        hub = TraceHub()
        for i in range(3):
            with hub.request("request", f"Q{i}"):
                pass
        dumped = [json.loads(line) for line in hub.dump_jsonl().splitlines()]
        assert [d["sql"] for d in dumped] == ["Q0", "Q1", "Q2"]

    def test_render_trace_shows_tree_and_events(self):
        hub = TraceHub()
        with hub.request("request", "SEL 1") as trace:
            with trace_mod.span("stage", bytes=12):
                trace_mod.add_event("retry", attempt=1)
        lines = render_trace(trace)
        assert lines[0].startswith(f"trace {trace.trace_id} [ok]")
        assert any("stage" in line and "bytes=12" in line for line in lines)
        assert any(line.strip().startswith("! retry") for line in lines)


class TestXtraDigest:
    def test_digest_is_stable_and_structural(self):
        class Node:
            def __init__(self, value, child=None):
                self.value = value
                self.child = child
                self._hidden = object()  # ignored: underscore-private

        a = Node(1, Node("leaf"))
        b = Node(1, Node("leaf"))
        assert xtra_digest(a) == xtra_digest(b)
        assert xtra_digest(a) != xtra_digest(Node(2, Node("leaf")))

    def test_digest_changes_when_rewrite_changes_tree(self, session):
        session.execute("CREATE TABLE T1 (A INTEGER, B DATE)")
        result = session.execute(
            "SEL A FROM T1 WHERE B > DATE '2020-01-01' ORDER BY A DESC")
        trace = session.engine.tracing.last_trace()
        rule_spans = [s for s in trace.spans if s.name.startswith("rule:")]
        assert rule_spans, "expected at least one fired rewrite rule"
        for span in rule_spans:
            assert span.attrs["before"] != span.attrs["after"]


class TestAdminCommands:
    def test_show_metrics(self, session):
        session.execute("CREATE TABLE T2 (A INTEGER)")
        result = session.execute("SHOW HYPERQ METRICS")
        text = "\n".join(row[0] for row in result.rows)
        assert "counter hyperq_requests_total" in text
        assert "histogram hyperq_request_seconds" in text

    def test_show_trace_by_id(self, session):
        session.execute("CREATE TABLE T3 (A INTEGER)")
        session.execute("INSERT INTO T3 VALUES (1)")
        trace = session.engine.tracing.last_trace()
        result = session.execute(f"SHOW HYPERQ TRACE {trace.trace_id}")
        text = "\n".join(row[0] for row in result.rows)
        assert "odbc_execute" in text
        assert "INSERT INTO T3" in text

    def test_show_trace_unknown_id(self, session):
        with pytest.raises(HyperQError, match="no trace 9999"):
            session.execute("SHOW HYPERQ TRACE 9999")

    def test_show_traces_index(self, session):
        session.execute("CREATE TABLE T4 (A INTEGER)")
        result = session.execute("SHOW HYPERQ TRACES")
        assert result.rows, "ring buffer should hold the DDL trace"

    def test_admin_commands_case_insensitive(self, session):
        result = session.execute("show hyperq metrics;")
        assert result.rows

    def test_disabled_engine_has_no_traces(self):
        engine = HyperQ(tracing=False)
        session = engine.create_session()
        session.execute("CREATE TABLE T5 (A INTEGER)")
        assert engine.tracing.trace_ids() == []
        result = session.execute("SHOW HYPERQ TRACES")
        assert result.rows == [("(no traces recorded)",)]


class TestEngineMetrics:
    def test_pipeline_metrics_recorded(self, session):
        session.execute("CREATE TABLE T6 (A INTEGER)")
        session.execute("INSERT INTO T6 VALUES (1)")
        session.execute("SEL A FROM T6")
        metrics = session.engine.tracing.metrics
        assert metrics.counter("hyperq_requests_total").value >= 3
        assert metrics.histogram("hyperq_request_seconds").count >= 3
        assert metrics.counter("hyperq_timed_requests_total").value >= 3

    def test_tracker_counters_mirrored(self, tracker, session):
        session.execute("CREATE TABLE T7 (A INTEGER)")
        session.execute("SEL A FROM T7 QUALIFY ROW_NUMBER() "
                        "OVER (ORDER BY A) = 1")
        metrics = session.engine.tracing.metrics
        assert metrics.counter("hyperq_feature_qualify_total").value == 1
        assert metrics.counter("hyperq_tracked_queries_total").value >= 1
