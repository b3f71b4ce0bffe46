"""Each request is accounted once, with tracing on and off (Figure 9).

A request leaves one record in ``engine.timing_log`` and a
:class:`~repro.core.timing.RequestTiming` on its result whose non-zero
stages name the work it did: translation-cache hits skip translation,
result-cache replays skip execution, and the statements an emulator issues
(recursive CTE loops, macro bodies) charge the request that ran them.
"""

from __future__ import annotations

import pytest

from repro.core.engine import HyperQ
from repro.core.timing import STAGES

SETUP = (
    "CREATE TABLE T (A INTEGER, B INTEGER)",
    "INSERT INTO T VALUES (1, 10)",
    "INSERT INTO T VALUES (2, 20)",
    "CREATE MACRO M1 (X INTEGER) AS (SEL B FROM T WHERE A = :X;)",
)

#: The stages a live query on a cold translation cache spends time in.
COLD_QUERY = {"cache_lookup", "translation", "dependency_extract",
              "execution", "result_conversion"}


def _stages(result) -> set[str]:
    return {stage for stage in STAGES if getattr(result.timing, stage) > 0.0}


@pytest.fixture(params=[True, False], ids=["traced", "untraced"])
def tracing(request):
    return request.param


def _session(tracing: bool, **options):
    engine = HyperQ(tracing=tracing, **options)
    session = engine.create_session()
    for sql in SETUP:
        session.execute(sql)
    return engine, session


def _run(engine, session, sql: str):
    """Execute *sql*, drain its rows, and check it was recorded once."""
    before = engine.timing_log.count
    result = session.execute(sql)
    rows = result.rows
    assert engine.timing_log.count == before + 1
    return result, rows


class TestRequestAccounting:
    def test_plain_query(self, tracing):
        engine, session = _session(tracing)
        result, rows = _run(engine, session, "SEL A, B FROM T WHERE A = 1")
        assert rows == [(1, 10)]
        assert _stages(result) == COLD_QUERY
        assert result.timing.first_row > 0.0

    def test_translation_cache_hit(self, tracing):
        engine, session = _session(tracing)
        _run(engine, session, "SEL A, B FROM T WHERE A = 1")
        hits = engine.cache_stats().hits
        result, rows = _run(engine, session, "SEL A, B FROM T WHERE A = 2")
        assert engine.cache_stats().hits == hits + 1
        assert rows == [(2, 20)]
        assert _stages(result) == {"cache_lookup", "execution",
                                   "result_conversion"}

    def test_result_cache_replay(self, tracing):
        engine, session = _session(tracing, result_cache_bytes=1 << 20)
        _run(engine, session, "SEL A, B FROM T WHERE A = 1")
        statements = session.odbc.statements_executed
        result, rows = _run(engine, session, "SEL A, B FROM T WHERE A = 1")
        assert session.odbc.statements_executed == statements  # replayed
        assert rows == [(1, 10)]
        assert _stages(result) == {"cache_lookup", "dependency_extract"}
        assert result.timing.first_row > 0.0

    def test_emulated_recursive_cte(self, tracing):
        engine, session = _session(tracing)  # hyperion: no WITH RECURSIVE
        statements = session.odbc.statements_executed
        result, rows = _run(
            engine, session,
            "WITH RECURSIVE R (N) AS (SEL A FROM T WHERE A = 1 "
            "UNION ALL SEL R.N + 1 FROM R WHERE R.N < 3) "
            "SEL N FROM R ORDER BY N")
        assert rows == [(1,), (2,), (3,)]
        assert session.odbc.statements_executed - statements > 1
        assert _stages(result) == COLD_QUERY

    def test_exec_macro(self, tracing):
        engine, session = _session(tracing)
        result, rows = _run(engine, session, "EXEC M1(2)")
        assert rows == [(20,)]
        assert _stages(result) == COLD_QUERY

    def test_script_with_dml_batching(self, tracing):
        engine, session = _session(tracing, dml_batching=True)
        before = engine.timing_log.count
        results = session.execute_script(
            "INSERT INTO T VALUES (3, 30); INSERT INTO T VALUES (4, 40); "
            "INSERT INTO T VALUES (5, 50); SEL COUNT(*) FROM T;")
        # The three single-row INSERTs run as one batched statement.
        assert len(results) == 2
        assert engine.timing_log.count == before + len(results)
        assert results[0].rowcount == 3
        assert results[1].rows == [(5,)]
        assert _stages(results[0]) == {"translation", "execution"}
        assert _stages(results[1]) == {"translation", "execution",
                                       "result_conversion"}

    def test_stage_sums_reach_the_log(self, tracing):
        """Stage time spent while the client drains the stream still lands
        in the log after the request was recorded."""
        engine, session = _session(tracing)
        result = session.execute("SEL A, B FROM T")
        recorded = engine.timing_log.result_conversion
        assert result.rows == [(1, 10), (2, 20)]
        assert engine.timing_log.result_conversion > recorded
