"""End-to-end result-cache behavior through the full pipeline: zero
backend calls on a hit, per-table invalidation by DML/DDL, shareability
gating (volatile overlays, non-deterministic functions), and the
SHOW HYPERQ METRICS counters."""

import pickle

import pytest

from repro import tdf
from repro.core.budget import BatchBudget
from repro.core.cache import CacheTier
from repro.core.engine import HyperQ
from repro.protocol.encoding import RowCodec, encode_meta

CACHE_BYTES = 1 << 20


@pytest.fixture()
def engine():
    return HyperQ(result_cache_bytes=CACHE_BYTES)


@pytest.fixture()
def session(engine):
    s = engine.create_session()
    s.execute("CREATE MULTISET TABLE T (ID INTEGER, VAL DECIMAL(12,2))")
    s.execute("CREATE MULTISET TABLE OTHER (ID INTEGER)")
    s.execute("INSERT INTO T VALUES (1, 10.5)")
    s.execute("INSERT INTO T VALUES (2, 20.5)")
    s.execute("INSERT INTO OTHER VALUES (99)")
    return s


def run(session, sql, *args, **kwargs):
    result = session.execute(sql, *args, **kwargs)
    return result.rows


class TestZeroBackendCalls:
    def test_repeat_select_replays_without_executor(self, engine, session):
        first = run(session, "SELECT ID, VAL FROM T ORDER BY ID")
        executed = session.odbc.statements_executed
        second = run(session, "SELECT ID, VAL FROM T ORDER BY ID")
        # the acceptance bar: a hit performs ZERO backend executor calls
        assert session.odbc.statements_executed == executed
        assert second == first == [(1, 10.5), (2, 20.5)]
        stats = engine.result_cache_stats()
        assert stats.hits == 1 and stats.inserts == 1

    def test_hit_is_shared_across_sessions(self, engine, session):
        run(session, "SELECT ID FROM T WHERE ID = 1")
        other = engine.create_session()
        assert run(other, "SELECT ID FROM T WHERE ID = 1") == [(1,)]
        # the second session never touched its backend connection
        assert other.odbc.statements_executed == 0

    def test_rowcount_matches_live_run(self, engine, session):
        live = session.execute("SELECT ID FROM T")
        live_count = live.rowcount
        replay = session.execute("SELECT ID FROM T")
        assert replay.rowcount == live_count == 2


class TestReplayIsTheLiveReply:
    """A hit hands the wire the chunks the live run sent: byte-identical to
    the miss and to an uncached engine, with no conversion work at all."""

    SQL = "SELECT ID, VAL, D, S FROM R ORDER BY ID"

    @staticmethod
    def seeded(engine):
        s = engine.create_session()
        s.execute("CREATE MULTISET TABLE R (ID INTEGER, VAL DECIMAL(12,2), "
                  "D DATE, S VARCHAR(10))")
        s.execute("INSERT INTO R VALUES (1, 10.5, DATE '2014-01-01', 'a'), "
                  "(2, NULL, NULL, 'bb'), (3, 30.25, DATE '1999-12-31', NULL)")
        return s

    @staticmethod
    def reply(session, sql):
        """The RESULT_META payload and the RESULT_ROWS payloads."""
        result = session.execute(sql)
        try:
            return encode_meta(result.metas), list(result.iter_chunks())
        finally:
            result.close()

    def test_hit_bytes_equal_miss_and_uncached_run(self, monkeypatch):
        budget = BatchBudget(batch_rows=2)
        cached = self.seeded(HyperQ(result_cache_bytes=CACHE_BYTES,
                                    batch_budget=budget))
        miss = self.reply(cached, self.SQL)

        def trapped(*args, **kwargs):
            raise AssertionError("conversion on a result-cache hit")

        with monkeypatch.context() as patch:
            patch.setattr(RowCodec, "encode", trapped)
            patch.setattr(tdf, "decode_batch", trapped)
            hit = self.reply(cached, self.SQL)
        assert cached.engine.result_cache_stats().hits == 1
        uncached = self.reply(self.seeded(HyperQ(batch_budget=budget)),
                              self.SQL)
        assert hit == miss == uncached
        assert len(miss[1]) == 2  # two batches, two chunks


class TestInvalidation:
    def test_dml_on_other_table_preserves_entry(self, engine, session):
        run(session, "SELECT ID, VAL FROM T ORDER BY ID")
        run(session, "SELECT ID, VAL FROM T ORDER BY ID")  # warm + proven hit
        before = engine.result_cache_stats()
        session.execute("INSERT INTO OTHER VALUES (100)")
        rows = run(session, "SELECT ID, VAL FROM T ORDER BY ID")
        after = engine.result_cache_stats()
        assert after.hits == before.hits + 1
        assert after.invalidations == before.invalidations
        assert rows == [(1, 10.5), (2, 20.5)]

    def test_dml_on_dependency_serves_fresh_rows(self, engine, session):
        run(session, "SELECT ID, VAL FROM T ORDER BY ID")
        session.execute("INSERT INTO T VALUES (3, 30.5)")
        rows = run(session, "SELECT ID, VAL FROM T ORDER BY ID")
        assert rows == [(1, 10.5), (2, 20.5), (3, 30.5)]
        assert engine.result_cache_stats().invalidations >= 1

    def test_update_invalidates(self, engine, session):
        run(session, "SELECT VAL FROM T WHERE ID = 1")
        session.execute("UPDATE T SET VAL = 99.5 WHERE ID = 1")
        assert run(session, "SELECT VAL FROM T WHERE ID = 1") == [(99.5,)]

    def test_delete_invalidates(self, engine, session):
        run(session, "SELECT ID FROM T ORDER BY ID")
        session.execute("DELETE FROM T WHERE ID = 2")
        assert run(session, "SELECT ID FROM T ORDER BY ID") == [(1,)]

    def test_ddl_drop_invalidates(self, engine, session):
        run(session, "SELECT ID FROM OTHER")
        session.execute("DROP TABLE OTHER")
        session.execute("CREATE MULTISET TABLE OTHER (ID INTEGER)")
        assert run(session, "SELECT ID FROM OTHER") == []

    def test_view_entry_invalidated_by_base_table_dml(self, engine, session):
        session.execute("CREATE VIEW V AS SELECT ID FROM T")
        run(session, "SELECT ID FROM V ORDER BY ID")
        session.execute("INSERT INTO T VALUES (7, 70.5)")
        assert (7,) in run(session, "SELECT ID FROM V ORDER BY ID")


class TestRepeatedDml:
    """DML whose *translation* is served from the translation cache skips
    binding — it must still invalidate what it wrote."""

    def test_cached_update_still_invalidates(self, engine):
        s = engine.create_session()
        s.execute("CREATE MULTISET TABLE W (A INTEGER, B INTEGER)")
        s.execute("INSERT INTO W VALUES (1, 10)")
        assert run(s, "SEL B FROM W") == [(10,)]
        s.execute("UPDATE W SET B = B + 1 WHERE A = 1")
        assert run(s, "SEL B FROM W") == [(11,)]
        hits = engine.cache_stats().hits
        s.execute("UPDATE W SET B = B + 1 WHERE A = 1")
        assert engine.cache_stats().hits == hits + 1  # the path under test
        assert run(s, "SEL B FROM W") == [(12,)]

    def test_cached_update_with_other_literals(self, engine, session):
        """The templated entry (literals lifted out) carries them too."""
        for value in (5, 6, 7):
            session.execute(f"UPDATE OTHER SET ID = {value}")
            assert run(session, "SELECT ID FROM OTHER") == [(value,)]

    def test_cached_delete_still_invalidates(self, engine, session):
        for __ in range(2):  # the second DELETE is a translation hit
            session.execute("INSERT INTO T VALUES (5, 50.5)")
            assert (5,) in run(session, "SELECT ID FROM T ORDER BY ID")
            session.execute("DELETE FROM T WHERE ID = 5")
            assert run(session, "SELECT ID FROM T ORDER BY ID") \
                == [(1,), (2,)]

    def test_repeated_merge_still_invalidates(self, engine, session):
        session.execute("CREATE MULTISET TABLE SRC (ID INTEGER, "
                        "VAL DECIMAL(12,2))")
        merge = ("MERGE INTO T USING SRC ON T.ID = SRC.ID "
                 "WHEN MATCHED THEN UPDATE SET VAL = SRC.VAL "
                 "WHEN NOT MATCHED THEN INSERT (ID, VAL) "
                 "VALUES (SRC.ID, SRC.VAL)")
        for ident, value in ((1, 11.5), (3, 33.5)):
            session.execute(f"INSERT INTO SRC VALUES ({ident}, {value})")
            run(session, "SELECT ID, VAL FROM T ORDER BY ID")  # cache it
            session.execute(merge)
            assert (ident, value) in run(
                session, "SELECT ID, VAL FROM T ORDER BY ID")

    def test_write_tables_travel_through_the_shared_tier(self):
        """A worker that adopts another worker's UPDATE translation from
        the L2 tier (pickled, as over the cache-service RPC) invalidates."""
        class PickledTier(CacheTier):
            def __init__(self):
                self.blobs = {}

            def get(self, key):
                blob = self.blobs.get(key)
                return pickle.loads(blob) if blob is not None else None

            def put(self, key, entry):
                self.blobs[key] = pickle.dumps(entry)

            def invalidate_tables(self, names):
                pass

        tier = PickledTier()
        sessions = []
        for __ in range(2):
            engine = HyperQ(result_cache_bytes=CACHE_BYTES, cache_tier=tier)
            s = engine.create_session()
            s.execute("CREATE MULTISET TABLE W (A INTEGER, B INTEGER)")
            s.execute("INSERT INTO W VALUES (1, 10)")
            sessions.append(s)
        first, second = sessions
        first.execute("UPDATE W SET B = B + 1 WHERE A = 1")  # fills the tier
        assert run(second, "SEL B FROM W") == [(10,)]
        second.execute("UPDATE W SET B = B + 1 WHERE A = 1")
        assert second.engine.cache_stats().tier_hits == 1
        assert run(second, "SEL B FROM W") == [(11,)]

    @pytest.mark.parametrize("batching", [False, True])
    def test_repeated_script_dml_still_invalidates(self, batching):
        engine = HyperQ(result_cache_bytes=CACHE_BYTES, dml_batching=batching)
        s = engine.create_session()
        s.execute("CREATE MULTISET TABLE W (A INTEGER, B INTEGER)")
        script = ("INSERT INTO W VALUES (1, 10); INSERT INTO W VALUES (2, 20);"
                  " UPDATE W SET B = B + 1 WHERE A = 1")
        for expected in (31, 63):
            s.execute_script(script)
            assert run(s, "SEL SUM(B) FROM W") == [(expected,)]


class TestShareabilityGates:
    def test_volatile_overlay_session_bypasses(self, engine, session):
        overlay = engine.create_session()
        overlay.execute("CREATE VOLATILE TABLE SCRATCH (K INTEGER) "
                        "ON COMMIT PRESERVE ROWS")
        before = engine.result_cache_stats()
        run(overlay, "SELECT ID FROM T WHERE ID = 1")
        run(overlay, "SELECT ID FROM T WHERE ID = 1")
        after = engine.result_cache_stats()
        # the overlay session never consults nor populates the shared cache
        assert after.inserts == before.inserts
        assert after.hits == before.hits
        # a clean session still shares normally
        run(session, "SELECT ID FROM T WHERE ID = 1")
        run(session, "SELECT ID FROM T WHERE ID = 1")
        assert engine.result_cache_stats().hits == after.hits + 1

    def test_niladic_date_never_cached(self, engine, session):
        before = engine.result_cache_stats().inserts
        run(session, "SELECT ID FROM T WHERE DATE >= DATE")
        run(session, "SELECT ID FROM T WHERE DATE >= DATE")
        assert engine.result_cache_stats().inserts == before

    def test_distinct_literals_are_distinct_entries(self, engine, session):
        assert run(session, "SELECT VAL FROM T WHERE ID = 1") == [(10.5,)]
        assert run(session, "SELECT VAL FROM T WHERE ID = 2") == [(20.5,)]
        # repeat both — each should hit its own entry, never cross over
        assert run(session, "SELECT VAL FROM T WHERE ID = 1") == [(10.5,)]
        assert run(session, "SELECT VAL FROM T WHERE ID = 2") == [(20.5,)]
        assert engine.result_cache_stats().hits == 2

    def test_parameter_values_key_entries(self, engine, session):
        assert run(session, "SELECT VAL FROM T WHERE ID = ?", [1]) == [(10.5,)]
        assert run(session, "SELECT VAL FROM T WHERE ID = ?", [2]) == [(20.5,)]
        assert run(session, "SELECT VAL FROM T WHERE ID = ?", [1]) == [(10.5,)]

    def test_disabled_engine_has_no_result_cache(self):
        engine = HyperQ()
        assert engine.result_cache is None
        assert engine.result_cache_stats() is None


class TestObservability:
    def test_metrics_counters_exposed(self, engine, session):
        run(session, "SELECT ID FROM T")
        run(session, "SELECT ID FROM T")
        session.execute("INSERT INTO T VALUES (5, 50.5)")
        result = session.execute("SHOW HYPERQ METRICS")
        text = "\n".join(row[0] for row in result.rows)
        assert "hyperq_result_cache_hits_total 1" in text
        assert "hyperq_result_cache_inserts_total 1" in text
        assert "hyperq_result_cache_invalidations_total 1" in text

    def test_trace_contains_result_cache_span(self, engine, session):
        run(session, "SELECT ID FROM T")
        run(session, "SELECT ID FROM T")
        hub = engine.tracing
        spans = []
        for trace_id in hub.trace_ids():
            trace = hub.get_trace(trace_id)
            if trace is not None:
                spans.extend(span.name for _, span in trace.walk())
        assert "result_cache" in spans
        assert "dependency_extract" in spans
