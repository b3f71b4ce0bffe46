"""Integration tests for the translation cache wired through the engine:
catalog-versioned invalidation, per-session volatile overlays, tracker
replay, cross-session sharing, workload replay hit rates, and cache-off
equivalence on TPC-H."""

import threading

import pytest

from repro.core.engine import HyperQ
from repro.core.tracker import FeatureTracker
from repro.errors import HyperQError
from repro.workloads import customer
from repro.workloads.tpch import queries as tpch_queries
from repro.workloads.tpch import schema as tpch_schema


@pytest.fixture
def engine():
    return HyperQ()


@pytest.fixture
def session(engine):
    s = engine.create_session()
    s.execute("CREATE MULTISET TABLE BASE "
              "(ID INTEGER, VAL DECIMAL(12,2), NAME VARCHAR(20), D DATE)")
    for i in range(1, 6):
        s.execute(f"INSERT INTO BASE VALUES "
                  f"({i}, {i}0.50, 'n{i}', DATE '2016-01-0{i}')")
    return s


def stats(engine):
    return engine.cache_stats()


class TestCacheHitBehaviour:
    def test_literal_lifting_shares_one_entry(self, engine, session):
        r7 = session.execute("SEL ID, VAL FROM BASE WHERE ID = 2")
        before = stats(engine)
        r42 = session.execute("SEL ID, VAL FROM BASE WHERE ID = 4")
        after = stats(engine)
        assert after.hits == before.hits + 1
        assert r7.rows == [(2, 20.5)]
        assert r42.rows == [(4, 40.5)]

    def test_whitespace_case_comments_share_entry(self, engine, session):
        session.execute("SELECT ID FROM BASE WHERE ID = 1")
        before = stats(engine)
        result = session.execute(
            "select  id\nFROM base -- comment\nWHERE id = 1")
        assert stats(engine).hits == before.hits + 1
        assert result.rows == [(1,)]

    def test_string_and_date_literals_splice(self, engine, session):
        session.execute("SELECT ID FROM BASE WHERE NAME = 'n1'")
        hit = session.execute("SELECT ID FROM BASE WHERE NAME = 'n3'")
        assert hit.rows == [(3,)]
        session.execute("SELECT ID FROM BASE WHERE D > DATE '2016-01-03'")
        hit = session.execute("SELECT ID FROM BASE WHERE D > DATE '2016-01-04'")
        assert sorted(hit.rows) == [(5,)]

    def test_ordinal_group_by_does_not_cross_contaminate(self, engine, session):
        by_one = session.execute(
            "SELECT ID, SUM(VAL) FROM BASE GROUP BY 1 ORDER BY 1")
        # Same shape, different ordinal target: must not reuse the template.
        by_col = session.execute(
            "SELECT ID, SUM(VAL) FROM BASE GROUP BY ID ORDER BY ID")
        assert by_one.rows == by_col.rows

    def test_parameterized_requests_cached_by_value(self, engine, session):
        first = session.execute("SELECT ID FROM BASE WHERE ID = ?", [2])
        before = stats(engine)
        same = session.execute("SELECT ID FROM BASE WHERE ID = ?", [2])
        assert stats(engine).hits == before.hits + 1
        other = session.execute("SELECT ID FROM BASE WHERE ID = ?", [3])
        assert first.rows == same.rows == [(2,)]
        assert other.rows == [(3,)]

    def test_shared_across_sessions(self, engine, session):
        session.execute("SELECT ID FROM BASE WHERE ID = 1")
        other = engine.create_session()
        before = stats(engine)
        result = other.execute("SELECT ID FROM BASE WHERE ID = 5")
        assert stats(engine).hits == before.hits + 1
        assert result.rows == [(5,)]

    def test_emulated_requests_bypass(self, engine, session):
        before = stats(engine)
        session.execute("HELP TABLE BASE")
        session.execute("HELP TABLE BASE")
        after = stats(engine)
        assert after.bypasses == before.bypasses + 2
        assert after.hits == before.hits


class TestInvalidation:
    def test_ddl_on_disjoint_table_leaves_entry(self, engine, session):
        """Per-table invalidation: DDL on a table the cached statement never
        touches must leave its entry serving hits."""
        session.execute("SELECT ID FROM BASE WHERE ID = 1")
        before = stats(engine)
        session.execute("CREATE MULTISET TABLE OTHER (X INTEGER)")
        assert stats(engine).invalidations == before.invalidations
        session.execute("SELECT ID FROM BASE WHERE ID = 1")
        assert stats(engine).hits == before.hits + 1

    def test_ddl_on_base_table_invalidates(self, engine, session):
        session.execute("SELECT ID FROM BASE WHERE ID = 1")
        before = stats(engine)
        session.execute("DROP TABLE BASE")
        assert stats(engine).invalidations > before.invalidations

    def test_replace_view_invalidates_and_refreshes(self, engine, session):
        session.execute("CREATE VIEW V AS SELECT ID FROM BASE")
        assert session.execute("SELECT * FROM V WHERE ID = 1").rows == [(1,)]
        before = stats(engine)
        session.execute("REPLACE VIEW V AS SELECT ID, VAL FROM BASE")
        assert stats(engine).invalidations > before.invalidations
        # The stale single-column translation is gone; the view's new shape
        # is what executes.
        assert session.execute("SELECT * FROM V WHERE ID = 1").rows \
            == [(1, 10.5)]

    def test_macro_redefinition_leaves_unrelated_entries(self, engine, session):
        """Redefining a macro bumps only the macro's name; cached
        translations on unrelated tables keep serving hits — and the new
        macro body is what executes."""
        session.execute("CREATE MACRO M (P1 INTEGER) AS "
                        "(SELECT ID FROM BASE WHERE ID = :P1;)")
        session.execute("SELECT ID FROM BASE WHERE ID = 2")
        before = stats(engine)
        session.execute("REPLACE MACRO M (P1 INTEGER) AS "
                        "(SELECT VAL FROM BASE WHERE ID = :P1;)")
        session.execute("SELECT ID FROM BASE WHERE ID = 2")
        assert stats(engine).hits == before.hits + 1
        assert session.execute("EXEC M (2)").rows == [(20.5,)]

    def test_volatile_create_invalidates_overlay_entries(self, engine, session):
        session.execute("CREATE VOLATILE TABLE VT (K INTEGER) "
                        "ON COMMIT PRESERVE ROWS")
        session.execute("INSERT INTO VT VALUES (5)")
        assert session.execute("SELECT K FROM VT WHERE K = 5").rows == [(5,)]
        before = stats(engine)
        session.execute("CREATE VOLATILE TABLE VT2 (K INTEGER) "
                        "ON COMMIT PRESERVE ROWS")
        assert stats(engine).invalidations > before.invalidations

    def test_volatile_drop_invalidates_overlay_entries(self, engine, session):
        session.execute("CREATE VOLATILE TABLE VT (K INTEGER) "
                        "ON COMMIT PRESERVE ROWS")
        session.execute("SELECT K FROM VT WHERE K = 1")
        before = stats(engine)
        session.execute("DROP TABLE VT")
        assert stats(engine).invalidations > before.invalidations

    def test_overlay_entries_are_private_to_their_session(self, engine, session):
        session.execute("CREATE VOLATILE TABLE PRIVATE_VT (K INTEGER) "
                        "ON COMMIT PRESERVE ROWS")
        session.execute("SELECT K FROM PRIVATE_VT WHERE K = 1")
        other = engine.create_session()
        # The other session cannot resolve the volatile name at all — and in
        # particular must not replay this session's cached translation.
        from repro.errors import HyperQError
        with pytest.raises(HyperQError):
            other.execute("SELECT K FROM PRIVATE_VT WHERE K = 1")


class TestTrackerReplay:
    def test_cached_requests_still_report_feature_incidence(self):
        engine = HyperQ(tracker=FeatureTracker())
        session = engine.create_session()
        session.execute("CREATE MULTISET TABLE BASE "
                        "(ID INTEGER, VAL DECIMAL(12,2))")
        query = ("SEL ID, VAL FROM BASE WHERE ID > 0 "
                 "QUALIFY RANK(VAL DESC) <= 3")
        session.execute(query)
        session.execute(query)
        session.execute(query)
        assert stats(engine).hits >= 2
        tracker = engine.tracker
        assert tracker.feature_query_counts["qualify"] == 3
        assert tracker.feature_query_counts["sel_shortcut"] == 3


class TestWorkloadReplay:
    def test_customer1_replay_hit_rate(self):
        """Every Customer 1 submission (Table 1: 39,731 over 3,778
        distinct texts) replayed through translate: >= 80% are hits."""
        profile = customer.PROFILES[1]
        schema, setup, distinct, freqs = customer.workload(profile)
        engine = HyperQ()
        session = engine.create_session()
        for ddl in schema + setup:
            session.execute(ddl)
        for sql, count in zip(distinct, freqs):
            for __ in range(count):
                try:
                    session.translate(sql)
                except HyperQError:
                    pass  # emulation-boundary errors count as bypasses
        replay = stats(engine)
        assert replay.hits + replay.misses + replay.bypasses \
            >= profile.total_queries
        assert replay.hit_rate >= 0.80

    def test_concurrent_sessions_share_one_cache(self):
        """Eight sessions translating TPC-H at once share one cache. A cold
        miss is not single-flight, so how many sessions miss the same query
        depends on the interleaving; what holds is that no count is lost,
        each query misses at least once, and afterwards every query hits."""
        engine = HyperQ()
        setup = engine.create_session()
        for name in tpch_schema.TABLE_NAMES:
            setup.execute(tpch_schema.SCHEMA_DDL[name])
        clients = 8

        def worker():
            session = engine.create_session()
            for sql in tpch_queries.QUERIES.values():
                session.translate(sql)

        threads = [threading.Thread(target=worker) for __ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        shared = stats(engine)
        assert shared.hits + shared.misses \
            == clients * len(tpch_queries.QUERIES)
        assert shared.misses >= len(tpch_queries.QUERIES)
        worker()
        assert stats(engine).misses == shared.misses


class TestCacheDisabled:
    def test_cache_size_zero_disables(self):
        engine = HyperQ(cache_size=0)
        assert engine.cache is None
        assert engine.cache_stats() is None
        session = engine.create_session()
        session.execute("CREATE MULTISET TABLE T (A INTEGER)")
        session.execute("INSERT INTO T VALUES (1)")
        assert session.execute("SELECT A FROM T").rows == [(1,)]

    def test_disabled_and_enabled_agree_on_tpch(self):
        """Cache-off translation is the reference; cold and warm cache-on
        translations must be bit-identical to it for all 22 queries."""

        def fresh_session(cache_size):
            engine = HyperQ(cache_size=cache_size)
            session = engine.create_session()
            for name in tpch_schema.TABLE_NAMES:
                session.execute(tpch_schema.SCHEMA_DDL[name])
            return session

        reference = fresh_session(0)
        cached = fresh_session(32 * 1024 * 1024)
        for number, sql in tpch_queries.QUERIES.items():
            expected = reference.translate(sql).statements
            cold = cached.translate(sql).statements
            warm = cached.translate(sql).statements
            assert cold == expected, f"Q{number} cold translation diverged"
            assert warm == expected, f"Q{number} warm translation diverged"
