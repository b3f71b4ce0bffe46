"""Integration tests for the Hyper-Q engine pipeline as a whole: data path
fidelity, timing instrumentation, multi-target translation, transactions."""

import datetime
import tracemalloc

import pytest

from repro import virtualize
from repro.core import timing as timing_mod
from repro.core.budget import BatchBudget
from repro.core.engine import HyperQ
from repro.protocol.encoding import CODE_DATE
from repro.transform.capabilities import HYPERION_PLUS, cloud_profiles
from repro.workloads.features import FEATURES_BY_NAME


class TestDataPath:
    def test_results_flow_through_binary_conversion(self, sales_session):
        result = sales_session.execute("SEL PRODUCT_NAME, SALES_DATE "
                                       "FROM SALES WHERE STORE = 1 ORDER BY 1")
        # Metas exist (the converted wire representation) and dates use the
        # Teradata internal encoding on the wire.
        date_meta = next(m for m in result.metas if m.name == "SALES_DATE")
        assert date_meta.code == CODE_DATE
        assert result.rows[0] == ("alpha", datetime.date(2015, 2, 3))
        result.close()

    def test_rowcount_matches_converted_payload(self, sales_session):
        result = sales_session.execute("SEL * FROM SALES")
        assert result.rowcount == 5
        assert len(result.rows) == 5

    def test_timing_split_populated(self, sales_session):
        result = sales_session.execute("SEL COUNT(*) FROM SALES")
        timing = result.timing
        assert timing.translation > 0
        assert timing.execution > 0
        assert timing.result_conversion > 0

    def test_timing_log_does_not_grow_per_statement(self):
        """A long-running engine's timing log keeps sums and counts, not
        one record per statement."""
        engine = HyperQ(tracing=False)
        session = engine.create_session()
        tracemalloc.start()
        try:
            for __ in range(5000):
                session.execute("BT").close()
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, timing_mod.__file__)])
        finally:
            tracemalloc.stop()
        assert sum(stat.size
                   for stat in snapshot.statistics("filename")) < 1024
        assert engine.timing_log.count == 5000

    def test_target_sql_recorded(self, sales_session):
        result = sales_session.execute("SEL STORE FROM SALES")
        assert len(result.target_sql) == 1
        assert result.target_sql[0].startswith("SELECT")


class TestTranslateOnly:
    def test_translate_does_not_execute(self, sales_session):
        before = sales_session.execute("SEL COUNT(*) FROM SALES").rows
        sales_session.translate("DEL FROM SALES")
        after = sales_session.execute("SEL COUNT(*) FROM SALES").rows
        assert before == after

    def test_translate_reports_emulated_feature(self, sales_session):
        sales_session.execute("CREATE MACRO TM AS (SEL 1 FROM SALES;)")
        translation = sales_session.translate("EXEC TM")
        assert translation.kind == "emulated"
        assert translation.emulated_feature == "macro"

    def test_translate_noop_statements(self, sales_session):
        assert sales_session.translate(
            "COLLECT STATISTICS ON SALES").kind == "ok"


class TestMultiTargetTranslation:
    DDL = ("CREATE MULTISET TABLE T_MT (A INTEGER, B VARCHAR(10), D DATE)")

    @pytest.mark.parametrize("profile", [p.name for p in cloud_profiles()])
    def test_same_query_translates_for_every_cloud_profile(self, profile):
        engine = HyperQ(target=profile)
        session = engine.create_session()
        from repro.xtra import types as t
        from repro.xtra.schema import ColumnSchema, TableSchema

        engine.shadow.add_table(TableSchema("T_MT", [
            ColumnSchema("A", t.INTEGER),
            ColumnSchema("B", t.varchar(10)),
            ColumnSchema("D", t.DATE),
        ]))
        translation = session.translate(
            "SEL A, ZEROIFNULL(A) FROM T_MT WHERE D > 1140101 ORDER BY 1")
        assert translation.kind == "sql"
        (sql,) = translation.statements
        assert "SELECT" in sql
        assert "1140101" in sql  # comparison value survives

    def test_merge_native_on_capable_target(self):
        engine = HyperQ(target=HYPERION_PLUS)
        session = engine.create_session()
        session.execute("CREATE TABLE TGT (ID INTEGER, V INTEGER)")
        session.execute("CREATE TABLE SRC (ID INTEGER, V INTEGER)")
        session.execute("INSERT INTO TGT VALUES (1, 10)")
        session.execute("INSERT INTO SRC VALUES (1, 99), (2, 42)")
        result = session.execute(
            "MERGE INTO TGT USING SRC ON TGT.ID = SRC.ID "
            "WHEN MATCHED THEN UPDATE SET V = SRC.V "
            "WHEN NOT MATCHED THEN INSERT (ID, V) VALUES (SRC.ID, SRC.V)")
        # One target statement: native MERGE, not UPDATE+INSERT emulation.
        assert len(result.target_sql) == 1
        assert result.target_sql[0].startswith("MERGE INTO")
        assert session.execute("SEL V FROM TGT WHERE ID = 1").rows == [(99,)]

    def test_recursive_native_on_capable_target(self, tracker):
        engine = HyperQ(target=HYPERION_PLUS, tracker=tracker)
        session = engine.create_session()
        session.execute("CREATE TABLE EDGE (SRC INTEGER, DST INTEGER)")
        session.execute("INSERT INTO EDGE VALUES (1, 2), (2, 3)")
        result = session.execute(
            "WITH RECURSIVE R (N) AS (SELECT SRC FROM EDGE WHERE SRC = 1 "
            "UNION ALL SELECT DST FROM EDGE, R WHERE EDGE.SRC = R.N) "
            "SELECT N FROM R ORDER BY N")
        assert [row[0] for row in result.rows] == [1, 2, 3]
        assert len(result.target_sql) == 1  # served natively in one request
        assert "recursive_query" not in tracker.features_seen()


class TestTransactions:
    def test_bt_et_flow(self, sales_session):
        assert sales_session.execute("BT").kind == "ok"
        sales_session.execute("DEL FROM SALES WHERE STORE = 3")
        assert sales_session.execute("ET").kind == "ok"
        assert sales_session.execute("SEL COUNT(*) FROM SALES").rows == [(4,)]


class TestTrackedStageConsistency:
    """Table 2: each feature's observed pipeline stage matches the component
    the registry declares."""

    _STAGE_OF_COMPONENT = {
        "Parser": "parser",
        "Binder": "binder",
        "Transformer": "transformer",
        "Serializer": "serializer",
        "Emulator": "emulator",
    }

    PROBES = {
        "sel_shortcut": "SEL 1 FROM SALES",
        "ne_operator": "SEL 1 FROM SALES WHERE STORE ^= 1",
        "mod_operator": "SEL STORE MOD 2 FROM SALES",
        "zeroifnull": "SEL ZEROIFNULL(AMOUNT) FROM SALES",
        "chars_function": "SEL CHARS(PRODUCT_NAME) FROM SALES",
        "index_function": "SEL INDEX(PRODUCT_NAME, 'a') FROM SALES",
        "qualify": "SEL STORE FROM SALES QUALIFY RANK(AMOUNT DESC) <= 1",
        "named_expression": "SEL AMOUNT AS X, X + 1 FROM SALES",
        "ordinal_group_by": "SEL STORE, COUNT(*) FROM SALES GROUP BY 1",
        "date_arithmetic": "SEL SALES_DATE + 1 FROM SALES",
        "date_int_comparison": "SEL 1 FROM SALES WHERE SALES_DATE > 1140101",
        "vector_subquery": ("SEL 1 FROM SALES WHERE (AMOUNT, AMOUNT) > "
                            "ANY (SEL GROSS, NET FROM SALES_HISTORY)"),
        "null_ordering": "SEL STORE FROM SALES ORDER BY STORE",
        "grouping_extensions": ("SEL STORE, COUNT(*) FROM SALES "
                                "GROUP BY ROLLUP (STORE)"),
        "help_command": "HELP SESSION",
    }

    @pytest.mark.parametrize("feature", sorted(PROBES))
    def test_observed_stage_matches_registry(self, sales_session, tracker,
                                             feature):
        sales_session.execute(self.PROBES[feature])
        assert feature in tracker.observed_stages, feature
        declared = FEATURES_BY_NAME[feature].component.value
        assert tracker.observed_stages[feature] == \
            self._STAGE_OF_COMPONENT[declared]


class TestSpillThroughFullPipeline:
    """Section 4.6: when the buffered result exceeds the memory budget, the
    Result Converter spills to disk and replays for the wire."""

    def test_large_result_spills_and_replays(self, tmp_path):
        engine = HyperQ(batch_budget=BatchBudget(max_memory_bytes=2048),
                        spill_dir=str(tmp_path))
        session = engine.create_session()
        session.execute("CREATE TABLE BIGR (N INTEGER, PAD VARCHAR(80))")
        values = ", ".join(f"({i}, '{'y' * 70}')" for i in range(1500))
        session.execute(f"INSERT INTO BIGR VALUES {values}")
        result = session.execute("SEL N FROM BIGR ORDER BY N")
        assert result.converted is not None
        assert result.converted.store is not None
        assert result.converted.store.spilled
        rows = result.rows
        assert len(rows) == 1500
        assert rows[0] == (0,) and rows[-1] == (1499,)
        result.close()
        assert not any(tmp_path.iterdir())  # spill file cleaned up

    def test_small_results_stay_in_memory(self, tmp_path):
        engine = HyperQ(
            batch_budget=BatchBudget(max_memory_bytes=1024 * 1024),
            spill_dir=str(tmp_path))
        session = engine.create_session()
        session.execute("CREATE TABLE SMALLR (N INTEGER)")
        session.execute("INSERT INTO SMALLR VALUES (1), (2)")
        result = session.execute("SEL N FROM SMALLR")
        assert result.converted.store is not None
        assert not result.converted.store.spilled
        result.close()


class TestViewsOnViews:
    def test_nested_view_expansion(self, sales_session):
        sales_session.execute(
            "CREATE VIEW V_BASE AS SEL PRODUCT_NAME, STORE, AMOUNT "
            "FROM SALES WHERE AMOUNT > 30")
        sales_session.execute(
            "CREATE VIEW V_TOP AS SEL PRODUCT_NAME FROM V_BASE "
            "WHERE STORE = 1")
        result = sales_session.execute("SEL * FROM V_TOP ORDER BY 1")
        assert [row[0] for row in result.rows] == ["alpha", "beta"]
