"""Unit tests for the backend SQL engine: parsing, planning, execution.

These drive the backend through its public SQL interface — the same way the
Hyper-Q serializer output reaches it.
"""

import datetime

import pytest

from repro.errors import BackendError, CatalogError, HyperQError, ParseError
from repro.backend import Database
from repro.transform.capabilities import HYPERION_PLUS


@pytest.fixture
def db(backend_session):
    s = backend_session
    s.execute("CREATE TABLE NUMS (N INTEGER, LABEL VARCHAR(10), F DOUBLE PRECISION)")
    s.execute("INSERT INTO NUMS VALUES (1, 'one', 1.5), (2, 'two', 2.5), "
              "(3, 'three', 3.5), (NULL, 'none', NULL)")
    return s


class TestSelectBasics:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM NUMS ORDER BY N")
        assert result.columns == ["N", "LABEL", "F"]
        assert result.rowcount == 4

    def test_projection_aliases(self, db):
        result = db.execute("SELECT N * 2 AS DOUBLED FROM NUMS WHERE N = 2")
        assert result.columns == ["DOUBLED"]
        assert result.rows == [(4,)]

    def test_where_null_comparison_filters_row(self, db):
        result = db.execute("SELECT LABEL FROM NUMS WHERE N > 0")
        assert len(result.rows) == 3  # NULL row never qualifies

    def test_is_null_predicate(self, db):
        result = db.execute("SELECT LABEL FROM NUMS WHERE N IS NULL")
        assert result.rows == [("none",)]

    def test_select_without_from(self, db):
        result = db.execute("SELECT 1 + 2 AS X")
        assert result.rows == [(3,)]

    def test_distinct(self, db):
        db.execute("INSERT INTO NUMS VALUES (1, 'one', 1.5)")
        result = db.execute("SELECT DISTINCT N, LABEL FROM NUMS WHERE N = 1")
        assert result.rowcount == 1

    def test_limit_and_offset(self, db):
        result = db.execute("SELECT N FROM NUMS WHERE N IS NOT NULL "
                            "ORDER BY N LIMIT 2 OFFSET 1")
        assert result.rows == [(2,), (3,)]

    def test_between_and_in(self, db):
        result = db.execute("SELECT N FROM NUMS WHERE N BETWEEN 2 AND 3 "
                            "AND LABEL IN ('two', 'three') ORDER BY N")
        assert result.rows == [(2,), (3,)]

    def test_case_expression(self, db):
        result = db.execute(
            "SELECT CASE WHEN N >= 2 THEN 'big' ELSE 'small' END AS SIZE "
            "FROM NUMS WHERE N IS NOT NULL ORDER BY N")
        assert [row[0] for row in result.rows] == ["small", "big", "big"]


class TestOrderBy:
    def test_order_by_ordinal(self, db):
        result = db.execute("SELECT LABEL, N FROM NUMS WHERE N IS NOT NULL "
                            "ORDER BY 2 DESC")
        assert [row[1] for row in result.rows] == [3, 2, 1]

    def test_nulls_last_default(self, db):
        result = db.execute("SELECT N FROM NUMS ORDER BY N")
        assert result.rows[-1] == (None,)

    def test_explicit_nulls_first(self, db):
        result = db.execute("SELECT N FROM NUMS ORDER BY N ASC NULLS FIRST")
        assert result.rows[0] == (None,)

    def test_order_by_expression_not_in_select(self, db):
        result = db.execute("SELECT LABEL FROM NUMS WHERE N IS NOT NULL "
                            "ORDER BY F DESC")
        assert [row[0] for row in result.rows] == ["three", "two", "one"]

    def test_order_by_alias(self, db):
        result = db.execute("SELECT N * -1 AS NEG FROM NUMS "
                            "WHERE N IS NOT NULL ORDER BY NEG")
        assert [row[0] for row in result.rows] == [-3, -2, -1]


class TestPadSpace:
    """Trailing blanks are insignificant in comparisons; other trailing
    whitespace (tab, newline) is data."""

    @pytest.fixture
    def padded(self, backend_session):
        s = backend_session
        s.execute("CREATE TABLE T (A VARCHAR(5), N INTEGER)")
        s.execute("INSERT INTO T VALUES ('a',1),('a\t',2),('a\n',3),('a ',4)")
        s.execute("CREATE TABLE K (A VARCHAR(5))")
        s.execute("INSERT INTO K VALUES ('a')")
        return s

    def test_where(self, padded):
        result = padded.execute("SELECT N FROM T WHERE A = 'a' ORDER BY N")
        assert result.rows == [(1,), (4,)]

    def test_distinct_and_group_by(self, padded):
        assert padded.execute("SELECT DISTINCT A FROM T").rowcount == 3
        result = padded.execute("SELECT COUNT(*) FROM T GROUP BY A ORDER BY 1")
        assert result.rows == [(1,), (1,), (2,)]

    def test_order_by(self, padded):
        result = padded.execute("SELECT N FROM T ORDER BY A, N")
        assert result.rows == [(1,), (4,), (2,), (3,)]

    def test_hash_join_and_semi_join(self, padded):
        joined = padded.execute("SELECT T.N FROM T JOIN K ON T.A = K.A "
                                "ORDER BY T.N")
        assert joined.rows == [(1,), (4,)]
        for i in range(10):  # enough outer rows to decorrelate
            padded.execute(f"INSERT INTO T VALUES ('b', {10 + i})")
        semi = padded.execute("SELECT N FROM T WHERE EXISTS "
                              "(SELECT 1 FROM K WHERE K.A = T.A) ORDER BY N")
        assert semi.rows == [(1,), (4,)]


class TestAggregation:
    def test_global_aggregate(self, db):
        result = db.execute("SELECT COUNT(*), COUNT(N), SUM(N), AVG(N), "
                            "MIN(N), MAX(N) FROM NUMS")
        assert result.rows == [(4, 3, 6, 2.0, 1, 3)]

    def test_global_aggregate_over_empty_input(self, db):
        result = db.execute("SELECT COUNT(*), SUM(N) FROM NUMS WHERE N > 99")
        assert result.rows == [(0, None)]

    def test_group_by_with_having(self, backend_session):
        s = backend_session
        s.execute("CREATE TABLE G (K INTEGER, V INTEGER)")
        s.execute("INSERT INTO G VALUES (1, 10), (1, 20), (2, 5), (3, 1), (3, 2)")
        result = s.execute("SELECT K, SUM(V) AS TOTAL FROM G GROUP BY K "
                           "HAVING SUM(V) > 4 ORDER BY K")
        assert result.rows == [(1, 30), (2, 5)]

    def test_aggregate_of_expression(self, db):
        result = db.execute("SELECT SUM(N * F) FROM NUMS")
        assert result.rows == [(1 * 1.5 + 2 * 2.5 + 3 * 3.5,)]

    def test_group_by_expression_reused_in_select(self, db):
        result = db.execute(
            "SELECT N % 2 AS PARITY, COUNT(*) FROM NUMS WHERE N IS NOT NULL "
            "GROUP BY N % 2 ORDER BY 1")
        assert result.rows == [(0, 1), (1, 2)]

    def test_count_distinct(self, db):
        db.execute("INSERT INTO NUMS VALUES (1, 'uno', 9.9)")
        result = db.execute("SELECT COUNT(DISTINCT N) FROM NUMS")
        assert result.rows == [(3,)]

    def test_having_without_group_by_rejected_without_aggregate(self, db):
        with pytest.raises(HyperQError):
            db.execute("SELECT N FROM NUMS HAVING N > 1")

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(HyperQError):
            db.execute("SELECT N FROM NUMS WHERE SUM(N) > 1")


class TestJoins:
    @pytest.fixture
    def joined(self, backend_session):
        s = backend_session
        s.execute("CREATE TABLE L (ID INTEGER, V VARCHAR(5))")
        s.execute("CREATE TABLE R (ID INTEGER, W VARCHAR(5))")
        s.execute("INSERT INTO L VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        s.execute("INSERT INTO R VALUES (2, 'x'), (3, 'y'), (4, 'z')")
        return s

    def test_inner_join(self, joined):
        result = joined.execute(
            "SELECT L.V, R.W FROM L JOIN R ON L.ID = R.ID ORDER BY L.ID")
        assert result.rows == [("b", "x"), ("c", "y")]

    def test_left_join_null_extends(self, joined):
        result = joined.execute(
            "SELECT L.V, R.W FROM L LEFT JOIN R ON L.ID = R.ID ORDER BY L.ID")
        assert result.rows == [("a", None), ("b", "x"), ("c", "y")]

    def test_right_join(self, joined):
        result = joined.execute(
            "SELECT L.V, R.W FROM L RIGHT JOIN R ON L.ID = R.ID ORDER BY R.ID")
        assert result.rows == [("b", "x"), ("c", "y"), (None, "z")]

    def test_full_join(self, joined):
        result = joined.execute(
            "SELECT L.V, R.W FROM L FULL JOIN R ON L.ID = R.ID")
        assert len(result.rows) == 4

    def test_cross_join(self, joined):
        result = joined.execute("SELECT COUNT(*) FROM L CROSS JOIN R")
        assert result.rows == [(9,)]

    def test_comma_join_with_where(self, joined):
        result = joined.execute(
            "SELECT L.V FROM L, R WHERE L.ID = R.ID AND R.W = 'y'")
        assert result.rows == [("c",)]

    def test_join_with_residual_predicate(self, joined):
        result = joined.execute(
            "SELECT L.V FROM L JOIN R ON L.ID = R.ID AND R.W <> 'x' ")
        assert result.rows == [("c",)]

    def test_null_join_keys_never_match(self, joined):
        joined.execute("INSERT INTO L VALUES (NULL, 'n')")
        joined.execute("INSERT INTO R VALUES (NULL, 'm')")
        result = joined.execute(
            "SELECT COUNT(*) FROM L JOIN R ON L.ID = R.ID")
        assert result.rows == [(2,)]

    def test_ambiguous_column_rejected(self, joined):
        with pytest.raises(HyperQError):
            joined.execute("SELECT ID FROM L JOIN R ON L.ID = R.ID")


class TestWindowFunctions:
    @pytest.fixture
    def scores(self, backend_session):
        s = backend_session
        s.execute("CREATE TABLE SCORES (TEAM VARCHAR(2), PTS INTEGER)")
        s.execute("INSERT INTO SCORES VALUES ('a', 10), ('a', 20), ('a', 20), "
                  "('b', 5), ('b', 15)")
        return s

    def test_rank_with_ties(self, scores):
        result = scores.execute(
            "SELECT PTS, RANK() OVER (ORDER BY PTS DESC) AS R FROM SCORES "
            "WHERE TEAM = 'a' ORDER BY R, PTS")
        assert result.rows == [(20, 1), (20, 1), (10, 3)]

    def test_dense_rank(self, scores):
        result = scores.execute(
            "SELECT PTS, DENSE_RANK() OVER (ORDER BY PTS DESC) AS R "
            "FROM SCORES WHERE TEAM = 'a' ORDER BY R, PTS")
        assert result.rows == [(20, 1), (20, 1), (10, 2)]

    def test_row_number_partitioned(self, scores):
        result = scores.execute(
            "SELECT TEAM, PTS, ROW_NUMBER() OVER (PARTITION BY TEAM "
            "ORDER BY PTS) AS RN FROM SCORES ORDER BY TEAM, RN")
        assert [row[2] for row in result.rows] == [1, 2, 3, 1, 2]

    def test_sum_over_partition(self, scores):
        result = scores.execute(
            "SELECT TEAM, SUM(PTS) OVER (PARTITION BY TEAM) AS TOTAL "
            "FROM SCORES ORDER BY TEAM, TOTAL")
        assert {(row[0], row[1]) for row in result.rows} == {("a", 50), ("b", 20)}

    def test_running_sum_with_peers(self, scores):
        result = scores.execute(
            "SELECT PTS, SUM(PTS) OVER (ORDER BY PTS) AS RUNNING "
            "FROM SCORES WHERE TEAM = 'a' ORDER BY PTS")
        # Peer rows (20, 20) share the running value 50.
        assert result.rows == [(10, 10), (20, 50), (20, 50)]

    def test_window_without_over_rejected(self, scores):
        with pytest.raises(HyperQError):
            scores.execute("SELECT RANK() FROM SCORES")


class TestSetOperations:
    @pytest.fixture
    def sets(self, backend_session):
        s = backend_session
        s.execute("CREATE TABLE S1 (X INTEGER)")
        s.execute("CREATE TABLE S2 (X INTEGER)")
        s.execute("INSERT INTO S1 VALUES (1), (2), (2), (3)")
        s.execute("INSERT INTO S2 VALUES (2), (3), (4)")
        return s

    def test_union_distinct(self, sets):
        result = sets.execute("(SELECT X FROM S1) UNION (SELECT X FROM S2) "
                              "ORDER BY 1")
        assert result.rows == [(1,), (2,), (3,), (4,)]

    def test_union_all_keeps_duplicates(self, sets):
        result = sets.execute("(SELECT X FROM S1) UNION ALL (SELECT X FROM S2)")
        assert result.rowcount == 7

    def test_intersect(self, sets):
        result = sets.execute("(SELECT X FROM S1) INTERSECT (SELECT X FROM S2) "
                              "ORDER BY 1")
        assert result.rows == [(2,), (3,)]

    def test_except(self, sets):
        result = sets.execute("(SELECT X FROM S1) EXCEPT (SELECT X FROM S2) "
                              "ORDER BY 1")
        assert result.rows == [(1,)]

    def test_arity_mismatch_rejected(self, sets):
        with pytest.raises(HyperQError):
            sets.execute("(SELECT X FROM S1) UNION (SELECT X, X FROM S2)")


class TestCTEs:
    def test_nonrecursive_cte(self, db):
        result = db.execute(
            "WITH BIG (N) AS (SELECT N FROM NUMS WHERE N >= 2) "
            "SELECT COUNT(*) FROM BIG")
        assert result.rows == [(2,)]

    def test_cte_referenced_twice(self, db):
        result = db.execute(
            "WITH B AS (SELECT N FROM NUMS WHERE N IS NOT NULL) "
            "SELECT COUNT(*) FROM B JOIN B B2 ON B.N = B2.N")
        assert result.rows == [(3,)]

    def test_recursive_cte_rejected_on_default_profile(self, db):
        with pytest.raises(HyperQError):
            db.execute(
                "WITH RECURSIVE R (N) AS (SELECT 1 UNION ALL "
                "SELECT N + 1 FROM R WHERE N < 3) SELECT * FROM R")

    def test_recursive_cte_on_capable_profile(self):
        database = Database(HYPERION_PLUS)
        result = database.execute(
            "WITH RECURSIVE R (N) AS (SELECT 1 AS N UNION ALL "
            "SELECT N + 1 FROM R WHERE N < 4) SELECT N FROM R ORDER BY N")
        assert result.rows == [(1,), (2,), (3,), (4,)]


class TestDML:
    def test_update_with_predicate(self, db):
        count = db.execute("UPDATE NUMS SET F = F * 2 WHERE N = 1").rowcount
        assert count == 1
        assert db.execute("SELECT F FROM NUMS WHERE N = 1").rows == [(3.0,)]

    def test_delete(self, db):
        assert db.execute("DELETE FROM NUMS WHERE N IS NULL").rowcount == 1
        assert db.execute("SELECT COUNT(*) FROM NUMS").rows == [(3,)]

    def test_insert_select(self, db):
        db.execute("CREATE TABLE COPY (N INTEGER, LABEL VARCHAR(10), F DOUBLE PRECISION)")
        count = db.execute("INSERT INTO COPY SELECT * FROM NUMS").rowcount
        assert count == 4

    def test_insert_with_column_list_fills_defaults(self, backend_session):
        s = backend_session
        s.execute("CREATE TABLE D (A INTEGER, B VARCHAR(5) DEFAULT 'dd')")
        s.execute("INSERT INTO D (A) VALUES (1)")
        assert s.execute("SELECT B FROM D").rows == [("dd",)]

    def test_ctas(self, db):
        db.execute("CREATE TABLE BIG AS SELECT N FROM NUMS WHERE N >= 2")
        assert db.execute("SELECT COUNT(*) FROM BIG").rows == [(2,)]

    def test_truncate(self, db):
        db.execute("TRUNCATE TABLE NUMS")
        assert db.execute("SELECT COUNT(*) FROM NUMS").rows == [(0,)]

    def test_views_expand(self, db):
        db.execute("CREATE VIEW POS AS SELECT N, LABEL FROM NUMS WHERE N > 1")
        result = db.execute("SELECT LABEL FROM POS ORDER BY N")
        assert result.rows == [("two",), ("three",)]
        db.execute("DROP VIEW POS")
        with pytest.raises(HyperQError):
            db.execute("SELECT * FROM POS")


class TestTemporaryTables:
    def test_temp_tables_are_session_scoped(self, backend):
        one = backend.create_session()
        two = backend.create_session()
        one.execute("CREATE TEMPORARY TABLE TT (X INTEGER)")
        one.execute("INSERT INTO TT VALUES (1)")
        assert one.execute("SELECT COUNT(*) FROM TT").rows == [(1,)]
        with pytest.raises(HyperQError):
            two.execute("SELECT * FROM TT")

    def test_temp_shadows_permanent(self, backend):
        session = backend.create_session()
        session.execute("CREATE TABLE TT (X INTEGER)")
        session.execute("INSERT INTO TT VALUES (1)")
        session.execute("CREATE TEMPORARY TABLE TT (X INTEGER)")
        assert session.execute("SELECT COUNT(*) FROM TT").rows == [(0,)]


class TestParserErrors:
    def test_syntax_error_reports_position(self, db):
        with pytest.raises(ParseError):
            db.execute("SELECT FROM WHERE")

    def test_teradata_shortcut_rejected(self, db):
        with pytest.raises(HyperQError):
            db.execute("SEL * FROM NUMS")

    def test_qualify_rejected(self, db):
        with pytest.raises(HyperQError):
            db.execute("SELECT N FROM NUMS QUALIFY RANK() OVER (ORDER BY N) = 1")

    def test_merge_gated_by_profile(self, db):
        with pytest.raises(BackendError):
            db.execute("MERGE INTO NUMS USING NUMS N2 ON 1 = 1 "
                       "WHEN MATCHED THEN UPDATE SET N = 1")

    def test_unknown_table_raises_catalog_error(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM MISSING")

    def test_multiple_statements_rejected_by_execute(self, db):
        with pytest.raises(HyperQError):
            db.execute("SELECT 1; SELECT 2")

    def test_execute_script_runs_multiple(self, db):
        results = db.execute_script("SELECT 1 AS A; SELECT 2 AS B;")
        assert [r.rows for r in results] == [[(1,)], [(2,)]]
