"""Unit tests for backend optimizations: predicate pushdown, OR
factorization, and subquery decorrelation — all checked for semantic
equivalence against unoptimized evaluation."""

import pytest

from repro.backend import Database
from repro.backend import decorrelate
from repro.backend.optimizer import _factor_or, optimize
from repro.xtra import relational as r
from repro.xtra import scalars as s
from repro.xtra import types as t
from repro.xtra.visitor import walk_rel


@pytest.fixture
def db(backend_session):
    session = backend_session
    session.execute("CREATE TABLE A (ID INTEGER, X INTEGER)")
    session.execute("CREATE TABLE B (ID INTEGER, Y INTEGER)")
    session.execute("CREATE TABLE C (ID INTEGER, Z INTEGER)")
    for i in range(30):
        session.execute(f"INSERT INTO A VALUES ({i}, {i % 5})")
        session.execute(f"INSERT INTO B VALUES ({i % 10}, {i % 3})")
        session.execute(f"INSERT INTO C VALUES ({i % 7}, {i})")
    return session


class TestPushdown:
    def test_comma_join_becomes_inner_join(self, db):
        # Runs correctly and fast only with pushdown; verify result against
        # the explicit-join spelling.
        implicit = db.execute(
            "SELECT COUNT(*) FROM A, B, C "
            "WHERE A.ID = B.ID AND B.ID = C.ID AND A.X > 1")
        explicit = db.execute(
            "SELECT COUNT(*) FROM A JOIN B ON A.ID = B.ID "
            "JOIN C ON B.ID = C.ID WHERE A.X > 1")
        assert implicit.rows == explicit.rows

    def test_single_side_predicates_pushed_to_input(self):
        schema_a = _schema("A", ["ID", "X"])
        schema_b = _schema("B", ["ID", "Y"])
        join = r.Join(r.JoinKind.CROSS, r.Get(schema_a), r.Get(schema_b))
        predicate = s.conjoin([
            s.Comp(s.CompOp.EQ, _ref("ID", "A"), _ref("ID", "B")),
            s.Comp(s.CompOp.GT, _ref("X", "A"), s.const_int(1)),
        ])
        plan = optimize(r.Filter(join, predicate))
        assert isinstance(plan, r.Join)
        assert plan.kind is r.JoinKind.INNER
        assert plan.condition is not None
        assert isinstance(plan.left, r.Filter)  # A.X > 1 sank to the A side

    def test_outer_join_inputs_untouched(self):
        schema_a = _schema("A", ["ID", "X"])
        schema_b = _schema("B", ["ID", "Y"])
        join = r.Join(r.JoinKind.LEFT, r.Get(schema_a), r.Get(schema_b),
                      s.Comp(s.CompOp.EQ, _ref("ID", "A"), _ref("ID", "B")))
        predicate = s.Comp(s.CompOp.GT, _ref("Y", "B"), s.const_int(0))
        plan = optimize(r.Filter(join, predicate))
        # The filter must stay above the outer join.
        assert isinstance(plan, r.Filter)
        assert isinstance(plan.child, r.Join)
        assert plan.child.kind is r.JoinKind.LEFT

    def test_subquery_conjuncts_stay_on_top(self):
        schema_a = _schema("A", ["ID", "X"])
        schema_b = _schema("B", ["ID", "Y"])
        join = r.Join(r.JoinKind.CROSS, r.Get(schema_a), r.Get(schema_b))
        exists = s.SubqueryExpr(kind=s.SubqueryKind.EXISTS,
                                plan=r.Get(_schema("C", ["ID", "Z"])))
        predicate = s.conjoin([
            s.Comp(s.CompOp.EQ, _ref("ID", "A"), _ref("ID", "B")),
            exists,
        ])
        plan = optimize(r.Filter(join, predicate))
        assert isinstance(plan, r.Filter)
        assert isinstance(plan.predicate, s.SubqueryExpr)

    def test_left_join_null_results_preserved(self, db):
        # WHERE on a left-join output involving the nullable side must keep
        # post-join semantics.
        result = db.execute(
            "SELECT COUNT(*) FROM A LEFT JOIN B ON A.ID = B.ID AND B.Y = 99 "
            "WHERE B.ID IS NULL")
        assert result.rows == [(30,)]


class TestOrFactorization:
    def test_common_conjunct_hoisted(self):
        shared = s.Comp(s.CompOp.EQ, _ref("ID", "A"), _ref("ID", "B"))
        branch1 = s.conjoin([shared, s.Comp(s.CompOp.GT, _ref("X", "A"),
                                            s.const_int(1))])
        branch2 = s.conjoin([s.Comp(s.CompOp.LT, _ref("Y", "B"),
                                    s.const_int(5)),
                             _clone_comp(shared)])
        factored = _factor_or(s.BoolOp(s.BoolOpKind.OR, [branch1, branch2]))
        assert isinstance(factored, s.BoolOp)
        assert factored.op is s.BoolOpKind.AND
        assert any(isinstance(arg, s.Comp) for arg in factored.args)

    def test_no_common_conjunct_unchanged(self):
        expr = s.BoolOp(s.BoolOpKind.OR, [
            s.Comp(s.CompOp.GT, _ref("X", "A"), s.const_int(1)),
            s.Comp(s.CompOp.LT, _ref("Y", "B"), s.const_int(5)),
        ])
        assert _factor_or(expr) is expr

    def test_q19_shape_executes_equivalently(self, db):
        disjunctive = db.execute(
            "SELECT COUNT(*) FROM A, B WHERE "
            "(A.ID = B.ID AND A.X = 1 AND B.Y = 0) OR "
            "(A.ID = B.ID AND A.X = 2 AND B.Y = 1)")
        manual = db.execute(
            "SELECT COUNT(*) FROM A JOIN B ON A.ID = B.ID "
            "WHERE (A.X = 1 AND B.Y = 0) OR (A.X = 2 AND B.Y = 1)")
        assert disjunctive.rows == manual.rows


class TestDecorrelation:
    """The rewrites must be invisible except for speed; every case compares
    against a hand-computed or alternative-spelling result."""

    def test_exists_semi_join(self, db):
        fast = db.execute(
            "SELECT COUNT(*) FROM A WHERE EXISTS "
            "(SELECT 1 FROM B WHERE B.ID = A.ID AND B.Y = 0)")
        b_rows = db.execute("SELECT ID FROM B WHERE Y = 0").rows
        a_rows = db.execute("SELECT ID FROM A").rows
        keys = {row[0] for row in b_rows}
        expected = sum(1 for (a_id,) in a_rows if a_id in keys)
        assert fast.rows == [(expected,)]

    def test_exists_without_decorrelation_same_answer(self, db, monkeypatch):
        query = ("SELECT COUNT(*) FROM A WHERE EXISTS "
                 "(SELECT 1 FROM B WHERE B.ID = A.ID AND B.Y > 0)")
        decorrelated = db.execute(query).rows
        monkeypatch.setattr(decorrelate, "build_index",
                            lambda executor, subquery: None)
        assert db.execute(query).rows == decorrelated

    def test_not_exists_anti_join(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM A WHERE NOT EXISTS "
            "(SELECT 1 FROM B WHERE B.ID = A.ID)")
        b_keys = {row[0] for row in db.execute("SELECT ID FROM B").rows}
        a_rows = db.execute("SELECT ID FROM A").rows
        expected = sum(1 for (a_id,) in a_rows if a_id not in b_keys)
        assert result.rows == [(expected,)]

    def test_scalar_aggregate_grouping(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM A WHERE A.X < "
            "(SELECT AVG(C.Z) FROM C WHERE C.ID = A.ID)")
        c_rows = db.execute("SELECT ID, Z FROM C").rows
        groups: dict = {}
        for cid, z in c_rows:
            groups.setdefault(cid, []).append(z)
        a_rows = db.execute("SELECT ID, X FROM A").rows
        expected = sum(
            1 for aid, x in a_rows
            if aid in groups and x < sum(groups[aid]) / len(groups[aid]))
        assert result.rows == [(expected,)]

    def test_residual_correlation(self, db):
        # EXISTS with an extra non-equality correlated conjunct (Q21 shape).
        result = db.execute(
            "SELECT COUNT(*) FROM A WHERE EXISTS "
            "(SELECT 1 FROM B WHERE B.ID = A.ID AND B.Y <> A.X)")
        a_rows = db.execute("SELECT ID, X FROM A").rows
        b_rows = db.execute("SELECT ID, Y FROM B").rows
        expected = sum(
            1 for aid, x in a_rows
            if any(bid == aid and y != x for bid, y in b_rows))
        assert result.rows == [(expected,)]

    def test_uncorrelated_subquery_cached_but_correct(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM A WHERE A.X < (SELECT AVG(Y) FROM B)")
        avg_y = db.execute("SELECT AVG(Y) FROM B").rows[0][0]
        a_rows = db.execute("SELECT X FROM A").rows
        expected = sum(1 for (x,) in a_rows if x < avg_y)
        assert result.rows == [(expected,)]

    def test_small_input_skips_decorrelation_same_result(self, backend_session):
        s2 = backend_session
        s2.execute("CREATE TABLE TINY (ID INTEGER)")
        s2.execute("CREATE TABLE OTHER (ID INTEGER)")
        s2.execute("INSERT INTO TINY VALUES (1), (2)")
        s2.execute("INSERT INTO OTHER VALUES (2), (3)")
        result = s2.execute(
            "SELECT ID FROM TINY WHERE EXISTS "
            "(SELECT 1 FROM OTHER WHERE OTHER.ID = TINY.ID)")
        assert result.rows == [(2,)]


def _schema(name, columns):
    from repro.xtra.schema import ColumnSchema, TableSchema

    return TableSchema(name, [ColumnSchema(c, t.INTEGER) for c in columns])


def _ref(name, table):
    return s.ColumnRef(name, table, t.INTEGER)


def _clone_comp(comp):
    return s.Comp(comp.op, _ref(comp.left.name, comp.left.table),
                  _ref(comp.right.name, comp.right.table))
