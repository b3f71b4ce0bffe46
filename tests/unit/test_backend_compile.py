"""The compiled-expression contract of the stand-in warehouse.

Expressions compile once per operator instance; column references become
tuple indices. What must not change with that: resolution errors surface
when a row is evaluated (never at compile time, so empty inputs and the
correlation probe behave as before), decorrelated subqueries still build
their index once, and comparisons answer exactly as the generic path does.
"""

import pytest

from repro.backend import decorrelate
from repro.backend.executor import Executor
from repro.backend.expressions import (
    Env, EvalContext, Evaluator, UnresolvedColumnError,
)
from repro.errors import BackendError, TypeMismatchError
from repro.transform.capabilities import HYPERION
from repro.xtra import scalars as s
from repro.xtra import types as t
from repro.xtra.relational import OutputColumn


@pytest.fixture
def ev():
    return Evaluator(HYPERION, lambda plan, outer: ([], []))


def _const(value):
    return s.Const(value, t.UNKNOWN)


def _env(*columns):
    return Env([OutputColumn(name, t.UNKNOWN, qualifier)
                for qualifier, name in columns])


class TestLazyResolution:
    def test_ambiguous_column_compiles_and_raises_per_row(self, ev):
        env = _env(("P", "ID"), ("Q", "ID"))
        compiled = ev.compile(s.ColumnRef("ID"), env, None)
        with pytest.raises(BackendError, match="ambiguous column reference 'ID'"):
            compiled((1, 2))

    def test_unresolved_column_compiles_and_raises_per_row(self, ev):
        compiled = ev.compile(s.ColumnRef("NOPE"), _env(("P", "ID")), None)
        with pytest.raises(UnresolvedColumnError):
            compiled((1,))

    def test_qualified_reference_picks_its_side(self, ev):
        env = _env(("P", "ID"), ("Q", "ID"))
        assert ev.compile(s.ColumnRef("ID", "Q"), env, None)((1, 2)) == 2

    def test_ambiguous_column_over_empty_input_is_fine(self, backend_session):
        db = backend_session
        db.execute("CREATE TABLE P (ID INTEGER)")
        db.execute("CREATE TABLE Q (ID INTEGER)")
        assert db.execute("SELECT * FROM P, Q WHERE ID = 1").rows == []
        db.execute("INSERT INTO P VALUES (1)")
        db.execute("INSERT INTO Q VALUES (1)")
        with pytest.raises(BackendError, match="ambiguous column reference 'ID'"):
            db.execute("SELECT * FROM P, Q WHERE ID = 1")

    def test_correlated_subqueries_over_empty_inner_table(self, backend_session):
        db = backend_session
        db.execute("CREATE TABLE P (ID INTEGER)")
        db.execute("CREATE TABLE E (ID INTEGER, Y INTEGER)")
        db.execute("INSERT INTO P VALUES (1), (2)")
        result = db.execute(
            "SELECT ID, (SELECT MAX(Y) FROM E WHERE E.ID = P.ID), "
            "(SELECT COUNT(*) FROM E WHERE E.ID = P.ID) FROM P ORDER BY ID")
        assert result.rows == [(1, None, 0), (2, None, 0)]
        result = db.execute("SELECT ID FROM P WHERE NOT EXISTS "
                            "(SELECT 1 FROM E WHERE E.ID = P.ID) ORDER BY ID")
        assert result.rows == [(1,), (2,)]


class TestSubqueryCalls:
    """Call counts pinned before expressions were compiled: compiling must
    not change how often a subquery runs or an index is built."""

    @pytest.fixture
    def db(self, backend_session):
        session = backend_session
        session.execute("CREATE TABLE A (ID INTEGER, X INTEGER)")
        session.execute("CREATE TABLE B (ID INTEGER, Y INTEGER)")
        rows_a = ", ".join(f"({i}, {i % 5})" for i in range(30))
        rows_b = ", ".join(f"({i % 10}, {i % 3})" for i in range(30))
        session.execute(f"INSERT INTO A VALUES {rows_a}")
        session.execute(f"INSERT INTO B VALUES {rows_b}")
        return session

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"run_subquery": 0, "build_index": 0}
        run_subquery = Executor._run_subquery
        build_index = decorrelate.build_index

        def counting_run(self, plan, outer):
            counts["run_subquery"] += 1
            return run_subquery(self, plan, outer)

        def counting_build(executor, subq):
            counts["build_index"] += 1
            return build_index(executor, subq)

        monkeypatch.setattr(Executor, "_run_subquery", counting_run)
        monkeypatch.setattr(decorrelate, "build_index", counting_build)
        return counts

    @pytest.mark.parametrize("predicate,expected", [
        # Decorrelated: the index is built once, no per-row subquery runs.
        ("EXISTS (SELECT 1 FROM B WHERE B.ID = A.ID AND B.Y = 0)",
         {"run_subquery": 0, "build_index": 1}),
        ("EXISTS (SELECT 1 FROM B WHERE B.ID = A.ID AND B.Y <> A.X)",
         {"run_subquery": 0, "build_index": 1}),
        ("A.X < (SELECT AVG(B.Y) FROM B WHERE B.ID = A.ID)",
         {"run_subquery": 0, "build_index": 1}),
        # Not decorrelatable (OR correlation): one run per outer row.
        ("A.X < (SELECT MAX(B.Y) FROM B WHERE B.ID = A.ID OR B.Y = A.X)",
         {"run_subquery": 30, "build_index": 1}),
    ])
    def test_call_counts(self, db, calls, predicate, expected):
        db.execute(f"SELECT COUNT(*) FROM A WHERE {predicate}")
        assert calls == expected


class TestProjection:
    def test_select_star_yields_the_stored_tuples(self, backend):
        session = backend.create_session()
        session.execute("CREATE TABLE T (A INTEGER, B VARCHAR(5))")
        session.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')")
        stored = backend.catalog.table("T").rows
        rows = session.execute("SELECT * FROM T").rows
        assert len(rows) == len(stored)
        assert all(row is kept for row, kept in zip(rows, stored))

    def test_reordering_and_narrowing_projections(self, backend_session):
        db = backend_session
        db.execute("CREATE TABLE T (A INTEGER, B VARCHAR(5))")
        db.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')")
        assert db.execute("SELECT B, A FROM T").rows == [("x", 1), ("y", 2)]
        assert db.execute("SELECT A FROM T").rows == [(1,), (2,)]


class TestComparisonFastPath:
    @pytest.mark.parametrize("left,right,expected", [
        (1, 1.0, True),
        (2, 1.5, False),
        ("a ", "a", True),
        ("a\t", "a", False),
        ("b", "a  ", False),
    ])
    def test_equality(self, ev, left, right, expected):
        expr = s.Comp(s.CompOp.EQ, _const(left), _const(right))
        assert ev.eval(expr, _ctx()) is expected
        assert ev.compare(s.CompOp.EQ, left, right) is expected

    @pytest.mark.parametrize("left,right", [(True, 1), (1, True), ("1", 1)])
    def test_mixed_types_still_raise(self, ev, left, right):
        with pytest.raises(TypeMismatchError):
            ev.eval(s.Comp(s.CompOp.EQ, _const(left), _const(right)), _ctx())

    def test_nan_orders_like_the_generic_path(self, ev):
        nan = float("nan")
        verdicts = {op: ev.compare(op, nan, 1.0) for op in s.CompOp}
        assert verdicts == {
            s.CompOp.EQ: True, s.CompOp.NE: False, s.CompOp.LT: False,
            s.CompOp.LE: True, s.CompOp.GT: False, s.CompOp.GE: True,
        }


def _ctx():
    return EvalContext((), Env([]), None)
