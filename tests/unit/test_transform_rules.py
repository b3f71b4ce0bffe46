"""Unit tests for the Transformer engine and its capability-gated rules."""

import pytest

from repro.core.catalog import SessionCatalog, ShadowCatalog
from repro.core.tracker import FeatureTracker
from repro.errors import TransformError
from repro.frontend.teradata.binder import Binder
from repro.frontend.teradata.parser import TeradataParser
from repro.serializer import serializer_for
from repro.transform.capabilities import (
    HYPERION, HYPERION_PLUS, MEADOWSHIFT, TERADATA,
)
from repro.transform.engine import Rule, RuleContext, Transformer
from repro.transform.rules.date_int_compare import DateIntCompareRule, date_to_int_expr
from repro.transform.rules.null_ordering import teradata_nulls_first
from repro.transform.rules.olap_grouping import grouping_sets_of
from repro.transform.rules.vector_subquery import lexicographic_predicate
from repro.xtra import relational as r
from repro.xtra import scalars as s
from repro.xtra import types as t
from repro.xtra.schema import ColumnSchema, TableSchema
from repro.xtra.visitor import walk_all_scalars, walk_rel


@pytest.fixture
def catalog():
    shadow = ShadowCatalog()
    shadow.add_table(TableSchema("SALES", [
        ColumnSchema("AMOUNT", t.decimal(12, 2)),
        ColumnSchema("STORE", t.INTEGER),
        ColumnSchema("SALES_DATE", t.DATE),
    ]))
    shadow.add_table(TableSchema("SALES_HISTORY", [
        ColumnSchema("GROSS", t.decimal(12, 2)),
        ColumnSchema("NET", t.decimal(12, 2)),
    ]))
    return SessionCatalog(shadow)


def bound(sql, catalog, tracker=None):
    parser = TeradataParser(tracker)
    return Binder(catalog, tracker).bind(parser.parse_statement(sql))


def transform(statement, profile=HYPERION, tracker=None):
    Transformer(profile, tracker).transform(statement)
    return statement


class TestDateIntCompare:
    def test_expansion_structure(self):
        ref = s.ColumnRef("D", type=t.DATE)
        expanded = date_to_int_expr(ref)
        # DAY + MONTH*100 + (YEAR-1900)*10000
        assert isinstance(expanded, s.Arith)
        extracts = [n for n in _walk(expanded) if isinstance(n, s.Extract)]
        assert {e.field_name.value for e in extracts} == {"DAY", "MONTH", "YEAR"}

    def test_rewrite_fires_for_strict_target(self, catalog, tracker):
        tracker.begin_query()
        statement = bound("SEL STORE FROM SALES WHERE SALES_DATE > 1140101",
                          catalog, tracker)
        transform(statement, HYPERION, tracker)
        comps = [n for n in _stmt_scalars(statement) if isinstance(n, s.Comp)]
        assert any(isinstance(c.left, s.Arith) for c in comps)
        assert "date_int_comparison" in tracker._current.features  # type: ignore

    def test_rewrite_skipped_for_teradata_target(self, catalog):
        statement = bound("SEL STORE FROM SALES WHERE SALES_DATE > 1140101",
                          catalog)
        transform(statement, TERADATA)
        comps = [n for n in _stmt_scalars(statement) if isinstance(n, s.Comp)]
        assert all(isinstance(c.left, s.ColumnRef) for c in comps)


class TestDateArith:
    def test_date_plus_int_becomes_dateadd(self, catalog):
        statement = bound("SEL SALES_DATE + 30 FROM SALES", catalog)
        transform(statement, HYPERION)
        calls = [n for n in _stmt_scalars(statement)
                 if isinstance(n, s.FuncCall) and n.name == "DATEADD"]
        assert calls

    def test_date_minus_int_negates_amount(self, catalog):
        statement = bound("SEL SALES_DATE - 7 FROM SALES", catalog)
        transform(statement, HYPERION)
        (call,) = [n for n in _stmt_scalars(statement)
                   if isinstance(n, s.FuncCall) and n.name == "DATEADD"]
        assert isinstance(call.args[1], s.Negate)

    def test_skipped_when_target_supports_it(self, catalog):
        statement = bound("SEL SALES_DATE + 30 FROM SALES", catalog)
        transform(statement, MEADOWSHIFT)  # date_int_arithmetic = True
        calls = [n for n in _stmt_scalars(statement)
                 if isinstance(n, s.FuncCall) and n.name == "DATEADD"]
        assert not calls


class TestVectorSubquery:
    def test_lexicographic_predicate_gt(self):
        left = [s.ColumnRef("A"), s.ColumnRef("B")]
        right = [s.ColumnRef("X"), s.ColumnRef("Y")]
        pred = lexicographic_predicate(s.CompOp.GT, left, right)
        # A > X OR (A = X AND B > Y)
        assert isinstance(pred, s.BoolOp)
        assert pred.op is s.BoolOpKind.OR
        assert len(pred.args) == 2

    def test_rewrite_produces_exists(self, catalog, tracker):
        tracker.begin_query()
        statement = bound(
            "SEL * FROM SALES WHERE (AMOUNT, AMOUNT * 0.85) > "
            "ANY (SEL GROSS, NET FROM SALES_HISTORY)", catalog, tracker)
        transform(statement, HYPERION, tracker)
        subqs = [n for n in _stmt_scalars(statement)
                 if isinstance(n, s.SubqueryExpr)]
        assert len(subqs) == 1
        assert subqs[0].kind is s.SubqueryKind.EXISTS
        assert "vector_subquery" in tracker._current.features  # type: ignore

    def test_rewrite_skipped_for_capable_target(self, catalog):
        statement = bound(
            "SEL * FROM SALES WHERE (AMOUNT, AMOUNT * 0.85) > "
            "ANY (SEL GROSS, NET FROM SALES_HISTORY)", catalog)
        transform(statement, HYPERION_PLUS)
        subqs = [n for n in _stmt_scalars(statement)
                 if isinstance(n, s.SubqueryExpr)]
        assert subqs[0].kind is s.SubqueryKind.QUANTIFIED

    def test_single_column_quantified_untouched(self, catalog):
        statement = bound(
            "SEL * FROM SALES WHERE AMOUNT > ANY (SEL GROSS FROM SALES_HISTORY)",
            catalog)
        transform(statement, HYPERION)
        subqs = [n for n in _stmt_scalars(statement)
                 if isinstance(n, s.SubqueryExpr)]
        assert subqs[0].kind is s.SubqueryKind.QUANTIFIED


class TestOlapGrouping:
    def test_rollup_set_enumeration(self, catalog):
        statement = bound(
            "SEL STORE, SUM(AMOUNT) FROM SALES GROUP BY ROLLUP (STORE)",
            catalog)
        agg = next(n for n in _stmt_rels(statement) if isinstance(n, r.Aggregate))
        sets = grouping_sets_of(agg)
        assert sets == [[0], []]

    def test_rollup_expands_to_union_all(self, catalog, tracker):
        tracker.begin_query()
        statement = bound(
            "SEL STORE, SUM(AMOUNT) FROM SALES GROUP BY ROLLUP (STORE)",
            catalog, tracker)
        transform(statement, HYPERION, tracker)
        setops = [n for n in _stmt_rels(statement) if isinstance(n, r.SetOp)]
        assert len(setops) == 1
        assert setops[0].all
        aggs = [n for n in _stmt_rels(statement) if isinstance(n, r.Aggregate)]
        assert all(a.kind is r.GroupingKind.SIMPLE for a in aggs)
        assert "grouping_extensions" in tracker._current.features  # type: ignore

    def test_cube_two_keys_gives_four_branches(self, catalog):
        statement = bound(
            "SEL STORE, SALES_DATE, SUM(AMOUNT) FROM SALES "
            "GROUP BY CUBE (STORE, SALES_DATE)", catalog)
        transform(statement, HYPERION)
        aggs = [n for n in _stmt_rels(statement) if isinstance(n, r.Aggregate)]
        assert len(aggs) == 4

    def test_native_target_keeps_extension(self, catalog):
        statement = bound(
            "SEL STORE, SUM(AMOUNT) FROM SALES GROUP BY ROLLUP (STORE)",
            catalog)
        transform(statement, HYPERION_PLUS)
        agg = next(n for n in _stmt_rels(statement) if isinstance(n, r.Aggregate))
        assert agg.kind is r.GroupingKind.ROLLUP


class TestNullOrdering:
    def test_teradata_places_nulls_low(self):
        assert teradata_nulls_first(True) is True
        assert teradata_nulls_first(False) is False

    def test_sort_keys_pinned(self, catalog, tracker):
        tracker.begin_query()
        statement = bound("SEL STORE FROM SALES ORDER BY STORE DESC", catalog,
                          tracker)
        transform(statement, HYPERION, tracker)
        sort = next(n for n in _stmt_rels(statement) if isinstance(n, r.Sort))
        assert sort.keys[0].nulls_first is False  # DESC: nulls sink last
        assert "null_ordering" in tracker._current.features  # type: ignore

    def test_window_order_keys_pinned(self, catalog):
        statement = bound(
            "SEL STORE FROM SALES QUALIFY RANK(AMOUNT DESC) <= 2", catalog)
        transform(statement, HYPERION)
        window = next(n for n in _stmt_rels(statement) if isinstance(n, r.Window))
        assert window.funcs[0].order_by[0].nulls_first is False

    def test_explicit_keys_untouched(self, catalog):
        statement = bound(
            "SEL STORE FROM SALES ORDER BY STORE ASC NULLS LAST", catalog)
        transform(statement, HYPERION)
        sort = next(n for n in _stmt_rels(statement) if isinstance(n, r.Sort))
        assert sort.keys[0].nulls_first is False


class TestEngineMechanics:
    def test_fixpoint_divergence_guard(self, catalog):
        class Diverging(Rule):
            name = "loop"

            def applies(self, profile):
                return True

            def rewrite_scalar(self, expr, ctx):
                if isinstance(expr, s.Const):
                    ctx.changed = True
                return expr

        statement = bound("SEL 1 FROM SALES", catalog)
        transformer = Transformer(HYPERION, rules=[Diverging()])
        with pytest.raises(TransformError):
            transformer.transform(statement)

    def test_every_rule_lands_on_one_statement(self, catalog):
        """Date/integer comparison, date arithmetic, a vector subquery and
        ROLLUP in one statement: the fixpoint leaves no Teradata-ism."""
        statement = bound(
            "SEL STORE, SUM(AMOUNT) AS TOTAL FROM SALES "
            "WHERE SALES_DATE > 1140101 "
            "AND SALES_DATE + 30 < DATE '2015-01-01' "
            "AND (AMOUNT, AMOUNT) > ANY (SEL GROSS, NET FROM SALES_HISTORY) "
            "GROUP BY ROLLUP (STORE) ORDER BY 2 DESC", catalog)
        sql = serializer_for(HYPERION).serialize(transform(statement))
        assert "EXTRACT(YEAR FROM" in sql
        assert "DATEADD" in sql
        assert "EXISTS" in sql
        assert "UNION ALL" in sql
        assert "ROLLUP" not in sql

    def test_rules_filtered_by_capability(self):
        assert not Transformer(TERADATA).active_rules
        assert Transformer(HYPERION).active_rules


def _walk(expr):
    yield expr
    for child in expr.children():
        yield from _walk(child)


def _stmt_scalars(statement):
    from repro.xtra.visitor import statement_scalars

    return list(statement_scalars(statement))


def _stmt_rels(statement):
    from repro.xtra.visitor import statement_plans

    out = []
    for plan in statement_plans(statement):
        out.extend(walk_rel(plan))
    return out
