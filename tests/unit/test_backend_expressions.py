"""Unit tests for the backend's scalar evaluator: three-valued logic, type
strictness, LIKE, CASE, CAST, quantified/vector comparison semantics."""

import datetime

import pytest

from repro.errors import BackendError, TypeMismatchError
from repro.backend.expressions import (
    Env, EvalContext, Evaluator, cast_value, like_match,
)
from repro.transform.capabilities import HYPERION, HYPERION_PLUS, TERADATA
from repro.xtra import scalars as s
from repro.xtra import types as t
from repro.xtra.relational import OutputColumn


def make_ctx(**columns):
    names = list(columns)
    env = Env([OutputColumn(name.upper(), t.UNKNOWN) for name in names])
    return EvalContext(tuple(columns[name] for name in names), env, None)


@pytest.fixture
def ev():
    return Evaluator(HYPERION, lambda plan, outer: ([], []))


def comp(op, left, right):
    return s.Comp(op, _lit(left), _lit(right))


def _lit(value):
    if isinstance(value, s.ScalarExpr):
        return value
    return s.Const(value, t.UNKNOWN)


class TestThreeValuedLogic:
    def test_comparison_with_null_is_unknown(self, ev):
        ctx = make_ctx()
        assert ev.eval(comp(s.CompOp.EQ, None, 1), ctx) is None
        assert ev.eval(comp(s.CompOp.LT, 1, None), ctx) is None

    def test_and_short_circuit_semantics(self, ev):
        ctx = make_ctx()
        false = s.Const(False, t.BOOLEAN)
        null = s.Const(None, t.BOOLEAN)
        true = s.Const(True, t.BOOLEAN)
        assert ev.eval(s.BoolOp(s.BoolOpKind.AND, [false, null]), ctx) is False
        assert ev.eval(s.BoolOp(s.BoolOpKind.AND, [true, null]), ctx) is None
        assert ev.eval(s.BoolOp(s.BoolOpKind.OR, [true, null]), ctx) is True
        assert ev.eval(s.BoolOp(s.BoolOpKind.OR, [false, null]), ctx) is None

    def test_not_of_unknown_is_unknown(self, ev):
        ctx = make_ctx()
        assert ev.eval(s.Not(s.Const(None, t.BOOLEAN)), ctx) is None

    def test_eval_bool_treats_unknown_as_false(self, ev):
        ctx = make_ctx()
        # Predicates keep a row only when they yield exactly True.
        assert ev.eval(s.Const(None, t.BOOLEAN), ctx) is not True

    def test_in_list_null_semantics(self, ev):
        ctx = make_ctx()
        # 1 IN (2, NULL) is UNKNOWN; 1 IN (1, NULL) is TRUE.
        unknown = s.InList(_lit(1), [_lit(2), _lit(None)])
        assert ev.eval(unknown, ctx) is None
        hit = s.InList(_lit(1), [_lit(1), _lit(None)])
        assert ev.eval(hit, ctx) is True
        # NOT IN flips; UNKNOWN stays UNKNOWN.
        neg = s.InList(_lit(1), [_lit(2), _lit(None)], negated=True)
        assert ev.eval(neg, ctx) is None


class TestComparisons:
    def test_char_padding_ignored(self, ev):
        ctx = make_ctx()
        assert ev.eval(comp(s.CompOp.EQ, "abc  ", "abc"), ctx) is True

    def test_date_vs_int_rejected_on_strict_profile(self, ev):
        ctx = make_ctx()
        expr = comp(s.CompOp.GT, datetime.date(2014, 1, 2), 1140101)
        with pytest.raises(TypeMismatchError):
            ev.eval(expr, ctx)

    def test_date_vs_int_allowed_on_teradata_profile(self):
        ev = Evaluator(TERADATA, lambda plan, outer: ([], []))
        ctx = make_ctx()
        expr = comp(s.CompOp.GT, datetime.date(2014, 1, 2), 1140101)
        assert ev.eval(expr, ctx) is True

    def test_date_vs_timestamp_comparable(self, ev):
        ctx = make_ctx()
        expr = comp(s.CompOp.LT, datetime.date(2014, 1, 1),
                    datetime.datetime(2014, 1, 1, 12, 0))
        assert ev.eval(expr, ctx) is True

    def test_text_vs_number_rejected(self, ev):
        ctx = make_ctx()
        with pytest.raises(TypeMismatchError):
            ev.eval(comp(s.CompOp.EQ, "1", 1), ctx)


class TestArithmetic:
    def test_null_propagates(self, ev):
        ctx = make_ctx()
        expr = s.Arith(s.ArithOp.ADD, _lit(1), _lit(None))
        assert ev.eval(expr, ctx) is None

    def test_division_by_zero_raises(self, ev):
        ctx = make_ctx()
        with pytest.raises(BackendError):
            ev.eval(s.Arith(s.ArithOp.DIV, _lit(1), _lit(0)), ctx)

    def test_date_minus_date_gives_days(self, ev):
        ctx = make_ctx()
        expr = s.Arith(s.ArithOp.SUB, _lit(datetime.date(2014, 1, 10)),
                       _lit(datetime.date(2014, 1, 1)))
        assert ev.eval(expr, ctx) == 9

    def test_date_plus_int_rejected_on_strict_profile(self, ev):
        ctx = make_ctx()
        expr = s.Arith(s.ArithOp.ADD, _lit(datetime.date(2014, 1, 1)), _lit(5))
        with pytest.raises(TypeMismatchError):
            ev.eval(expr, ctx)

    def test_date_plus_int_on_permissive_profile(self):
        ev = Evaluator(TERADATA, lambda plan, outer: ([], []))
        ctx = make_ctx()
        expr = s.Arith(s.ArithOp.ADD, _lit(datetime.date(2014, 1, 1)), _lit(5))
        assert ev.eval(expr, ctx) == datetime.date(2014, 1, 6)

    def test_concat(self, ev):
        ctx = make_ctx()
        expr = s.Arith(s.ArithOp.CONCAT, _lit("foo"), _lit("bar"))
        assert ev.eval(expr, ctx) == "foobar"


class TestCaseAndCast:
    def test_searched_case_first_match_wins(self, ev):
        ctx = make_ctx()
        expr = s.Case(None,
                      [s.Const(False, t.BOOLEAN), s.Const(True, t.BOOLEAN)],
                      [_lit("a"), _lit("b")], _lit("c"))
        assert ev.eval(expr, ctx) == "b"

    def test_simple_case_compares_operand(self, ev):
        ctx = make_ctx()
        expr = s.Case(_lit(2), [_lit(1), _lit(2)], [_lit("one"), _lit("two")])
        assert ev.eval(expr, ctx) == "two"

    def test_case_without_match_and_default_is_null(self, ev):
        ctx = make_ctx()
        expr = s.Case(None, [s.Const(False, t.BOOLEAN)], [_lit("x")])
        assert ev.eval(expr, ctx) is None

    def test_cast_string_to_date(self):
        assert cast_value("2014-05-06", t.DATE) == datetime.date(2014, 5, 6)

    def test_cast_teradata_int_to_date(self):
        assert cast_value(1140101, t.DATE) == datetime.date(2014, 1, 1)

    def test_cast_decimal_rounds_to_scale(self):
        assert cast_value(1.23456, t.decimal(10, 2)) == 1.23

    def test_cast_char_pads(self):
        assert cast_value("ab", t.char(4)) == "ab  "

    def test_cast_bad_string_raises(self):
        with pytest.raises(BackendError):
            cast_value("nope", t.INTEGER)


class TestLike:
    @pytest.mark.parametrize("value,pattern,expected", [
        ("hello", "h%", True),
        ("hello", "%llo", True),
        ("hello", "h_llo", True),
        ("hello", "H%", False),
        ("100%", r"100!%", False),
        ("a.b", "a.b", True),
        ("axb", "a.b", False),  # '.' is literal, not regex
    ])
    def test_patterns(self, value, pattern, expected):
        assert like_match(value, pattern, None) is expected

    def test_escape_character(self):
        assert like_match("100%", "100!%", "!") is True
        assert like_match("100x", "100!%", "!") is False


class TestVectorComparison:
    """Section 5: (a, b) > (g, n) means a > g OR (a = g AND b > n)."""

    def make_eval(self, rows):
        return Evaluator(HYPERION_PLUS,
                         lambda plan, outer: ([], rows))

    def vector(self, op, left_values, quantifier=s.Quantifier.ANY):
        return s.SubqueryExpr(
            kind=s.SubqueryKind.QUANTIFIED, plan=object(),
            left=[_lit(v) for v in left_values], op=op, quantifier=quantifier)

    def test_gt_any_ties_broken_by_second(self):
        ev = self.make_eval([(90.0, 70.0), (60.0, 40.0)])
        ctx = make_ctx()
        # (90, 80) vs rows: equal on first with 80 > 70 -> True.
        assert ev.eval(self.vector(s.CompOp.GT, [90.0, 80.0]), ctx) is True
        # (60, 40): ties (60,40) exactly; not strictly greater.
        assert ev.eval(self.vector(s.CompOp.GT, [60.0, 40.0]), ctx) is False
        # GE accepts exact tie.
        assert ev.eval(self.vector(s.CompOp.GE, [60.0, 40.0]), ctx) is True

    def test_eq_all_requires_all_rows_equal(self):
        ev = self.make_eval([(1, 2), (1, 2)])
        ctx = make_ctx()
        assert ev.eval(self.vector(s.CompOp.EQ, [1, 2], s.Quantifier.ALL),
                       ctx) is True

    def test_null_in_vector_gives_unknown(self):
        ev = self.make_eval([(1, None)])
        ctx = make_ctx()
        assert ev.eval(self.vector(s.CompOp.GT, [1, 5]), ctx) is None

    def test_vector_rejected_on_weak_profile(self):
        ev = Evaluator(HYPERION, lambda plan, outer: ([], [(1, 2)]))
        ctx = make_ctx()
        with pytest.raises(BackendError):
            ev.eval(self.vector(s.CompOp.GT, [1, 2]), ctx)


class TestSubqueries:
    def test_scalar_subquery_multiple_rows_raises(self):
        ev = Evaluator(HYPERION, lambda plan, outer: ([], [(1,), (2,)]))
        expr = s.SubqueryExpr(kind=s.SubqueryKind.SCALAR, plan=object())
        with pytest.raises(BackendError):
            ev.eval(expr, make_ctx())

    def test_scalar_subquery_empty_is_null(self):
        ev = Evaluator(HYPERION, lambda plan, outer: ([], []))
        expr = s.SubqueryExpr(kind=s.SubqueryKind.SCALAR, plan=object())
        assert ev.eval(expr, make_ctx()) is None

    def test_exists_and_negation(self):
        ev = Evaluator(HYPERION, lambda plan, outer: ([], [(1,)]))
        expr = s.SubqueryExpr(kind=s.SubqueryKind.EXISTS, plan=object())
        assert ev.eval(expr, make_ctx()) is True
        expr.negated = True
        assert ev.eval(expr, make_ctx()) is False

    def test_in_subquery_null_semantics(self):
        ev = Evaluator(HYPERION, lambda plan, outer: ([], [(2,), (None,)]))
        expr = s.SubqueryExpr(kind=s.SubqueryKind.IN, plan=object(),
                              left=[_lit(1)])
        assert ev.eval(expr, make_ctx()) is None  # not found, NULL present

    def test_column_resolution_through_outer_context(self):
        ev = Evaluator(HYPERION, lambda plan, outer: ([], []))
        outer = make_ctx(x=41)
        inner = EvalContext((), Env([]), outer)
        assert ev.eval(s.ColumnRef("X"), inner) == 41
