"""Runtime scalar evaluation for the backend executor.

Implements SQL three-valued logic (``None`` doubles as UNKNOWN), strict type
checking on mixed-type operations (the backend rejects Teradata-isms like
``date > 1140101`` unless its capability profile says otherwise), vector
comparisons for quantified subqueries, and LIKE pattern matching.

Expressions are *compiled*, once per operator instance, into closures over
the operator's input row: a column reference found in the operator's own
input becomes a tuple index, one found in an enclosing (correlated) context
becomes a read of that context's row. Name resolution therefore happens once
per operator, not once per value. Resolution errors (unknown or ambiguous
columns) are deferred: the closure raises them when a row is evaluated, so
an empty input never raises and the executor's correlation probe still
detects outer references by the first row that needs one.
"""

from __future__ import annotations

import datetime
import operator
import re
from typing import Callable, Optional, Sequence

from repro.errors import BackendError, TypeMismatchError
from repro.transform.capabilities import CapabilityProfile
from repro.xtra import types as t
from repro.xtra.relational import OutputColumn, RelNode
from repro.xtra.scalars import (
    AggCall, Arith, ArithOp, Between, BoolOp, BoolOpKind, Case, Cast,
    ColumnRef, Comp, CompOp, Const, Extract, ExtractField, FuncCall, InList,
    IsNull, Like, Negate, Not, Param, Quantifier, ScalarExpr, SubqueryExpr,
    SubqueryKind,
)
from repro.backend import functions as fl

#: A compiled expression: input row -> value.
Compiled = Callable[[tuple], object]


class Env:
    """Column name environment for one operator's input rows."""

    def __init__(self, columns: Sequence[OutputColumn]):
        self.columns = list(columns)
        self._by_name: dict[str, list[int]] = {}
        self._by_qualified: dict[tuple[str, str], list[int]] = {}
        for index, col in enumerate(self.columns):
            self._by_name.setdefault(col.name, []).append(index)
            if col.qualifier:
                self._by_qualified.setdefault((col.qualifier, col.name), []).append(index)

    def try_resolve(self, name: str, qualifier: Optional[str]) -> Optional[int]:
        """Return the column index or None when not found.

        Ambiguity (duplicate unqualified name across inputs) raises.
        """
        if qualifier:
            hits = self._by_qualified.get((qualifier.upper(), name.upper()), [])
        else:
            hits = self._by_name.get(name.upper(), [])
        if not hits:
            return None
        if len(hits) > 1 and not qualifier:
            raise BackendError(f"ambiguous column reference {name!r}")
        return hits[0]

    def column_indices(self, exprs: Sequence[ScalarExpr]) -> Optional[list[int]]:
        """Input positions of *exprs* when every one is a column reference
        that resolves here (no outer reference, no ambiguity); else None."""
        indices = []
        for expr in exprs:
            if not isinstance(expr, ColumnRef):
                return None
            try:
                index = self.try_resolve(expr.name, expr.table)
            except BackendError:
                return None
            if index is None:
                return None
            indices.append(index)
        return indices


class UnresolvedColumnError(BackendError):
    """A column reference matched no scope — also used by the executor to
    detect correlation when probing subqueries."""


class EvalContext:
    """A row binding plus the chain of outer rows for correlated subqueries.

    Compiled expressions read an outer context's ``row`` when they run, so
    a context may be re-pointed at another row between calls.
    """

    __slots__ = ("row", "env", "parent")

    def __init__(self, row: tuple, env: Env, parent: Optional["EvalContext"] = None):
        self.row = row
        self.env = env
        self.parent = parent


SubqueryRunner = Callable[[RelNode, Optional[EvalContext]], tuple[list[OutputColumn], list[tuple]]]

_NUMBER_TYPES = frozenset((int, float))

#: Per-operator truth tests over two totally ordered values. ``test(a, b)``
#: equals ``order(a, b) op 0`` for the ``(a > b) - (a < b)`` order, NaN
#: included, so ``test(order, 0)`` also serves the generic path.
_COMPARE_TESTS: dict[CompOp, Callable[[object, object], bool]] = {
    CompOp.EQ: lambda a, b: not (a < b or a > b),
    CompOp.NE: lambda a, b: a < b or a > b,
    CompOp.LT: operator.lt,
    CompOp.LE: lambda a, b: not a > b,
    CompOp.GT: operator.gt,
    CompOp.GE: lambda a, b: not a < b,
}


class Evaluator:
    """Compiles scalar expressions into row closures, honoring the
    backend's capability profile for type-mixing rules."""

    def __init__(self, profile: CapabilityProfile, run_subquery: SubqueryRunner):
        self._profile = profile
        self._run_subquery = run_subquery
        #: id(SubqueryExpr) -> decorrelated subquery, installed by the
        #: executor around a filter's row loop: ``bind(env, outer)`` compiles
        #: the probe that replaces the subquery in that operator.
        self.subquery_overrides: dict[int, Callable] = {}

    # -- entry points ---------------------------------------------------------

    def compile(self, expr: ScalarExpr, env: Env,
                outer: Optional[EvalContext] = None) -> Compiled:
        """Compile *expr* over rows of *env*, with *outer* as the fixed chain
        of enclosing rows for correlated references."""
        compiler = self._COMPILERS.get(type(expr))
        if compiler is None:
            return raising(BackendError, f"cannot evaluate {type(expr).__name__}")
        return compiler(self, expr, env, outer)

    def compile_row(self, exprs: Sequence[ScalarExpr], env: Env,
                    outer: Optional[EvalContext] = None) -> Callable[[tuple], tuple]:
        """Compile *exprs* into one function from an input row to a tuple."""
        indices = env.column_indices(exprs)
        if indices is not None and len(indices) > 1:
            return operator.itemgetter(*indices)
        return row_builder([self.compile(expr, env, outer) for expr in exprs])

    def eval(self, expr: ScalarExpr, ctx: EvalContext) -> object:
        """One-off evaluation (compile and call; per-row loops compile once)."""
        return self.compile(expr, ctx.env, ctx.parent)(ctx.row)

    # -- node compilers -------------------------------------------------------

    def _const(self, expr: Const, env, outer) -> Compiled:
        value = expr.value
        return lambda row: value

    def _column(self, expr: ColumnRef, env, outer) -> Compiled:
        try:
            index = env.try_resolve(expr.name, expr.table)
            if index is not None:
                return operator.itemgetter(index)
            scope = outer
            while scope is not None:
                index = scope.env.try_resolve(expr.name, expr.table)
                if index is not None:
                    return _outer_column(scope, index)
                scope = scope.parent
        except BackendError as exc:
            return raising(type(exc), str(exc))
        return raising(UnresolvedColumnError,
                       f"unresolved column reference {expr.qualified()!r}")

    def _param(self, expr: Param, env, outer) -> Compiled:
        return raising(BackendError, f"unbound parameter {expr.name!r}")

    def _negate(self, expr: Negate, env, outer) -> Compiled:
        operand = self.compile(expr.operand, env, outer)

        def negate(row):
            value = operand(row)
            if value is None:
                return None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeMismatchError(f"cannot negate {type(value).__name__}")
            return -value
        return negate

    def _arith(self, expr: Arith, env, outer) -> Compiled:
        left = self.compile(expr.left, env, outer)
        right = self.compile(expr.right, env, outer)
        op = expr.op
        apply = self.apply_arith

        def arith(row):
            left_value = left(row)
            right_value = right(row)
            if left_value is None or right_value is None:
                return None
            return apply(op, left_value, right_value)
        return arith

    def apply_arith(self, op: ArithOp, left: object, right: object) -> object:
        if op is ArithOp.CONCAT:
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            raise TypeMismatchError("|| requires text operands")
        left_num = _is_number(left)
        right_num = _is_number(right)
        if left_num and right_num:
            if op is ArithOp.ADD:
                return left + right
            if op is ArithOp.SUB:
                return left - right
            if op is ArithOp.MUL:
                return left * right
            if op is ArithOp.DIV:
                if right == 0:
                    raise BackendError("division by zero")
                result = left / right
                return result
            if op is ArithOp.MOD:
                if right == 0:
                    raise BackendError("division by zero")
                return left % right
            if op is ArithOp.POW:
                return left ** right
        # date arithmetic -----------------------------------------------------
        left_date = isinstance(left, datetime.date) and not isinstance(left, datetime.datetime)
        right_date = isinstance(right, datetime.date) and not isinstance(right, datetime.datetime)
        if left_date and right_date and op is ArithOp.SUB:
            return (left - right).days
        if self._profile.date_int_arithmetic:
            if left_date and right_num and op in (ArithOp.ADD, ArithOp.SUB):
                days = int(right) if op is ArithOp.ADD else -int(right)
                return left + datetime.timedelta(days=days)
            if right_date and left_num and op is ArithOp.ADD:
                return right + datetime.timedelta(days=int(left))
        raise TypeMismatchError(
            f"operator {op.value} undefined for "
            f"{type(left).__name__} and {type(right).__name__}")

    def _comp(self, expr: Comp, env, outer) -> Compiled:
        left = self.compile(expr.left, env, outer)
        right = self.compile(expr.right, env, outer)
        op = expr.op
        compare = self.compare
        return lambda row: compare(op, left(row), right(row))

    def compare(self, op: CompOp, left: object, right: object) -> object:
        """Three-valued comparison with strict type mixing rules."""
        if left is None or right is None:
            return None
        test = _COMPARE_TESTS[op]
        left_type = type(left)
        right_type = type(right)
        if left_type in _NUMBER_TYPES and right_type in _NUMBER_TYPES:
            return test(left, right)
        if left_type is str and right_type is str:
            return test(left.rstrip(" "), right.rstrip(" "))
        return test(self._order(left, right), 0)

    def _order(self, left: object, right: object) -> int:
        """-1/0/+1 ordering of two non-NULL values; raises on type mixing."""
        if _is_number(left) and _is_number(right):
            return (left > right) - (left < right)
        if isinstance(left, str) and isinstance(right, str):
            # CHAR padding (PAD SPACE): SQL ignores trailing blanks, and
            # only blanks — a trailing tab or newline is data.
            ls, rs = left.rstrip(" "), right.rstrip(" ")
            return (ls > rs) - (ls < rs)
        left_dt = isinstance(left, (datetime.date, datetime.datetime))
        right_dt = isinstance(right, (datetime.date, datetime.datetime))
        if left_dt and right_dt:
            left_n = _as_datetime(left)
            right_n = _as_datetime(right)
            return (left_n > right_n) - (left_n < right_n)
        if left_dt and _is_number(right) or right_dt and _is_number(left):
            if self._profile.date_int_comparison:
                left_v = t.date_to_teradata_int(left) if left_dt else left
                right_v = t.date_to_teradata_int(right) if right_dt else right
                return (left_v > right_v) - (left_v < right_v)
            raise TypeMismatchError(
                "cannot compare DATE with a numeric value on this system")
        if isinstance(left, bool) and isinstance(right, bool):
            return (left > right) - (left < right)
        raise TypeMismatchError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}")

    def _bool(self, expr: BoolOp, env, outer) -> Compiled:
        args = [self.compile(arg, env, outer) for arg in expr.args]
        if expr.op is BoolOpKind.AND:
            def conjunction(row):
                saw_unknown = False
                for arg in args:
                    value = arg(row)
                    if value is False:
                        return False
                    if value is None:
                        saw_unknown = True
                return None if saw_unknown else True
            return conjunction

        def disjunction(row):
            saw_unknown = False
            for arg in args:
                value = arg(row)
                if value is True:
                    return True
                if value is None:
                    saw_unknown = True
            return None if saw_unknown else False
        return disjunction

    def _not(self, expr: Not, env, outer) -> Compiled:
        operand = self.compile(expr.operand, env, outer)

        def negation(row):
            value = operand(row)
            if value is None:
                return None
            return not value
        return negation

    def _is_null(self, expr: IsNull, env, outer) -> Compiled:
        operand = self.compile(expr.operand, env, outer)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    def _in_list(self, expr: InList, env, outer) -> Compiled:
        operand = self.compile(expr.operand, env, outer)
        items = [self.compile(item, env, outer) for item in expr.items]
        compare = self.compare
        found = False if expr.negated else True

        def in_list(row):
            value = operand(row)
            if value is None:
                return None
            saw_unknown = False
            for item in items:
                verdict = compare(CompOp.EQ, value, item(row))
                if verdict is True:
                    return found
                if verdict is None:
                    saw_unknown = True
            if saw_unknown:
                return None
            return not found
        return in_list

    def _between(self, expr: Between, env, outer) -> Compiled:
        operand = self.compile(expr.operand, env, outer)
        low = self.compile(expr.low, env, outer)
        high = self.compile(expr.high, env, outer)
        compare = self.compare
        negated = expr.negated

        def between(row):
            value = operand(row)
            low_value = low(row)
            high_value = high(row)
            lo_ok = compare(CompOp.GE, value, low_value)
            hi_ok = compare(CompOp.LE, value, high_value)
            combined = _and3(lo_ok, hi_ok)
            if combined is None:
                return None
            return not combined if negated else combined
        return between

    def _like(self, expr: Like, env, outer) -> Compiled:
        operand = self.compile(expr.operand, env, outer)
        pattern = self.compile(expr.pattern, env, outer)
        escape = expr.escape
        negated = expr.negated

        def like(row):
            value = operand(row)
            pattern_value = pattern(row)
            if value is None or pattern_value is None:
                return None
            if not isinstance(value, str) or not isinstance(pattern_value, str):
                raise TypeMismatchError("LIKE requires text operands")
            result = like_match(value, pattern_value, escape)
            return not result if negated else result
        return like

    def _func(self, expr: FuncCall, env, outer) -> Compiled:
        args = [self.compile(arg, env, outer) for arg in expr.args]
        name = expr.name
        call = fl.call_scalar
        return lambda row: call(name, [arg(row) for arg in args])

    def _agg(self, expr: AggCall, env, outer) -> Compiled:
        return raising(BackendError,
                       f"aggregate {expr.name} used outside GROUP BY context")

    def _case(self, expr: Case, env, outer) -> Compiled:
        branches = [(self.compile(condition, env, outer),
                     self.compile(result, env, outer))
                    for condition, result in zip(expr.conditions, expr.results)]
        default = (self.compile(expr.default, env, outer)
                   if expr.default is not None else None)
        if expr.operand is None:
            def searched_case(row):
                for condition, result in branches:
                    if condition(row) is True:
                        return result(row)
                return default(row) if default is not None else None
            return searched_case

        operand = self.compile(expr.operand, env, outer)
        compare = self.compare

        def simple_case(row):
            value = operand(row)
            for condition, result in branches:
                if compare(CompOp.EQ, value, condition(row)) is True:
                    return result(row)
            return default(row) if default is not None else None
        return simple_case

    def _cast(self, expr: Cast, env, outer) -> Compiled:
        operand = self.compile(expr.operand, env, outer)
        target = expr.type
        return lambda row: cast_value(operand(row), target)

    def _extract(self, expr: Extract, env, outer) -> Compiled:
        operand = self.compile(expr.operand, env, outer)
        field = expr.field_name

        def extract(row):
            value = operand(row)
            if value is None:
                return None
            if not isinstance(value, (datetime.date, datetime.datetime, datetime.time)):
                raise TypeMismatchError("EXTRACT requires a temporal operand")
            if field is ExtractField.YEAR:
                return value.year
            if field is ExtractField.MONTH:
                return value.month
            if field is ExtractField.DAY:
                return value.day
            if field is ExtractField.HOUR:
                return getattr(value, "hour", 0)
            if field is ExtractField.MINUTE:
                return getattr(value, "minute", 0)
            return getattr(value, "second", 0)
        return extract

    def _subquery(self, expr: SubqueryExpr, env, outer) -> Compiled:
        bind = self.subquery_overrides.get(id(expr))
        if bind is not None:
            return bind(env, outer)
        run = self._run_subquery
        plan = expr.plan
        negated = expr.negated
        # The one place a context is built per row: the subquery's own
        # operators compile against it as their outer scope.
        if expr.kind is SubqueryKind.EXISTS:
            def exists(row):
                __, rows = run(plan, EvalContext(row, env, outer))
                result = bool(rows)
                return not result if negated else result
            return exists
        if expr.kind is SubqueryKind.SCALAR:
            def scalar(row):
                __, rows = run(plan, EvalContext(row, env, outer))
                if not rows:
                    return None
                if len(rows) > 1:
                    raise BackendError("scalar subquery returned more than one row")
                if len(rows[0]) != 1:
                    raise BackendError("scalar subquery must return one column")
                return rows[0][0]
            return scalar
        if expr.kind is SubqueryKind.IN:
            return self._quantified(expr, env, outer, CompOp.EQ, Quantifier.ANY)
        # QUANTIFIED
        if len(expr.left) > 1 and not self._profile.vector_subquery:
            return raising(BackendError,
                           "vector comparison in quantified subquery is not "
                           "supported by this system")
        return self._quantified(expr, env, outer, expr.op or CompOp.EQ,
                                expr.quantifier or Quantifier.ANY)

    def _quantified(self, expr: SubqueryExpr, env, outer,
                    op: CompOp, quantifier: Quantifier) -> Compiled:
        left = [self.compile(item, env, outer) for item in expr.left]
        run = self._run_subquery
        plan = expr.plan
        negated = expr.negated
        vector_compare = self._vector_compare

        def quantified(row):
            left_values = [item(row) for item in left]
            __, rows = run(plan, EvalContext(row, env, outer))
            if len(rows) and len(rows[0]) != len(left_values):
                raise BackendError(
                    f"subquery returns {len(rows[0])} columns, expected {len(left_values)}")
            verdicts = [vector_compare(op, left_values, list(inner)) for inner in rows]
            if quantifier is Quantifier.ANY:
                if any(v is True for v in verdicts):
                    result: object = True
                elif any(v is None for v in verdicts):
                    result = None
                else:
                    result = False
            else:  # ALL
                if any(v is False for v in verdicts):
                    result = False
                elif any(v is None for v in verdicts):
                    result = None
                else:
                    result = True
            if result is None:
                return None
            return not result if negated else result
        return quantified

    def _vector_compare(self, op: CompOp, left: list[object], right: list[object]) -> object:
        """Lexicographic vector comparison with SQL NULL semantics.

        For a single element this degenerates to a plain comparison. For the
        Teradata vector construct ``(a, b) > (g, n)`` it implements
        ``a > g OR (a = g AND b > n)`` as defined in Section 5.
        """
        if len(left) == 1:
            return self.compare(op, left[0], right[0])
        if op in (CompOp.EQ, CompOp.NE):
            verdict: object = True
            for lv, rv in zip(left, right):
                part = self.compare(CompOp.EQ, lv, rv)
                verdict = _and3(verdict, part)
            if op is CompOp.NE:
                return None if verdict is None else not verdict
            return verdict
        strict = CompOp.GT if op in (CompOp.GT, CompOp.GE) else CompOp.LT
        # Lexicographic: strict on some prefix position, equal before it.
        result: object = False
        # Build OR over positions.
        for position in range(len(left)):
            term: object = True
            for prefix in range(position):
                term = _and3(term, self.compare(CompOp.EQ, left[prefix], right[prefix]))
            term = _and3(term, self.compare(strict, left[position], right[position]))
            result = _or3(result, term)
        if op in (CompOp.GE, CompOp.LE):
            all_eq: object = True
            for lv, rv in zip(left, right):
                all_eq = _and3(all_eq, self.compare(CompOp.EQ, lv, rv))
            result = _or3(result, all_eq)
        return result

    _COMPILERS = {}


Evaluator._COMPILERS = {
    Const: Evaluator._const,
    ColumnRef: Evaluator._column,
    Param: Evaluator._param,
    Negate: Evaluator._negate,
    Arith: Evaluator._arith,
    Comp: Evaluator._comp,
    BoolOp: Evaluator._bool,
    Not: Evaluator._not,
    IsNull: Evaluator._is_null,
    InList: Evaluator._in_list,
    Between: Evaluator._between,
    Like: Evaluator._like,
    FuncCall: Evaluator._func,
    AggCall: Evaluator._agg,
    Case: Evaluator._case,
    Cast: Evaluator._cast,
    Extract: Evaluator._extract,
    SubqueryExpr: Evaluator._subquery,
}


# -- compiled-closure building blocks ---------------------------------------------

def row_builder(parts: Sequence[Compiled]) -> Callable[[tuple], tuple]:
    """One function from an input row to the tuple of *parts*' values,
    evaluated left to right."""
    parts = list(parts)
    if len(parts) == 1:
        only, = parts
        return lambda row: (only(row),)
    if len(parts) == 2:
        first, second = parts
        return lambda row: (first(row), second(row))
    return lambda row: tuple([part(row) for part in parts])


def hashable_row(row: tuple) -> tuple:
    """A row as a hash key under SQL equality: integral floats fold to int
    (``1 = 1.0``) and trailing blanks drop (PAD SPACE, blanks only)."""
    return tuple([
        int(value) if isinstance(value, float) and value.is_integer() else
        value.rstrip(" ") if isinstance(value, str) else value
        for value in row
    ])


def _outer_column(scope: EvalContext, index: int) -> Compiled:
    return lambda row: scope.row[index]


def raising(error: type, message: str) -> Compiled:
    """A closure that raises a fresh *error* each time it is evaluated."""
    def raise_error(row):
        raise error(message)
    return raise_error


# -- helpers -------------------------------------------------------------------

def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_datetime(value) -> datetime.datetime:
    if isinstance(value, datetime.datetime):
        return value
    return datetime.datetime(value.year, value.month, value.day)


def _and3(left: object, right: object) -> object:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _or3(left: object, right: object) -> object:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


_LIKE_CACHE: dict[tuple[str, Optional[str]], re.Pattern] = {}


def like_match(value: str, pattern: str, escape: Optional[str]) -> bool:
    """SQL LIKE matching with %/_ wildcards and optional escape character."""
    key = (pattern, escape)
    compiled = _LIKE_CACHE.get(key)
    if compiled is None:
        parts: list[str] = []
        index = 0
        while index < len(pattern):
            char = pattern[index]
            if escape and char == escape and index + 1 < len(pattern):
                parts.append(re.escape(pattern[index + 1]))
                index += 2
                continue
            if char == "%":
                parts.append(".*")
            elif char == "_":
                parts.append(".")
            else:
                parts.append(re.escape(char))
            index += 1
        compiled = re.compile("^" + "".join(parts) + "$", re.DOTALL)
        if len(_LIKE_CACHE) > 4096:
            _LIKE_CACHE.clear()
        _LIKE_CACHE[key] = compiled
    return compiled.match(value) is not None


def cast_value(value: object, target: t.SQLType) -> object:
    """CAST semantics used by both the evaluator and the result pipeline."""
    if value is None:
        return None
    kind = target.kind
    if kind in (t.TypeKind.SMALLINT, t.TypeKind.INTEGER, t.TypeKind.BIGINT):
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int, float)):
            return int(value)
        if isinstance(value, str):
            try:
                return int(value.strip())
            except ValueError as exc:
                raise BackendError(f"cannot cast {value!r} to {kind.value}") from exc
        raise TypeMismatchError(f"cannot cast {type(value).__name__} to {kind.value}")
    if kind in (t.TypeKind.DECIMAL, t.TypeKind.FLOAT):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            result = float(value)
            if kind is t.TypeKind.DECIMAL and target.scale is not None:
                return round(result, target.scale)
            return result
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError as exc:
                raise BackendError(f"cannot cast {value!r} to {kind.value}") from exc
        raise TypeMismatchError(f"cannot cast {type(value).__name__} to {kind.value}")
    if kind in (t.TypeKind.CHAR, t.TypeKind.VARCHAR):
        if isinstance(value, str):
            text = value
        elif isinstance(value, bool):
            text = "TRUE" if value else "FALSE"
        elif isinstance(value, float) and value.is_integer():
            text = str(int(value))
        else:
            text = str(value)
        if target.length is not None:
            text = text[: target.length]
            if kind is t.TypeKind.CHAR:
                text = text.ljust(target.length)
        return text
    if kind is t.TypeKind.DATE:
        if isinstance(value, datetime.datetime):
            return value.date()
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, str):
            try:
                return datetime.date.fromisoformat(value.strip())
            except ValueError as exc:
                raise BackendError(f"cannot cast {value!r} to DATE") from exc
        if isinstance(value, int):
            # Teradata semantics: integer is the internal date encoding.
            try:
                return t.teradata_int_to_date(value)
            except ValueError as exc:
                raise BackendError(f"cannot cast {value!r} to DATE") from exc
        raise TypeMismatchError(f"cannot cast {type(value).__name__} to DATE")
    if kind is t.TypeKind.TIMESTAMP:
        if isinstance(value, datetime.datetime):
            return value
        if isinstance(value, datetime.date):
            return datetime.datetime(value.year, value.month, value.day)
        if isinstance(value, str):
            try:
                return datetime.datetime.fromisoformat(value.strip())
            except ValueError as exc:
                raise BackendError(f"cannot cast {value!r} to TIMESTAMP") from exc
        raise TypeMismatchError(f"cannot cast {type(value).__name__} to TIMESTAMP")
    if kind is t.TypeKind.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return bool(value)
        raise TypeMismatchError(f"cannot cast {type(value).__name__} to BOOLEAN")
    return value
