"""Stored procedure emulation.

Section 6: "emulation of stored procedures inside Hyper-Q requires only
maintaining the execution state (e.g., variable scopes) and driving the
procedure execution by breaking its control flow into multiple SQL
requests." The interpreter below keeps DECLARE'd variables in a mid-tier
scope, evaluates control-flow conditions locally, substitutes variable
references into embedded SQL, and issues each embedded statement through the
regular translation pipeline.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Optional

from repro.errors import EmulationError
from repro.backend.expressions import Env, EvalContext, Evaluator
from repro.core.catalog import ProcedureDef
from repro.frontend.teradata import ast as a
from repro.transform.capabilities import TERADATA
from repro.xtra import relational as r
from repro.xtra import scalars as s
from repro.xtra import types as t
from repro.xtra.relational import OutputColumn

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import HQResult, HyperQSession

_MAX_LOOP_ITERATIONS = 100_000


class _Frame:
    """Variable scope of one procedure invocation."""

    def __init__(self):
        self.variables: dict[str, object] = {}
        self.types: dict[str, t.SQLType] = {}

    def declare(self, name: str, var_type: t.SQLType, value: object) -> None:
        self.variables[name.upper()] = value
        self.types[name.upper()] = var_type

    def set(self, name: str, value: object) -> None:
        key = name.upper()
        if key not in self.variables:
            raise EmulationError(f"undeclared variable {name}")
        self.variables[key] = value

    def context(self) -> EvalContext:
        names = list(self.variables)
        env = Env([OutputColumn(name, self.types.get(name, t.UNKNOWN))
                   for name in names])
        row = tuple(self.variables[name] for name in names)
        return EvalContext(row, env)


class _Interpreter:
    def __init__(self, session: "HyperQSession"):
        self.session = session
        # The evaluator only needs scalar semantics; source (Teradata)
        # profile gives it the most permissive type mixing.
        self.evaluator = Evaluator(TERADATA, self._no_subquery)
        self.last_result: Optional["HQResult"] = None

    def _no_subquery(self, plan, outer):
        raise EmulationError(
            "subqueries in procedure control-flow expressions must be "
            "assigned to a variable via SELECT ... INTO first")

    # -- expression evaluation over the variable frame ----------------------------

    def eval(self, expr: s.ScalarExpr, frame: _Frame) -> object:
        substituted = _substitute_params(copy.deepcopy(expr), frame,
                                         for_eval=True)
        return self.evaluator.eval(substituted, frame.context())

    def eval_bool(self, expr: s.ScalarExpr, frame: _Frame) -> bool:
        return self.eval(expr, frame) is True

    # -- statement execution ---------------------------------------------------------

    def run_block(self, statements: list[a.TdProcStatement], frame: _Frame) -> None:
        for statement in statements:
            self.run_statement(statement, frame)

    def run_statement(self, statement: a.TdProcStatement, frame: _Frame) -> None:
        if isinstance(statement, a.TdDeclare):
            value = None
            if statement.default is not None:
                value = self.eval(statement.default, frame)
            frame.declare(statement.name, statement.type, value)
            return
        if isinstance(statement, a.TdSetVariable):
            frame.set(statement.name, self.eval(statement.value, frame))
            return
        if isinstance(statement, a.TdIf):
            if self.eval_bool(statement.condition, frame):
                self.run_block(statement.then_branch, frame)
            else:
                self.run_block(statement.else_branch, frame)
            return
        if isinstance(statement, a.TdWhile):
            iterations = 0
            while self.eval_bool(statement.condition, frame):
                iterations += 1
                if iterations > _MAX_LOOP_ITERATIONS:
                    raise EmulationError("procedure WHILE loop exceeded limit")
                self.run_block(statement.body, frame)
            return
        if isinstance(statement, a.TdSelectInto):
            self._run_select_into(statement, frame)
            return
        if isinstance(statement, a.TdProcSQL):
            self._run_sql(statement.statement, frame)
            return
        raise EmulationError(
            f"unsupported procedure statement {type(statement).__name__}")

    def _run(self, ast_statement: a.TdStatement, frame: _Frame) -> "HQResult":
        prepared = _substitute_statement(copy.deepcopy(ast_statement), frame)
        return self.session.run_nested(prepared)

    def _run_sql(self, ast_statement: a.TdStatement, frame: _Frame) -> None:
        self.last_result = self._run(ast_statement, frame)

    def _run_select_into(self, statement: a.TdSelectInto, frame: _Frame) -> None:
        rows = self._run(a.TdQuery(statement.select), frame).rows
        if len(rows) != 1:
            raise EmulationError(
                f"SELECT INTO expected exactly one row, got {len(rows)}")
        row = rows[0]
        if len(row) != len(statement.targets):
            raise EmulationError(
                f"SELECT INTO has {len(statement.targets)} targets for "
                f"{len(row)} columns")
        for name, value in zip(statement.targets, row):
            frame.set(name.lstrip(":"), value)


def _substitute_params(expr: s.ScalarExpr, frame: _Frame,
                       for_eval: bool = False) -> s.ScalarExpr:
    """Replace :var parameters (and, for SQL statements, bare references to
    declared variables) with constants from the frame."""

    def replace(node: s.ScalarExpr) -> s.ScalarExpr:
        if isinstance(node, s.Param):
            name = node.name.lstrip(":").upper()
            if name in frame.variables:
                return _const_of(frame.variables[name],
                                 frame.types.get(name, t.UNKNOWN))
            raise EmulationError(f"unknown procedure variable :{name}")
        if not for_eval and isinstance(node, s.ColumnRef) and node.table is None \
                and node.name.upper() in frame.variables:
            name = node.name.upper()
            return _const_of(frame.variables[name],
                             frame.types.get(name, t.UNKNOWN))
        for field_name in node.CHILD_FIELDS:
            value = getattr(node, field_name)
            if isinstance(value, s.ScalarExpr):
                setattr(node, field_name, replace(value))
            elif isinstance(value, list):
                setattr(node, field_name, [
                    replace(item) if isinstance(item, s.ScalarExpr) else item
                    for item in value
                ])
        return node

    return replace(expr)


def _const_of(value: object, declared: t.SQLType) -> s.Const:
    if declared.kind is not t.TypeKind.UNKNOWN:
        return s.Const(value, declared)
    if isinstance(value, bool):
        return s.Const(value, t.BOOLEAN)
    if isinstance(value, int):
        return s.Const(value, t.INTEGER)
    if isinstance(value, float):
        return s.Const(value, t.FLOAT)
    if isinstance(value, str):
        return s.const_str(value)
    return s.Const(value, t.UNKNOWN)


def _substitute_statement(statement: a.TdStatement, frame: _Frame) -> a.TdStatement:
    """Substitute variables into every scalar expression of a statement AST."""

    def fix_expr(expr):
        return _substitute_params(expr, frame) if expr is not None else None

    def fix_select(select: a.TdSelect) -> None:
        terms = [select.first] + [branch for __, __, branch in select.branches]
        for term in terms:
            if isinstance(term, a.TdSelect):
                fix_select(term)
                continue
            core = term
            core.items = [
                a.TdSelectItem(item.star, item.star_qualifier,
                               fix_expr(item.expr), item.alias)
                for item in core.items
            ]
            core.where = fix_expr(core.where)
            core.having = fix_expr(core.having)
            core.qualify = fix_expr(core.qualify)
            core.group_by = [fix_expr(expr) for expr in core.group_by]
            for key in core.order_by:
                key.expr = fix_expr(key.expr)
        for cte in select.ctes:
            fix_select(cte.query)

    if isinstance(statement, a.TdQuery):
        fix_select(statement.select)
    elif isinstance(statement, a.TdInsert):
        if statement.rows is not None:
            statement.rows = [[fix_expr(cell) for cell in row]
                              for row in statement.rows]
        if statement.select is not None:
            fix_select(statement.select)
    elif isinstance(statement, a.TdUpdate):
        statement.assignments = [(name, fix_expr(expr))
                                 for name, expr in statement.assignments]
        statement.where = fix_expr(statement.where)
    elif isinstance(statement, a.TdDelete):
        statement.where = fix_expr(statement.where)
    return statement


def run(session: "HyperQSession", bound: r.Statement) -> "HQResult":
    """CREATE / DROP PROCEDURE keep the definition in the shadow catalog;
    CALL interprets the stored procedure body."""
    from repro.core.engine import HQResult

    shadow = session.engine.shadow
    if isinstance(bound, r.CreateProcedure):
        shadow.add_procedure(
            ProcedureDef(bound.name, bound.parameters, bound.body),
            replace=bound.replace)
        return HQResult(kind="ok")
    if isinstance(bound, r.DropProcedure):
        shadow.drop_procedure(bound.name)
        return HQResult(kind="ok")
    procedure = shadow.procedure(bound.name)
    frame = _Frame()
    interpreter = _Interpreter(session)
    parameters = procedure.parameters
    if len(bound.arguments) > len(parameters):
        raise EmulationError(
            f"procedure {procedure.name} takes {len(parameters)} arguments, "
            f"got {len(bound.arguments)}")
    for index, (mode, name, param_type) in enumerate(parameters):
        value = None
        if index < len(bound.arguments):
            value = interpreter.eval(bound.arguments[index], frame)
        frame.declare(name, param_type, value)
    interpreter.run_block(procedure.body, frame)
    out_params = [(name, frame.variables.get(name.upper()))
                  for mode, name, __ in parameters if mode in ("OUT", "INOUT")]
    if out_params:
        columns = [name for name, __ in out_params]
        rows = [tuple(value for __, value in out_params)]
        return session.fabricate_result(
            columns, [t.UNKNOWN] * len(columns), rows)
    if interpreter.last_result is not None:
        return interpreter.last_result
    return HQResult(kind="ok")
