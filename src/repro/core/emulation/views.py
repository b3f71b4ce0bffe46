"""DML-on-view emulation (Table 2: "Express DML operation on the base table
of the view").

Teradata permits INSERT/UPDATE/DELETE through simple views; most cloud
targets do not. Hyper-Q keeps the view's *source-dialect* definition in its
shadow catalog, re-parses it, checks updatability (single base table, plain
column projections, optional WHERE), and rewrites the DML against the base
table — folding the view predicate into UPDATE/DELETE so rows outside the
view stay untouched.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Optional

from repro.errors import EmulationError
from repro.frontend.teradata import ast as a
from repro.xtra import relational as r
from repro.xtra import scalars as s

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import HQResult, HyperQSession


class _ViewInfo:
    """Updatability analysis of one view definition."""

    def __init__(self, base_table: str, column_map: dict[str, str],
                 where: Optional[s.ScalarExpr]):
        self.base_table = base_table
        self.column_map = column_map  # view column -> base column
        self.where = where


def analyze(session: "HyperQSession", view_name: str) -> _ViewInfo:
    schema = session.catalog.resolve(view_name)
    if schema is None or not schema.is_view or not schema.view_sql:
        raise EmulationError(f"{view_name} is not an updatable view")
    ast = session.parser.parse_statement(schema.view_sql)
    if not isinstance(ast, a.TdQuery):
        raise EmulationError(f"view {view_name} does not wrap a query")
    select = ast.select
    if select.ctes or select.branches or not isinstance(select.first, a.TdSelectCore):
        raise EmulationError(f"view {view_name} is too complex for DML")
    core = select.first
    if len(core.from_refs) != 1 or not isinstance(core.from_refs[0], a.TdTableName):
        raise EmulationError(f"view {view_name} must reference one base table")
    if core.group_by or core.having or core.qualify or core.distinct or core.top:
        raise EmulationError(f"view {view_name} is not updatable")
    base = core.from_refs[0].name.upper()
    column_map: dict[str, str] = {}
    declared = [col.name for col in schema.columns]
    position = 0
    for item in core.items:
        if item.star:
            base_schema = session.catalog.table(base)
            for col in base_schema.columns:
                if position < len(declared):
                    column_map[declared[position]] = col.name
                position += 1
            continue
        if not isinstance(item.expr, s.ColumnRef):
            raise EmulationError(
                f"view {view_name}: computed columns are not updatable")
        if position < len(declared):
            column_map[declared[position]] = item.expr.name.upper()
        position += 1
    where = core.where
    return _ViewInfo(base, column_map, where)


def _map_column(info: _ViewInfo, view_name: str, name: str) -> str:
    mapped = info.column_map.get(name.upper())
    if mapped is None:
        raise EmulationError(
            f"view {view_name} has no column {name}")
    return mapped


def _rebase_predicate(session: "HyperQSession", info: _ViewInfo,
                      view_name: str, predicate: Optional[s.ScalarExpr],
                      base_alias: Optional[str]) -> Optional[s.ScalarExpr]:
    """Rewrite a bound view-DML predicate onto base-table columns and fold
    in the view's own WHERE clause."""
    rebound: Optional[s.ScalarExpr] = None
    if predicate is not None:
        def rewrite(node: s.ScalarExpr) -> s.ScalarExpr:
            if isinstance(node, s.ColumnRef):
                return s.ColumnRef(_map_column(info, view_name, node.name),
                                   base_alias or info.base_table, node.type)
            for field_name in node.CHILD_FIELDS:
                value = getattr(node, field_name)
                if isinstance(value, s.ScalarExpr):
                    setattr(node, field_name, rewrite(value))
                elif isinstance(value, list):
                    setattr(node, field_name, [
                        rewrite(item) if isinstance(item, s.ScalarExpr) else item
                        for item in value
                    ])
            return node

        rebound = rewrite(copy.deepcopy(predicate))
    view_where = None
    if info.where is not None:
        # Bind the view's stored WHERE against the base table.
        table = session.catalog.table(info.base_table)
        from repro.frontend.teradata.binder import Binder, _Scope
        from repro.xtra.relational import OutputColumn

        scope = _Scope([OutputColumn(col.name, col.type,
                                     (base_alias or info.base_table).upper())
                        for col in table.columns])
        view_where = session.binder._bind_expr(copy.deepcopy(info.where), scope)
    return s.conjoin([p for p in (rebound, view_where) if p is not None])


def run_dml(session: "HyperQSession", bound: r.Statement) -> "HQResult":
    if isinstance(bound, r.Insert):
        return _run_insert(session, bound)
    if isinstance(bound, r.Update):
        return _run_update(session, bound)
    if isinstance(bound, r.Delete):
        return _run_delete(session, bound)
    raise EmulationError(f"unsupported view DML {type(bound).__name__}")


def _run_insert(session: "HyperQSession", bound: r.Insert) -> "HQResult":
    info = analyze(session, bound.table)
    view_schema = session.catalog.resolve(bound.table)
    assert view_schema is not None
    view_columns = bound.columns or [col.name for col in view_schema.columns]
    base_columns = [_map_column(info, bound.table, name) for name in view_columns]
    rewritten = r.Insert(info.base_table, base_columns, bound.source)
    return session.run_translated(rewritten)


def _run_update(session: "HyperQSession", bound: r.Update) -> "HQResult":
    info = analyze(session, bound.table)
    assignments = [(_map_column(info, bound.table, name), expr)
                   for name, expr in bound.assignments]
    predicate = _rebase_predicate(session, info, bound.table, bound.predicate,
                                  None)
    rewritten = r.Update(info.base_table, assignments, predicate, None)
    # Assignment expressions may reference view columns; rebase those too.
    rewritten.assignments = [
        (name, _rebase_expr(info, bound.table, expr))
        for name, expr in rewritten.assignments
    ]
    return session.run_translated(rewritten)


def _rebase_expr(info: _ViewInfo, view_name: str,
                 expr: s.ScalarExpr) -> s.ScalarExpr:
    def rewrite(node: s.ScalarExpr) -> s.ScalarExpr:
        if isinstance(node, s.ColumnRef):
            return s.ColumnRef(_map_column(info, view_name, node.name),
                               info.base_table, node.type)
        for field_name in node.CHILD_FIELDS:
            value = getattr(node, field_name)
            if isinstance(value, s.ScalarExpr):
                setattr(node, field_name, rewrite(value))
            elif isinstance(value, list):
                setattr(node, field_name, [
                    rewrite(item) if isinstance(item, s.ScalarExpr) else item
                    for item in value
                ])
        return node

    return rewrite(copy.deepcopy(expr))


def _run_delete(session: "HyperQSession", bound: r.Delete) -> "HQResult":
    info = analyze(session, bound.table)
    predicate = _rebase_predicate(session, info, bound.table, bound.predicate,
                                  None)
    rewritten = r.Delete(info.base_table, predicate, None)
    return session.run_translated(rewritten)
