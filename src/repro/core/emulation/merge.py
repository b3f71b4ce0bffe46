"""MERGE emulation: UPDATE + INSERT against targets without MERGE (Table 2).

The matched branch becomes a correlated UPDATE (scalar subqueries fetch the
source values per target row); the not-matched branch becomes an
INSERT ... SELECT with a NOT EXISTS anti-join guard. Running the UPDATE first
preserves MERGE semantics: freshly inserted rows must not be updated by the
same statement.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING

from repro.xtra import relational as r
from repro.xtra import scalars as s
from repro.xtra import types as t

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import HQResult, HyperQSession


def _match_probe(statement: r.Merge) -> r.RelNode:
    """SELECT 1 FROM <source> WHERE <condition> — correlated to the target."""
    return r.Project(
        r.Filter(copy.deepcopy(statement.source), copy.deepcopy(statement.condition)),
        [s.const_int(1)], ["_ONE"])


def build_update(statement: r.Merge) -> r.Update | None:
    if not statement.matched_assignments:
        return None
    assignments = []
    for name, expr in statement.matched_assignments:
        value = s.SubqueryExpr(
            kind=s.SubqueryKind.SCALAR,
            plan=r.Project(
                r.Filter(copy.deepcopy(statement.source),
                         copy.deepcopy(statement.condition)),
                [copy.deepcopy(expr)], ["_V"]))
        value.type = expr.type
        assignments.append((name, value))
    exists = s.SubqueryExpr(kind=s.SubqueryKind.EXISTS, plan=_match_probe(statement))
    exists.type = t.BOOLEAN
    return r.Update(statement.target, assignments, exists, statement.target_alias)


def build_insert(statement: r.Merge) -> r.Insert | None:
    if not statement.insert_columns or statement.insert_values is None:
        return None
    # Anti-join: source rows with no matching target row.
    target_alias = statement.target_alias
    inner_filter = r.Filter(
        r.Get(_target_schema(statement), target_alias),
        copy.deepcopy(statement.condition))
    probe = r.Project(inner_filter, [s.const_int(1)], ["_ONE"])
    not_exists = s.SubqueryExpr(kind=s.SubqueryKind.EXISTS, plan=probe,
                                negated=True)
    not_exists.type = t.BOOLEAN
    source = r.Project(
        r.Filter(copy.deepcopy(statement.source), not_exists),
        [copy.deepcopy(expr) for expr in statement.insert_values],
        [name.upper() for name in statement.insert_columns])
    return r.Insert(statement.target, list(statement.insert_columns), source)


def _target_schema(statement: r.Merge):
    schema = getattr(statement, "_target_schema", None)
    if schema is None:
        raise RuntimeError("merge emulation requires the target schema "
                           "(set by run())")
    return schema


def run(session: "HyperQSession", statement: r.Merge) -> "HQResult":
    from repro.core.engine import HQResult

    schema = session.catalog.table(statement.target)
    statement._target_schema = schema  # type: ignore[attr-defined]

    affected = 0
    target_sql: list[str] = []
    for step in (build_update(statement), build_insert(statement)):
        if step is not None:
            affected += session.run_step(step, target_sql)
    return HQResult(kind="count", rowcount=affected, target_sql=target_sql)
