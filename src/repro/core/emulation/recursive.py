"""Recursive query emulation via WorkTable/TempTable loops (Section 6).

When the target lacks ``WITH RECURSIVE``, Hyper-Q drives the fixpoint itself
with two temporary tables per recursive CTE:

1. seed both WorkTable (all rows so far) and TempTable (last delta),
2. run the recursive term with the self-reference redirected at TempTable,
3. append the delta to WorkTable and replace TempTable's contents,
4. stop when the delta is empty,
5. run the main query with the CTE reference redirected at WorkTable,
6. drop both tables.

The loop inspects target row counts to decide termination — mid-tier state
driving multi-request execution, exactly the paper's Figure 7 walk-through.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING

from repro.errors import EmulationError
from repro.xtra import relational as r
from repro.xtra import scalars as s_mod
from repro.xtra import types as t
from repro.xtra.relational import RelNode
from repro.xtra.schema import ColumnSchema, TableSchema
from repro.xtra.visitor import rewrite_rel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import HQResult, HyperQSession

_MAX_ROUNDS = 10_000


def _redirect(plan: RelNode, name: str, table: TableSchema) -> RelNode:
    """Replace CTERef(name) nodes with scans of *table* (aliased alike)."""

    def rel_fn(node: RelNode) -> RelNode:
        if isinstance(node, r.CTERef) and node.name.upper() == name.upper():
            return r.Get(table, node.alias or name)
        return node

    return rewrite_rel(copy.deepcopy(plan), rel_fn, lambda e: e)


def _flatten_union_all(plan: RelNode) -> list[RelNode]:
    if isinstance(plan, r.SetOp) and plan.kind is r.SetOpKind.UNION and plan.all:
        return _flatten_union_all(plan.left) + _flatten_union_all(plan.right)
    return [plan]


def run(session: "HyperQSession", bound: r.Query) -> "HQResult":
    """Execute a query whose plan contains recursive CTEs."""
    plan = bound.plan
    if not isinstance(plan, r.With):
        raise EmulationError("recursive emulation expects a WITH plan")

    redirects: dict[str, TableSchema] = {}
    cleanup: list[str] = []
    target_sql: list[str] = []
    try:
        for cte in plan.ctes:
            cte_plan = _apply_redirects(cte.plan, redirects)
            if cte.recursive:
                schema = _run_recursive(session, cte, cte_plan, cleanup,
                                        target_sql)
            else:
                # Non-recursive CTE: materialize once into a temp table.
                schema = _temp_schema(session, cte.name, cte_plan,
                                      cte.column_names)
                _create_temp_as(session, schema, cte_plan, cleanup,
                                target_sql)
            redirects[cte.name.upper()] = schema
        final = r.Query(_apply_redirects(plan.body, redirects))
        result = session.run_translated(final)
        result.target_sql = target_sql + result.target_sql
        return result
    finally:
        session.drop_scratch(cleanup)


def _apply_redirects(plan: RelNode, redirects: dict[str, TableSchema]) -> RelNode:
    for name, schema in redirects.items():
        plan = _redirect(plan, name, schema)
    return plan


def _temp_schema(session: "HyperQSession", prefix: str, plan: RelNode,
                 names: list[str] | None = None) -> TableSchema:
    columns = []
    output = plan.output_columns()
    for index, col in enumerate(output):
        name = names[index].upper() if names else col.name
        columns.append(ColumnSchema(name, col.type))
    return TableSchema(session.fresh_temp_name(prefix), columns, volatile=True)


def _renamed(plan: RelNode, schema: TableSchema) -> RelNode:
    """Wrap *plan* so its output carries the scratch table's column names."""
    alias = "_SEED"
    derived = r.DerivedTable(copy.deepcopy(plan), alias,
                             [col.name for col in schema.columns])
    refs = [s_mod.ColumnRef(col.name, alias, col.type)
            for col in schema.columns]
    return r.Project(derived, refs, [col.name for col in schema.columns])


def _create_temp_as(session: "HyperQSession", schema: TableSchema,
                    plan: RelNode, cleanup: list[str],
                    target_sql: list[str]) -> int:
    """CREATE TEMPORARY TABLE ... AS <plan>: the target infers column types
    itself, which keeps the emulation frontend-agnostic."""
    produced = session.run_step(r.CreateTable(schema, _renamed(plan, schema)),
                                target_sql)
    cleanup.append(schema.name)
    return produced


def _insert_from_plan(session: "HyperQSession", table: TableSchema,
                      plan: RelNode, target_sql: list[str]) -> int:
    return session.run_step(r.Insert(table.name, None, copy.deepcopy(plan)),
                            target_sql)


def _run_recursive(session: "HyperQSession", cte: r.CTEDef, cte_plan: RelNode,
                   cleanup: list[str], target_sql: list[str]) -> TableSchema:
    branches = _flatten_union_all(cte_plan)
    if len(branches) < 2:
        raise EmulationError(
            f"recursive CTE {cte.name} must be <seed> UNION ALL <recursive>")
    seed, recursive_terms = branches[0], branches[1:]

    names = cte.column_names
    work = _temp_schema(session, "WORK", seed, names)
    temp = _temp_schema(session, "TEMP", seed, names)
    delta = _temp_schema(session, "DELTA", seed, names)

    # Step 1: seed both WorkTable and TempTable (CTAS so the target infers
    # the scratch column types); DELTA starts empty.
    _create_temp_as(session, work, seed, cleanup, target_sql)
    produced = _create_temp_as(session, temp, seed, cleanup, target_sql)
    _create_temp_as(session, delta, seed, cleanup, target_sql)
    _truncate(session, delta, target_sql)

    rounds = 0
    while produced:
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise EmulationError(
                f"recursive CTE {cte.name} exceeded {_MAX_ROUNDS} rounds")
        # Step 2: evaluate the recursive terms against TempTable.
        produced = 0
        for term in recursive_terms:
            redirected = _redirect(term, cte.name, temp)
            produced += _insert_from_plan(session, delta, redirected,
                                          target_sql)
        # Step 3: append delta to WorkTable, move delta into TempTable.
        if produced:
            scan = r.Get(delta, None)
            _insert_from_plan(session, work, scan, target_sql)
            _truncate(session, temp, target_sql)
            _insert_from_plan(session, temp, r.Get(delta, None), target_sql)
        _truncate(session, delta, target_sql)
    return work


def _truncate(session: "HyperQSession", table: TableSchema,
              target_sql: list[str]) -> None:
    sql = f"DELETE FROM {table.name}"
    target_sql.append(sql)
    session.run_target_sql(sql)
