"""SET-table semantics emulation.

Teradata SET tables silently reject duplicate rows on INSERT. Targets store
multisets, so Hyper-Q reconstructs the semantics in the mid-tier: stage the
incoming rows in a temporary table, then insert only the distinct stagers
that do not already exist in the target table (NULL-safe equality), and drop
the stage. One source INSERT becomes four target requests.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING

from repro.core.emulation import column_props
from repro.xtra import relational as r
from repro.xtra import scalars as s
from repro.xtra import types as t
from repro.xtra.schema import ColumnSchema, TableSchema

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import HQResult, HyperQSession


def _null_safe_equal(left: s.ColumnRef, right: s.ColumnRef) -> s.ScalarExpr:
    both_null = s.BoolOp(s.BoolOpKind.AND, [
        s.IsNull(copy.deepcopy(left)), s.IsNull(copy.deepcopy(right))])
    return s.BoolOp(s.BoolOpKind.OR, [s.Comp(s.CompOp.EQ, left, right), both_null])


def run_insert(session: "HyperQSession", bound: r.Insert) -> "HQResult":
    from repro.core.engine import HQResult

    schema = session.catalog.table(bound.table)
    bound = column_props.fill_nonconstant_defaults(session, schema, bound)
    target_columns = bound.columns or [col.name for col in schema.columns]
    stage = TableSchema(
        session.fresh_temp_name("SETSTAGE"),
        [ColumnSchema(name, schema.column(name).type) for name in target_columns],
        volatile=True,
    )
    target_sql: list[str] = []
    try:
        session.run_step(r.CreateTable(stage), target_sql)
        session.run_step(
            r.Insert(stage.name, list(target_columns), bound.source),
            target_sql)
        # Distinct stage rows that do not already exist in the target.
        stage_get = r.Get(stage, "_STG")
        probe_get = r.Get(schema, "_TGT")
        pairs = [
            _null_safe_equal(
                s.ColumnRef(name, "_TGT", schema.column(name).type),
                s.ColumnRef(name, "_STG", schema.column(name).type))
            for name in target_columns
        ]
        predicate = s.conjoin(pairs)
        assert predicate is not None
        probe = r.Project(r.Filter(probe_get, predicate),
                          [s.const_int(1)], ["_ONE"])
        anti = s.SubqueryExpr(kind=s.SubqueryKind.EXISTS, plan=probe, negated=True)
        anti.type = t.BOOLEAN
        source = r.Distinct(r.Project(
            r.Filter(stage_get, anti),
            [s.ColumnRef(name, "_STG", schema.column(name).type)
             for name in target_columns],
            list(target_columns)))
        inserted = session.run_step(
            r.Insert(schema.name, list(target_columns), source), target_sql)
        return HQResult(kind="count", rowcount=inserted, target_sql=target_sql)
    finally:
        session.drop_scratch([stage.name])
