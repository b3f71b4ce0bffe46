"""Subquery decorrelation for the backend executor.

Naive correlated-subquery evaluation re-executes the inner plan per outer
row — O(outer x inner). Real engines unnest; this module implements the two
rewrites analytical workloads live on:

* **EXISTS / NOT EXISTS** with conjunctive equality correlation becomes a
  hash **semi/anti join**: the inner side is evaluated once, keyed by the
  correlated columns, and each outer row probes the hash set.
* **Scalar aggregate** subqueries (``= (SELECT MIN(x) ... WHERE inner.k =
  outer.k)``) become a **group-by**: the global aggregate is re-grouped by
  the correlation keys and outer rows probe the per-key aggregate, with the
  empty-input aggregate value (NULL, or 0 for COUNT) served on misses.

Anything that doesn't match the shape falls back to per-row evaluation, so
the rewrite is purely an optimization with identical semantics.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.backend import functions as fl
from repro.backend.expressions import (
    Env, EvalContext, UnresolvedColumnError, hashable_row,
)
from repro.xtra import relational as r
from repro.xtra import scalars as s
from repro.xtra.relational import OutputColumn, RelNode
from repro.xtra.scalars import ScalarExpr
from repro.xtra.visitor import walk_scalars


def _resolves_fully(expr: ScalarExpr, env: Env) -> bool:
    """True if every column reference (outside nested subqueries) resolves in
    *env* and the expression contains no nested subquery."""
    for node in walk_scalars(expr):
        if isinstance(node, s.SubqueryExpr):
            return False
        if isinstance(node, s.ColumnRef):
            try:
                if env.try_resolve(node.name, node.table) is None:
                    return False
            except Exception:
                return False
    return True


def _has_column_refs(expr: ScalarExpr) -> bool:
    return any(isinstance(node, s.ColumnRef) for node in walk_scalars(expr))


def _contains_subquery(expr: ScalarExpr) -> bool:
    return any(isinstance(node, s.SubqueryExpr) for node in walk_scalars(expr))


def _conjuncts(expr: ScalarExpr) -> list[ScalarExpr]:
    if isinstance(expr, s.BoolOp) and expr.op is s.BoolOpKind.AND:
        out: list[ScalarExpr] = []
        for arg in expr.args:
            out.extend(_conjuncts(arg))
        return out
    return [expr]


#: A per-row probe standing in for the subquery: input row -> value.
Probe = Callable[[tuple], object]
#: A decorrelated subquery: its inner side is already evaluated; calling it
#: with an operator's ``(env, outer)`` compiles that operator's probe.
Binder = Callable[[Env, Optional[EvalContext]], Probe]


def build_index(executor, subq: s.SubqueryExpr) -> Optional[Binder]:
    """Try to decorrelate *subq*; returns None when the shape doesn't fit."""
    if subq.kind not in (s.SubqueryKind.EXISTS, s.SubqueryKind.SCALAR):
        return None
    plan = subq.plan
    projection: Optional[r.Project] = None
    node: RelNode = plan
    if isinstance(node, r.Project):
        projection = node
        node = node.child
    aggregate: Optional[r.Aggregate] = None
    if isinstance(node, r.Aggregate) and not node.group_by \
            and node.kind is r.GroupingKind.SIMPLE:
        aggregate = node
        node = node.child
    if not isinstance(node, r.Filter):
        return None
    predicate = node.predicate
    source = node.child
    if any(isinstance(n, r.CTERef) for n in _walk(source)):
        return None  # CTE contents change across recursion rounds

    try:
        inner_env = Env(source.output_columns())
    except Exception:
        return None

    pairs: list[tuple[ScalarExpr, ScalarExpr]] = []  # (inner, outer)
    residual: list[ScalarExpr] = []
    correlated_residual: list[ScalarExpr] = []
    for conjunct in _conjuncts(predicate):
        if isinstance(conjunct, s.Comp) and conjunct.op is s.CompOp.EQ:
            left_in = _resolves_fully(conjunct.left, inner_env)
            right_in = _resolves_fully(conjunct.right, inner_env)
            if left_in and not right_in and _has_column_refs(conjunct.right):
                pairs.append((conjunct.left, conjunct.right))
                continue
            if right_in and not left_in and _has_column_refs(conjunct.left):
                pairs.append((conjunct.right, conjunct.left))
                continue
        if _resolves_fully(conjunct, inner_env):
            residual.append(conjunct)
            continue
        if _contains_subquery(conjunct):
            return None
        # Mixed inner/outer predicate: checked per bucket row at probe time
        # (EXISTS only; the scalar-aggregate path needs clean grouping).
        correlated_residual.append(conjunct)
    if not pairs:
        return None
    if correlated_residual and subq.kind is not s.SubqueryKind.EXISTS:
        return None

    filtered: RelNode = source
    residual_pred = s.conjoin(residual)
    if residual_pred is not None:
        filtered = r.Filter(source, residual_pred)

    key_names = [f"_K{i}" for i in range(len(pairs))]
    inner_exprs = [inner for inner, __ in pairs]
    outer_exprs = [outer for __, outer in pairs]
    evaluator = executor.evaluator

    if subq.kind is s.SubqueryKind.EXISTS and aggregate is None:
        negated = subq.negated
        if not correlated_residual:
            keyed = r.Project(filtered, list(inner_exprs), key_names)
            try:
                __, rows = executor.run(keyed, None)
            except UnresolvedColumnError:
                return None
            key_set = {hashable_row(row) for row in rows if None not in row}

            def bind_exists(env: Env, outer: Optional[EvalContext]) -> Probe:
                outer_key = evaluator.compile_row(outer_exprs, env, outer)

                def probe_exists(row: tuple) -> object:
                    key = hashable_row(outer_key(row))
                    hit = None not in key and key in key_set
                    return (not hit) if negated else hit
                return probe_exists

            return bind_exists

        # Residual correlation: bucket full inner rows by key, evaluate the
        # residual per candidate against the outer context (semi join with
        # residual predicate).
        try:
            inner_cols, inner_rows = executor.run(filtered, None)
        except UnresolvedColumnError:
            return None
        bucket_env = Env(inner_cols)
        inner_key = evaluator.compile_row(inner_exprs, bucket_env, None)
        buckets: dict[tuple, list[tuple]] = {}
        for row in inner_rows:
            key = hashable_row(inner_key(row))
            if None in key:
                continue
            buckets.setdefault(key, []).append(row)
        residual_pred = s.conjoin(list(correlated_residual))

        def bind_exists_residual(env: Env, outer: Optional[EvalContext]) -> Probe:
            outer_key = evaluator.compile_row(outer_exprs, env, outer)
            # The residual reads the probing row through this context,
            # re-pointed before each bucket scan.
            probing = EvalContext((), env, outer)
            residual = evaluator.compile(residual_pred, bucket_env, probing)

            def probe_exists_residual(row: tuple) -> object:
                key = hashable_row(outer_key(row))
                hit = False
                if None not in key:
                    probing.row = row
                    hit = any(residual(inner) is True
                              for inner in buckets.get(key, ()))
                return (not hit) if negated else hit
            return probe_exists_residual

        return bind_exists_residual

    if subq.kind is s.SubqueryKind.SCALAR and aggregate is not None \
            and projection is not None:
        if len(projection.exprs) != 1:
            return None
        grouped = r.Aggregate(filtered, list(inner_exprs), key_names,
                              aggregate.aggs, aggregate.agg_names)
        try:
            columns, rows = executor.run(grouped, None)
        except UnresolvedColumnError:
            return None
        value_of = evaluator.compile(projection.exprs[0], Env(columns), None)
        table: dict[tuple, object] = {}
        for row in rows:
            key = hashable_row(row[:len(pairs)])
            if None in key:
                continue
            table[key] = value_of(row)
        # Aggregate-over-empty-input default (NULL, or 0 for COUNT).
        defaults = tuple([None] * len(pairs) + [
            fl.make_accumulator(agg.name, agg.distinct, agg.star).result()
            for agg in aggregate.aggs
        ])
        default_value = value_of(defaults)

        def bind_scalar(env: Env, outer: Optional[EvalContext]) -> Probe:
            outer_key = evaluator.compile_row(outer_exprs, env, outer)

            def probe_scalar(row: tuple) -> object:
                key = hashable_row(outer_key(row))
                if None in key:
                    return default_value
                return table.get(key, default_value)
            return probe_scalar

        return bind_scalar

    return None


def collect_subqueries(expr: ScalarExpr) -> list[s.SubqueryExpr]:
    """Subquery nodes of a predicate (without descending into their plans)."""
    return [node for node in walk_scalars(expr)
            if isinstance(node, s.SubqueryExpr)]


def _walk(node: RelNode):
    yield node
    for child in node.children():
        yield from _walk(child)

