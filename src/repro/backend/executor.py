"""Plan execution for the backend database.

Executes XTRA relational plans directly: scans, filters, projections, hash and
nested-loop joins, hash aggregation (with grouping-set expansion when the
capability profile enables it), window functions, sorting with explicit NULL
placement, set operations, LIMIT/TOP, and (when enabled) recursive CTE
iteration. Rows are plain tuples.

Operators follow a pull-based Volcano discipline: every handler returns
``(output columns, row iterable)`` where the iterable is a generator for
pipelined operators (scan, filter, project, distinct, limit, join probe,
streaming set ops) and a list for pipeline breakers (sort, aggregate,
window, join build side). The plan *tree* is instantiated eagerly — catalog
lookups, CTE binding, and table snapshots all happen at call time — but row
flow is lazy, so :meth:`Executor.run_stream` delivers the first batch before
the last one is produced and never materializes a pipelined result.
:meth:`Executor.run` is the materializing wrapper used by DML, subquery
evaluation, and every pre-streaming caller.

Any operator whose expressions contain subqueries falls back to eager
materialization: correlated subqueries may reference CTE frames that are
only guaranteed alive while the enclosing ``WITH`` executes.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Optional

from repro.errors import BackendError
from repro.transform.capabilities import CapabilityProfile, NullOrdering
from repro.backend.catalog import Catalog
from repro.backend.expressions import (
    Env, EvalContext, Evaluator, UnresolvedColumnError, hashable_row, raising,
    row_builder,
)
from repro.backend import functions as fl
from repro.xtra.relational import (
    Aggregate, CTERef, DerivedTable, Distinct, Filter, Get, GroupingKind,
    Join, JoinKind, Limit, OutputColumn, Project, RelNode, SetOp, SetOpKind,
    Sort, Values, Window, With,
)
from repro.xtra.scalars import (
    BoolOp, BoolOpKind, ColumnRef, Comp, CompOp, ScalarExpr, SortKey,
    WindowFunc, conjoin,
)

_MAX_RECURSION_ROUNDS = 10_000

_CORRELATED = object()  # sentinel: plan observed to need outer context


def walk_rel_nodes(node: RelNode):
    yield node
    for child in node.children():
        yield from walk_rel_nodes(child)


class Executor:
    """Executes relational plans against a catalog."""

    def __init__(self, catalog: Catalog, profile: CapabilityProfile,
                 faults=None, replica: Optional[int] = None):
        self._catalog = catalog
        self._profile = profile
        self._faults = faults
        self._replica = replica
        self._evaluator = Evaluator(profile, self._run_subquery)
        self._cte_frames: list[dict[str, tuple[list[OutputColumn], list[tuple]]]] = []
        # id(plan) -> cached uncorrelated result, or _CORRELATED sentinel.
        self._subquery_cache: dict[int, object] = {}

    # -- public API ------------------------------------------------------------

    @property
    def evaluator(self) -> Evaluator:
        """The executor's scalar evaluator (used by the DML layer)."""
        return self._evaluator

    def run(self, plan: RelNode,
            outer: Optional[EvalContext] = None) -> tuple[list[OutputColumn], list[tuple]]:
        """Execute *plan*, returning (output columns, materialized row list).

        Plans are optimized (predicate pushdown) in place on first execution.
        """
        columns, rows = self._stream(plan, outer)
        return columns, _as_list(rows)

    def run_stream(self, plan: RelNode, batch_rows: int = 1024,
                   outer: Optional[EvalContext] = None,
                   ) -> tuple[list[OutputColumn], Iterator[list[tuple]]]:
        """Execute *plan*, returning (output columns, batch iterator).

        Batches hold at most *batch_rows* rows each and are produced on
        demand: pipelined plans yield their first batch before the scan has
        finished. Fault checkpoints and plan optimization still happen
        eagerly, before this call returns, so a retried plan has no partial
        effects.
        """
        columns, rows = self._stream(plan, outer)
        return columns, _batched(rows, batch_rows)

    def _stream(self, plan: RelNode, outer: Optional[EvalContext]):
        if self._faults is not None and outer is None:
            # Fault checkpoint: the warehouse itself hiccups mid-plan.
            # Fires before any rows move, so a retried plan re-executes
            # from scratch with no partial effects.
            from repro.core.faults import apply_fault

            apply_fault(self._faults.draw("executor",
                                          op=type(plan).__name__,
                                          replica=self._replica))
        if not getattr(plan, "_optimized", False):
            from repro.backend.optimizer import optimize

            plan = optimize(plan)
            plan._optimized = True  # type: ignore[attr-defined]
        return self._execute(plan, outer)

    # -- dispatch ----------------------------------------------------------------

    def _run_subquery(self, plan: RelNode, outer: Optional[EvalContext]):
        # Uncorrelated subqueries execute once and are cached by plan
        # identity (never when CTE references are involved: recursion
        # rebinds them between rounds). Results materialize: the evaluator
        # indexes into them and cached results are shared across rows.
        cached = self._subquery_cache.get(id(plan))
        if cached is _CORRELATED:
            return self._materialize(plan, outer)
        if cached is not None:
            return cached
        if any(isinstance(node, CTERef) for node in walk_rel_nodes(plan)):
            return self._materialize(plan, outer)
        try:
            result = self._materialize(plan, None)
        except UnresolvedColumnError:
            self._subquery_cache[id(plan)] = _CORRELATED
            return self._materialize(plan, outer)
        self._subquery_cache[id(plan)] = result
        return result

    def _execute(self, plan: RelNode, outer: Optional[EvalContext]):
        handler = self._HANDLERS.get(type(plan))
        if handler is None:
            raise BackendError(f"cannot execute {type(plan).__name__}")
        return handler(self, plan, outer)

    def _materialize(self, plan: RelNode, outer: Optional[EvalContext]):
        columns, rows = self._execute(plan, outer)
        return columns, _as_list(rows)

    # -- leaf operators ------------------------------------------------------------

    def _get(self, node: Get, outer):
        # Snapshot eagerly (pointer copy): row flow may outlive the
        # statement lock, but the rows visible are the ones at plan time.
        table = self._catalog.table(node.table.name)
        return node.output_columns(), list(table.rows)

    def _values(self, node: Values, outer):
        # Eager: VALUES cells may contain subquery expressions.
        env = Env([])
        compile_ = self._evaluator.compile
        rows = [tuple(compile_(cell, env, outer)(()) for cell in row)
                for row in node.rows]
        return node.output_columns(), rows

    def _cte_ref(self, node: CTERef, outer):
        for frame in reversed(self._cte_frames):
            if node.name.upper() in frame:
                __, rows = frame[node.name.upper()]
                return node.output_columns(), list(rows)
        raise BackendError(f"unknown CTE reference {node.name}")

    # -- unary operators ---------------------------------------------------------

    def _filter(self, node: Filter, outer):
        from repro.backend import decorrelate

        columns, rows = self._execute(node.child, outer)
        env = Env(columns)
        subqueries = decorrelate.collect_subqueries(node.predicate)
        if not subqueries:
            predicate = self._evaluator.compile(node.predicate, env, outer)
            return node.output_columns(), (
                row for row in rows if predicate(row) is True)
        # Subquery predicates evaluate eagerly (CTE frames must be alive).
        # Decorrelate eligible subqueries into hash probes before the
        # predicate compiles (it binds the probes); ineligible ones fall
        # back to per-row evaluation.
        rows = _as_list(rows)
        overrides = self._evaluator.subquery_overrides
        installed: list[int] = []
        try:
            if len(rows) > 8:
                for subq in subqueries:
                    if id(subq) in overrides:
                        continue
                    bind = decorrelate.build_index(self, subq)
                    if bind is not None:
                        overrides[id(subq)] = bind
                        installed.append(id(subq))
            predicate = self._evaluator.compile(node.predicate, env, outer)
            kept = [row for row in rows if predicate(row) is True]
        finally:
            for key in installed:
                overrides.pop(key, None)
        return node.output_columns(), kept

    def _project(self, node: Project, outer):
        columns, rows = self._execute(node.child, outer)
        env = Env(columns)
        if env.column_indices(node.exprs) == list(range(len(columns))):
            # The child's columns, in order: its rows are the output.
            return node.output_columns(), rows
        project = self._evaluator.compile_row(node.exprs, env, outer)
        if any(_contains_subquery(expr) for expr in node.exprs):
            # Eager: scalar subqueries may reference CTE frames.
            return node.output_columns(), [project(row) for row in rows]
        return node.output_columns(), map(project, rows)

    def _derived(self, node: DerivedTable, outer):
        __, rows = self._execute(node.child, outer)
        return node.output_columns(), rows

    def _distinct(self, node: Distinct, outer):
        columns, rows = self._execute(node.child, outer)
        return columns, _dedupe_stream(rows)

    def _sort(self, node: Sort, outer):
        columns, rows = self._materialize(node.child, outer)
        env = Env(columns)
        sorted_rows = self._sort_rows(rows, node.keys, env, outer)
        return columns, sorted_rows

    def _sort_rows(self, rows: list[tuple], keys: list[SortKey], env: Env, outer):
        """Stable multi-key sort honoring per-key NULL placement."""
        default_first = self._profile.default_null_ordering is NullOrdering.NULLS_FIRST
        decorated = list(rows)
        for key in reversed(keys):
            value_of = self._evaluator.compile(key.expr, env, outer)
            values = [value_of(row) for row in decorated]
            # default_null_ordering is defined per *ascending* key: the engine
            # treats NULL as an extreme value, so a DESC key flips placement.
            default = default_first if key.ascending else not default_first
            nulls_first = key.nulls_first if key.nulls_first is not None else default
            reverse = not key.ascending
            if reverse:
                null_rank = 1 if nulls_first else 0
            else:
                null_rank = 0 if nulls_first else 1
            paired = sorted(
                zip(values, decorated),
                key=lambda pair: (null_rank, 0) if pair[0] is None
                else (1 - null_rank, _sort_value(pair[0])),
                reverse=reverse,
            )
            decorated = [row for __, row in paired]
        return decorated

    def _limit(self, node: Limit, outer):
        columns, rows = self._execute(node.child, outer)
        start = node.offset
        if node.count is None:
            if start == 0:
                return columns, rows
            return columns, islice(iter(rows), start, None)
        end = start + node.count
        if node.with_ties:
            if not self._profile.top_with_ties:
                raise BackendError("TOP ... WITH TIES is not supported by this system")
            rows = _as_list(rows)
            if not isinstance(node.child, Sort) or end >= len(rows):
                return columns, rows[start:end]
            env = Env(columns)
            keys = [self._evaluator.compile(key.expr, env, outer)
                    for key in node.child.keys]
            boundary = rows[end - 1]
            while end < len(rows) and self._same_sort_key(rows[end], boundary, keys):
                end += 1
            return columns, rows[start:end]
        # Early termination: stop pulling the child once the window is full.
        return columns, islice(iter(rows), start, end)

    def _same_sort_key(self, row_a, row_b, keys) -> bool:
        for value_of in keys:
            value_a = value_of(row_a)
            value_b = value_of(row_b)
            if value_a is None and value_b is None:
                continue
            if self._evaluator.compare(CompOp.EQ, value_a, value_b) is not True:
                return False
        return True

    # -- joins ------------------------------------------------------------------

    def _join(self, node: Join, outer):
        out_cols = node.output_columns()
        if node.kind is JoinKind.RIGHT:
            # Execute as LEFT with sides swapped, then restore column order.
            right_width = len(node.right.output_columns())
            swapped = Join(JoinKind.LEFT, node.right, node.left, node.condition)
            cols, rows = self._join(swapped, outer)
            reordered = (row[right_width:] + row[:right_width] for row in rows)
            return out_cols, reordered

        left_cols, left_rows = self._execute(node.left, outer)
        # Build side materializes (it is probed repeatedly); the probe side
        # streams unless the join condition carries subquery expressions.
        right_cols, right_rows = self._materialize(node.right, outer)
        env = Env(out_cols)
        left_width = len(left_cols)
        right_width = len(right_cols)

        if node.kind is JoinKind.CROSS or node.condition is None:
            rows = (l + r for l in left_rows for r in right_rows)
            return out_cols, rows

        if _contains_subquery(node.condition):
            left_rows = _as_list(left_rows)
            return out_cols, _as_list(self._loop_join(
                node.kind, left_rows, right_rows, node.condition, env, outer,
                left_width, right_width))

        equi, residual = self._split_equi(node.condition, Env(left_cols), Env(right_cols))
        if equi:
            return out_cols, self._hash_join(
                node.kind, left_rows, right_rows, left_cols, right_cols,
                equi, residual, env, outer, left_width, right_width)
        return out_cols, self._loop_join(
            node.kind, left_rows, right_rows, node.condition, env, outer,
            left_width, right_width)

    def _split_equi(self, condition: ScalarExpr, left_env: Env, right_env: Env):
        """Split a join predicate into equi pairs and a residual predicate."""
        conjuncts = _flatten_and(condition)
        equi: list[tuple[ScalarExpr, ScalarExpr]] = []
        residual: list[ScalarExpr] = []
        for conjunct in conjuncts:
            pair = self._equi_pair(conjunct, left_env, right_env)
            if pair is not None:
                equi.append(pair)
            else:
                residual.append(conjunct)
        return equi, conjoin(residual)

    def _equi_pair(self, conjunct: ScalarExpr, left_env: Env, right_env: Env):
        if not isinstance(conjunct, Comp) or conjunct.op is not CompOp.EQ:
            return None
        left_side = _side_of(conjunct.left, left_env, right_env)
        right_side = _side_of(conjunct.right, left_env, right_env)
        if left_side == "L" and right_side == "R":
            return conjunct.left, conjunct.right
        if left_side == "R" and right_side == "L":
            return conjunct.right, conjunct.left
        return None

    def _hash_join(self, kind, left_rows, right_rows, left_cols, right_cols,
                   equi, residual, env, outer, left_width, right_width):
        compile_row = self._evaluator.compile_row
        left_key = compile_row([expr for expr, __ in equi], Env(left_cols), outer)
        right_key = compile_row([expr for __, expr in equi], Env(right_cols), outer)
        if residual is not None:
            residual = self._evaluator.compile(residual, env, outer)

        def generate():
            # The build happens on first pull; probing then streams.
            table: dict = {}
            for index, row in enumerate(right_rows):
                key = right_key(row)
                if None in key:
                    continue  # NULL keys never join
                table.setdefault(hashable_row(key), []).append((index, row))
            matched_right: set[int] = set()
            null_right = (None,) * right_width
            for row in left_rows:
                key = left_key(row)
                matched = False
                if None not in key:
                    for right_index, right_row in table.get(hashable_row(key), ()):
                        combined = row + right_row
                        if residual is None or residual(combined) is True:
                            yield combined
                            matched = True
                            matched_right.add(right_index)
                if not matched and kind in (JoinKind.LEFT, JoinKind.FULL):
                    yield row + null_right
            if kind is JoinKind.FULL:
                null_left = (None,) * left_width
                for index, right_row in enumerate(right_rows):
                    if index not in matched_right:
                        yield null_left + right_row
        return generate()

    def _loop_join(self, kind, left_rows, right_rows, condition, env, outer,
                   left_width, right_width):
        condition = self._evaluator.compile(condition, env, outer)

        def generate():
            matched_right: set[int] = set()
            null_right = (None,) * right_width
            for row in left_rows:
                matched = False
                for index, right_row in enumerate(right_rows):
                    combined = row + right_row
                    if condition(combined) is True:
                        yield combined
                        matched = True
                        matched_right.add(index)
                if not matched and kind in (JoinKind.LEFT, JoinKind.FULL):
                    yield row + null_right
            if kind is JoinKind.FULL:
                null_left = (None,) * left_width
                for index, right_row in enumerate(right_rows):
                    if index not in matched_right:
                        yield null_left + right_row
        return generate()

    # -- aggregation ---------------------------------------------------------------

    def _aggregate(self, node: Aggregate, outer):
        columns, rows = self._materialize(node.child, outer)
        env = Env(columns)
        keys = [self._evaluator.compile(expr, env, outer)
                for expr in node.group_by]
        # None stands for COUNT(*)'s constant 1.
        args = [None if agg.star else self._first_argument(agg, env, outer)
                for agg in node.aggs]
        out_rows: list[tuple] = []
        for included in self._grouping_sets(node):
            key_of = row_builder([key if index in included else _null
                                  for index, key in enumerate(keys)])
            out_rows.extend(self._aggregate_one_set(node, rows, key_of, args))
        return node.output_columns(), out_rows

    def _first_argument(self, call, env: Env, outer):
        """*call*'s first argument, compiled; a call without one raises when
        a row needs the argument, never over an empty input."""
        if call.args:
            return self._evaluator.compile(call.args[0], env, outer)
        return raising(BackendError, f"{call.name}() requires an argument")

    def _grouping_sets(self, node: Aggregate) -> list[frozenset[int]]:
        all_keys = frozenset(range(len(node.group_by)))
        if node.kind is GroupingKind.SIMPLE:
            return [all_keys]
        if not self._profile.grouping_extensions:
            raise BackendError(
                "GROUP BY ROLLUP/CUBE/GROUPING SETS is not supported by this system")
        if node.kind is GroupingKind.ROLLUP:
            return [frozenset(range(k)) for k in range(len(node.group_by), -1, -1)]
        if node.kind is GroupingKind.CUBE:
            sets = []
            n = len(node.group_by)
            for mask in range(2 ** n - 1, -1, -1):
                sets.append(frozenset(i for i in range(n) if mask & (1 << i)))
            return sets
        return [frozenset(indexes) for indexes in (node.grouping_sets or [list(all_keys)])]

    def _aggregate_one_set(self, node: Aggregate, rows, key_of,
                           args) -> list[tuple]:
        groups: dict = {}
        order: list = []
        for row in rows:
            key_values = key_of(row)
            key = hashable_row(key_values)
            state = groups.get(key)
            if state is None:
                accs = [fl.make_accumulator(agg.name, agg.distinct, agg.star)
                        for agg in node.aggs]
                state = (key_values, accs)
                groups[key] = state
                order.append(key)
            for arg, acc in zip(args, state[1]):
                acc.add(1 if arg is None else arg(row))
        if not groups and not node.group_by:
            # Global aggregate over empty input yields one row of defaults.
            accs = [fl.make_accumulator(agg.name, agg.distinct, agg.star)
                    for agg in node.aggs]
            return [tuple(acc.result() for acc in accs)]
        out = []
        for key in order:
            key_values, accs = groups[key]
            out.append(tuple(key_values) + tuple(acc.result() for acc in accs))
        return out

    # -- windows ---------------------------------------------------------------------

    def _window(self, node: Window, outer):
        columns, rows = self._materialize(node.child, outer)
        env = Env(columns)
        extra_columns: list[list[object]] = []
        for func in node.funcs:
            extra_columns.append(self._compute_window(func, rows, env, outer))
        out_rows = [
            row + tuple(extra[index] for extra in extra_columns)
            for index, row in enumerate(rows)
        ]
        return node.output_columns(), out_rows

    def _compute_window(self, func: WindowFunc, rows, env, outer) -> list[object]:
        results: list[object] = [None] * len(rows)
        compile_ = self._evaluator.compile
        partition_key = self._evaluator.compile_row(func.partition_by, env, outer)
        order_keys = [compile_(key.expr, env, outer) for key in func.order_by]
        peer_key = row_builder(order_keys)
        value_of = self._first_argument(func, env, outer)
        # LAG/LEAD offset and default: constants, no input columns.
        constants = [compile_(arg, Env([]), None) for arg in func.args[1:3]]
        # Partition rows, carrying their original indices.
        partitions: dict = {}
        for index, row in enumerate(rows):
            key = hashable_row(partition_key(row))
            partitions.setdefault(key, []).append(index)
        for indices in partitions.values():
            ordered = indices
            if func.order_by:
                ordered = self._sort_indices(indices, rows, func.order_by, order_keys)
            self._fill_window_values(func, ordered, rows, peer_key, value_of,
                                     constants, results)
        return results

    def _sort_indices(self, indices: list[int], rows, keys: list[SortKey],
                      compiled_keys) -> list[int]:
        """Stable multi-key sort of row *indices* (window partitions)."""
        default_first = self._profile.default_null_ordering is NullOrdering.NULLS_FIRST
        ordered = list(indices)
        for key, value_of in reversed(list(zip(keys, compiled_keys))):
            values = {index: value_of(rows[index]) for index in ordered}
            # Per-ascending-key default; DESC keys flip (see _sort_rows).
            default = default_first if key.ascending else not default_first
            nulls_first = key.nulls_first if key.nulls_first is not None else default
            reverse = not key.ascending
            if reverse:
                null_rank = 1 if nulls_first else 0
            else:
                null_rank = 0 if nulls_first else 1
            ordered.sort(
                key=lambda index: (null_rank, 0) if values[index] is None
                else (1 - null_rank, _sort_value(values[index])),
                reverse=reverse,
            )
        return ordered

    def _fill_window_values(self, func: WindowFunc, ordered: list[int], rows,
                            peer_key, value_of, constants,
                            results: list[object]) -> None:
        name = func.name.upper()
        peer_keys = [hashable_row(peer_key(rows[index])) for index in ordered]
        if name == "ROW_NUMBER":
            for position, index in enumerate(ordered):
                results[index] = position + 1
            return
        if name in ("RANK", "DENSE_RANK"):
            rank = 0
            dense = 0
            previous = object()
            for position, index in enumerate(ordered):
                if peer_keys[position] != previous:
                    rank = position + 1
                    dense += 1
                    previous = peer_keys[position]
                results[index] = rank if name == "RANK" else dense
            return
        if name in ("LAG", "LEAD"):
            offset = 1
            default = None
            if len(constants) > 0:
                try:
                    offset = int(constants[0](()))
                except UnresolvedColumnError:
                    raise BackendError(f"{name}: offset must be a constant")
            if len(constants) > 1:
                try:
                    default = constants[1](())
                except UnresolvedColumnError:
                    raise BackendError(f"{name}: default must be a constant")
            step = -offset if name == "LAG" else offset
            for position, index in enumerate(ordered):
                source = position + step
                if 0 <= source < len(ordered):
                    results[index] = value_of(rows[ordered[source]])
                else:
                    results[index] = default
            return
        if name in ("FIRST_VALUE", "LAST_VALUE"):
            if not ordered:
                return
            pick = ordered[0] if name == "FIRST_VALUE" else ordered[-1]
            value = value_of(rows[pick])
            for index in ordered:
                results[index] = value
            return
        if fl.is_aggregate_name(name):
            if not func.order_by:
                acc = fl.make_accumulator(name, star=not func.args)
                for index in ordered:
                    acc.add(value_of(rows[index]) if func.args else 1)
                value = acc.result()
                for index in ordered:
                    results[index] = value
                return
            # Running aggregate with RANGE ... CURRENT ROW peer semantics.
            acc = fl.make_accumulator(name, star=not func.args)
            position = 0
            while position < len(ordered):
                peer_end = position
                while (peer_end + 1 < len(ordered)
                       and peer_keys[peer_end + 1] == peer_keys[position]):
                    peer_end += 1
                for cursor in range(position, peer_end + 1):
                    acc.add(value_of(rows[ordered[cursor]]) if func.args else 1)
                value = acc.result()
                for cursor in range(position, peer_end + 1):
                    results[ordered[cursor]] = value
                position = peer_end + 1
            return
        raise BackendError(f"unknown window function {func.name}()")

    # -- set operations ------------------------------------------------------------------

    def _setop(self, node: SetOp, outer):
        left_cols, left_rows = self._execute(node.left, outer)
        out_cols = node.output_columns()
        if node.kind is SetOpKind.UNION:
            __, right_rows = self._execute(node.right, outer)

            def union():
                yield from left_rows
                yield from right_rows
            combined = union()
            if node.all:
                return out_cols, combined
            return out_cols, _dedupe_stream(combined)
        # INTERSECT/EXCEPT probe the materialized right side per left row.
        __, right_rows = self._materialize(node.right, outer)
        if node.kind is SetOpKind.INTERSECT:
            def intersect():
                counts = _count_rows(right_rows)
                for row in left_rows:
                    key = hashable_row(row)
                    if counts.get(key, 0) > 0:
                        yield row
                        if node.all:
                            counts[key] -= 1
                        else:
                            # Zeroing the key also dedupes the output.
                            counts[key] = 0
            return out_cols, intersect()

        def except_():
            counts = _count_rows(right_rows)
            for row in left_rows:
                key = hashable_row(row)
                if counts.get(key, 0) > 0:
                    if node.all:
                        counts[key] -= 1
                    continue
                yield row
        kept = except_()
        return out_cols, kept if node.all else _dedupe_stream(kept)

    # -- CTEs -------------------------------------------------------------------------------

    def _with(self, node: With, outer):
        frame: dict[str, tuple[list[OutputColumn], list[tuple]]] = {}
        self._cte_frames.append(frame)
        try:
            for cte in node.ctes:
                if cte.recursive:
                    if not self._profile.recursive_cte:
                        raise BackendError(
                            "recursive common table expressions are not "
                            "supported by this system")
                    frame[cte.name.upper()] = self._run_recursive_cte(cte, outer)
                else:
                    # CTE results are shared across references: materialize.
                    columns, rows = self._materialize(cte.plan, outer)
                    frame[cte.name.upper()] = (columns, rows)
            # Safe even though the body may stream: CTE references resolve
            # eagerly while the plan tree is instantiated, so no lazy row
            # flow looks the frame up after this pop.
            return self._execute(node.body, outer)
        finally:
            self._cte_frames.pop()

    def _run_recursive_cte(self, cte, outer):
        plan = cte.plan
        if not isinstance(plan, SetOp) or plan.kind is not SetOpKind.UNION:
            raise BackendError("recursive CTE must be seed UNION ALL recursive-term")
        frame = self._cte_frames[-1]
        seed_cols, work = self._materialize(plan.left, outer)
        all_rows = list(work)
        rounds = 0
        while work:
            rounds += 1
            if rounds > _MAX_RECURSION_ROUNDS:
                raise BackendError("recursive CTE exceeded iteration limit")
            frame[cte.name.upper()] = (seed_cols, work)
            __, produced = self._materialize(plan.right, outer)
            work = produced
            all_rows.extend(produced)
        frame[cte.name.upper()] = (seed_cols, all_rows)
        return seed_cols, all_rows

    _HANDLERS = {}


Executor._HANDLERS = {
    Get: Executor._get,
    Values: Executor._values,
    CTERef: Executor._cte_ref,
    Filter: Executor._filter,
    Project: Executor._project,
    DerivedTable: Executor._derived,
    Distinct: Executor._distinct,
    Sort: Executor._sort,
    Limit: Executor._limit,
    Join: Executor._join,
    Aggregate: Executor._aggregate,
    Window: Executor._window,
    SetOp: Executor._setop,
    With: Executor._with,
}


# -- small helpers ----------------------------------------------------------------

def _as_list(rows: Iterable[tuple]) -> list[tuple]:
    """Materialize a row iterable (no-op for lists)."""
    return rows if isinstance(rows, list) else list(rows)


def _batched(rows: Iterable[tuple], batch_rows: int) -> Iterator[list[tuple]]:
    """Chunk a row iterable into lists of at most *batch_rows* rows."""
    iterator = iter(rows)
    while True:
        batch = list(islice(iterator, batch_rows))
        if not batch:
            return
        yield batch


def _dedupe_stream(rows: Iterable[tuple]) -> Iterator[tuple]:
    """Streaming first-occurrence dedupe under SQL equality."""
    seen: set = set()
    for row in rows:
        key = hashable_row(row)
        if key not in seen:
            seen.add(key)
            yield row


def _contains_subquery(expr: ScalarExpr) -> bool:
    """True if *expr* embeds a subquery (forces eager evaluation: lazy row
    flow must not outlive the CTE frames a correlated plan resolves in)."""
    from repro.xtra.scalars import SubqueryExpr
    from repro.xtra.visitor import walk_scalars

    return any(isinstance(node, SubqueryExpr) for node in walk_scalars(expr))


def _sort_value(value):
    """A non-NULL value as a sort key: text compares without trailing
    blanks (PAD SPACE), everything else as itself."""
    return value.rstrip(" ") if isinstance(value, str) else value


def _null(row: tuple) -> None:
    """The compiled key of a column a grouping set leaves out."""
    return None


def _count_rows(rows: list[tuple]) -> dict:
    counts: dict = {}
    for row in rows:
        key = hashable_row(row)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _flatten_and(expr: ScalarExpr) -> list[ScalarExpr]:
    if isinstance(expr, BoolOp) and expr.op is BoolOpKind.AND:
        out: list[ScalarExpr] = []
        for arg in expr.args:
            out.extend(_flatten_and(arg))
        return out
    return [expr]


def _side_of(expr: ScalarExpr, left_env: Env, right_env: Env) -> Optional[str]:
    """Which join side an expression's column references belong to.

    Returns "L", "R", or None (mixed / unresolved / no references at all —
    constant expressions are unusable as hash keys for sidedness).
    """
    from repro.xtra.visitor import walk_scalars

    refs = [node for node in walk_scalars(expr) if isinstance(node, ColumnRef)]
    if not refs:
        return None
    sides = set()
    for ref in refs:
        try:
            in_left = left_env.try_resolve(ref.name, ref.table) is not None
        except BackendError:
            in_left = True  # ambiguous within left side: still left
        try:
            in_right = right_env.try_resolve(ref.name, ref.table) is not None
        except BackendError:
            in_right = True
        if in_left and not in_right:
            sides.add("L")
        elif in_right and not in_left:
            sides.add("R")
        else:
            return None
    if sides == {"L"}:
        return "L"
    if sides == {"R"}:
        return "R"
    return None
