"""The backend database facade.

:class:`Database` is the "cloud data warehouse" of the reproduction: it
accepts SQL text in its own ANSI dialect, parses, plans, and executes it.
:class:`BackendSession` adds a per-session temporary-table namespace, which
the Hyper-Q emulation layer uses for WorkTable/TempTable scratch objects
(Section 6) and volatile-table emulation.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator, Optional

from repro.core.budget import DEFAULT_BATCH_ROWS
from repro.errors import BackendError, CatalogError
from repro.transform.capabilities import CapabilityProfile, HYPERION
from repro.backend.catalog import Catalog
from repro.backend.executor import Executor
from repro.backend.expressions import Env, EvalContext
from repro.backend.parser import BackendParser
from repro.backend import planner as p
from repro.backend.storage import Table, default_value_for
from repro.xtra import scalars as s
from repro.xtra import types as t
from repro.xtra.relational import OutputColumn
from repro.xtra.schema import ColumnSchema, TableSchema
from repro.xtra.visitor import rewrite_scalars, walk_scalars


class QueryResult:
    """Outcome of one backend statement.

    ``kind`` is "rows" for result sets, "count" for DML, "ok" for DDL and
    transaction control.

    Result sets may arrive as a lazy *batch source* instead of a
    materialized list. :meth:`iter_batches` streams the rows exactly once
    in bounded batches; the :attr:`rows` / :attr:`rowcount` accessors are
    compatibility shims that drain the stream into memory on first use.
    """

    def __init__(self, kind: str,
                 columns: Optional[list[str]] = None,
                 column_types: Optional[list[t.SQLType]] = None,
                 rows: Optional[list[tuple]] = None,
                 rowcount: int = 0,
                 batch_source: Optional[Iterator[list[tuple]]] = None):
        self.kind = kind
        self.columns = list(columns) if columns else []
        self.column_types = list(column_types) if column_types else []
        if rows is not None or batch_source is None:
            self._rows: Optional[list[tuple]] = list(rows) if rows else []
        else:
            self._rows = None
        self._batch_source = batch_source if self._rows is None else None
        self._rowcount = rowcount if self._rows is None or rowcount \
            else len(self._rows)
        self._consumed = False

    @property
    def is_rows(self) -> bool:
        return self.kind == "rows"

    @property
    def streaming(self) -> bool:
        """True while rows are still a lazy, unconsumed batch source."""
        return self._batch_source is not None

    @property
    def rows(self) -> list[tuple]:
        """Materialized row list (drains and caches a pending stream)."""
        if self._rows is None:
            self._drain()
        return self._rows

    @property
    def rowcount(self) -> int:
        if self._rows is None and not self._consumed and self.kind == "rows":
            self._drain()
        return self._rowcount

    def _drain(self) -> None:
        if self._batch_source is None:
            if self._rows is None:
                raise BackendError("result stream was already consumed")
            return
        source, self._batch_source = self._batch_source, None
        self._rows = [row for batch in source for row in batch]
        self._rowcount = len(self._rows)
        self._consumed = True

    def iter_batches(self, batch_rows: int = 1024) -> Iterator[list[tuple]]:
        """Yield the rows once, re-chunked into *batch_rows*-row batches.

        Streams straight off the batch source when one is pending (single
        use, bounded memory); falls back to slicing the materialized list.
        """
        if self._rows is not None:
            for start in range(0, len(self._rows), batch_rows):
                yield self._rows[start:start + batch_rows]
            return
        if self._batch_source is None:
            raise BackendError("result stream was already consumed")
        source, self._batch_source = self._batch_source, None
        count = 0
        pending: list[tuple] = []
        for batch in source:
            if not pending and len(batch) <= batch_rows:
                count += len(batch)
                yield batch
                continue
            pending.extend(batch)
            while len(pending) >= batch_rows:
                count += batch_rows
                yield pending[:batch_rows]
                pending = pending[batch_rows:]
        if pending:
            count += len(pending)
            yield pending
        self._rowcount = count
        self._consumed = True

    def wrap_batch_source(
            self, wrap: Callable[[Iterator[list[tuple]]],
                                 Iterator[list[tuple]]]) -> None:
        """Instrumentation hook: interpose on a pending batch source."""
        if self._batch_source is not None:
            self._batch_source = wrap(self._batch_source)


class _SessionCatalog:
    """Catalog view layering session-temporary objects over the shared ones."""

    def __init__(self, shared: Catalog):
        self._shared = shared
        self._temp = Catalog()

    # Reads: temp shadows shared. -------------------------------------------------

    def table(self, name: str) -> Table:
        if self._temp.has_table(name):
            return self._temp.table(name)
        return self._shared.table(name)

    def has_table(self, name: str) -> bool:
        return self._temp.has_table(name) or self._shared.has_table(name)

    def has_view(self, name: str) -> bool:
        return self._shared.has_view(name)

    def view(self, name: str):
        return self._shared.view(name)

    def resolve(self, name: str) -> TableSchema:
        if self._temp.has_table(name):
            return self._temp.table(name).schema
        return self._shared.resolve(name)

    def table_names(self) -> list[str]:
        return sorted(set(self._shared.table_names()) | set(self._temp.table_names()))

    def view_names(self) -> list[str]:
        return self._shared.view_names()

    # Writes ------------------------------------------------------------------------

    def create_table(self, schema: TableSchema, if_not_exists: bool = False,
                     temporary: bool = False) -> Table:
        if temporary:
            return self._temp.create_table(schema, if_not_exists)
        return self._shared.create_table(schema, if_not_exists)

    def drop_table(self, name: str, if_exists: bool = False) -> bool:
        if self._temp.has_table(name):
            return self._temp.drop_table(name)
        return self._shared.drop_table(name, if_exists)

    def create_view(self, schema: TableSchema, replace: bool = False) -> None:
        self._shared.create_view(schema, replace)

    def drop_view(self, name: str, if_exists: bool = False) -> bool:
        return self._shared.drop_view(name, if_exists)

    def drop_all_temp(self) -> None:
        for name in list(self._temp.table_names()):
            self._temp.drop_table(name)


class BackendSession:
    """One client session: executes SQL, owns temporary tables."""

    def __init__(self, database: "Database"):
        self._database = database
        self._catalog = _SessionCatalog(database.catalog)
        self._parser = BackendParser(database.profile)
        self._planner = p.Planner(self._catalog, database.profile)

    @property
    def profile(self) -> CapabilityProfile:
        return self._database.profile

    def _make_executor(self) -> Executor:
        return Executor(self._catalog, self.profile,
                        faults=self._database.faults,
                        replica=self._database.replica)

    def execute(self, sql: str) -> QueryResult:
        """Parse and execute a single SQL statement."""
        statement = self._parser.parse_statement(sql)
        with self._database.lock:
            return self._execute_spec(statement)

    def execute_script(self, sql: str) -> list[QueryResult]:
        """Parse and execute a ';'-separated statement sequence."""
        statements = self._parser.parse_script(sql)
        with self._database.lock:
            return [self._execute_spec(statement) for statement in statements]

    def close(self) -> None:
        self._catalog.drop_all_temp()

    # -- statement dispatch -----------------------------------------------------------

    def _execute_spec(self, statement: p.StatementSpec) -> QueryResult:
        if isinstance(statement, p.QueryStatementSpec):
            return self._run_query(statement.query)
        if isinstance(statement, p.InsertSpec):
            return self._run_insert(self._resolve_dml_target(statement))
        if isinstance(statement, p.UpdateSpec):
            return self._run_update(self._resolve_dml_target(statement))
        if isinstance(statement, p.DeleteSpec):
            return self._run_delete(self._resolve_dml_target(statement))
        if isinstance(statement, p.CreateTableSpec):
            return self._run_create_table(statement)
        if isinstance(statement, p.DropTableSpec):
            self._catalog.drop_table(statement.name, statement.if_exists)
            return QueryResult("ok")
        if isinstance(statement, p.CreateViewSpec):
            return self._run_create_view(statement)
        if isinstance(statement, p.DropViewSpec):
            self._catalog.drop_view(statement.name, statement.if_exists)
            return QueryResult("ok")
        if isinstance(statement, p.TruncateSpec):
            removed = self._catalog.table(statement.name).truncate()
            return QueryResult("count", rowcount=removed)
        if isinstance(statement, p.TransactionSpec):
            return QueryResult("ok")
        if isinstance(statement, p.MergeSpec):
            return self._run_merge(statement)
        raise BackendError(f"unsupported statement {type(statement).__name__}")

    # -- queries --------------------------------------------------------------------------

    def _run_query(self, spec: p.QuerySpec) -> QueryResult:
        plan = self._planner.plan_query(spec)
        executor = self._make_executor()
        columns, batches = executor.run_stream(
            plan, batch_rows=self._database.batch_rows)
        # Prime the first batch while the statement lock is held so per-row
        # evaluation errors surface at execute time, not at first fetch.
        first = next(batches, None)
        return QueryResult(
            "rows",
            columns=[col.name for col in columns],
            column_types=[col.type for col in columns],
            batch_source=self._locked_batches(first, batches),
        )

    def _locked_batches(
            self, first: Optional[list[tuple]],
            batches: Iterator[list[tuple]]) -> Iterator[list[tuple]]:
        """Re-acquire the database lock around each lazy batch pull.

        The statement lock is released before a streaming result is
        consumed; pulling a batch still evaluates expressions inside the
        executor, so each step is taken back under the shared lock.
        """
        if first is not None:
            yield first
        lock = self._database.lock
        while True:
            with lock:
                try:
                    batch = next(batches)
                except StopIteration:
                    return
            yield batch

    def _plan_and_run(self, spec: p.QuerySpec):
        plan = self._planner.plan_query(spec)
        executor = self._make_executor()
        return executor.run(plan)

    # -- DML ------------------------------------------------------------------------------

    def _resolve_dml_target(self, spec):
        """Route DML aimed at an updatable view to its base table.

        Supported on profiles with ``updatable_views``: the view must be a
        simple projection (plain column list or ``*``) over a single table,
        optionally filtered by a subquery-free WHERE. Column references are
        remapped through the view's select list and the view predicate is
        conjoined onto UPDATE/DELETE predicates (INSERT takes no predicate —
        the backend models views without CHECK OPTION).
        """
        while not self._catalog.has_table(spec.table) \
                and self._catalog.has_view(spec.table):
            if not self.profile.updatable_views:
                raise BackendError(
                    f"view {spec.table} is not updatable on this system")
            spec = self._rewrite_view_dml(spec)
        return spec

    def _rewrite_view_dml(self, spec):
        view = self._catalog.view(spec.table)
        core = self._updatable_view_core(spec.table, view)
        base = core.from_refs[0]
        base_schema = self._catalog.resolve(base.name)
        column_map: dict[str, str] = {}
        item_names: list[str] = []
        for item in core.items:
            if item.star:
                item_names.extend(col.name for col in base_schema.columns)
            else:
                expr = item.expr
                if not isinstance(expr, s.ColumnRef):
                    raise BackendError(
                        f"view {spec.table} is not updatable "
                        "(computed select items)")
                item_names.append(expr.name.upper())
        view_columns = [col.name for col in view.columns]
        if len(view_columns) != len(item_names):
            raise BackendError(
                f"view {spec.table} is not updatable (column-count mismatch)")
        column_map = dict(zip(view_columns, item_names))

        view_qualifiers = {spec.table.upper()}
        if getattr(spec, "alias", None):
            view_qualifiers.add(spec.alias.upper())

        def remap(expr: s.ScalarExpr) -> s.ScalarExpr:
            if isinstance(expr, s.ColumnRef):
                if expr.table is not None \
                        and expr.table.upper() not in view_qualifiers:
                    raise BackendError(
                        f"unknown qualifier {expr.table} in DML against "
                        f"view {spec.table}")
                mapped = column_map.get(expr.name.upper())
                if mapped is None:
                    raise BackendError(
                        f"view {spec.table} has no column {expr.name}")
                return s.ColumnRef(mapped)
            return expr

        def strip_qualifier(expr: s.ScalarExpr) -> s.ScalarExpr:
            if isinstance(expr, s.ColumnRef) and expr.table is not None:
                return s.ColumnRef(expr.name)
            return expr

        view_predicate = None
        if core.where is not None:
            if any(isinstance(node, s.SubqueryExpr)
                   for node in walk_scalars(core.where)):
                raise BackendError(
                    f"view {spec.table} is not updatable "
                    "(subquery in view predicate)")
            view_predicate = rewrite_scalars(core.where, strip_qualifier)

        if isinstance(spec, p.InsertSpec):
            source_columns = spec.columns or view_columns
            mapped_columns = []
            for name in source_columns:
                mapped = column_map.get(name.upper())
                if mapped is None:
                    raise BackendError(
                        f"view {spec.table} has no column {name}")
                mapped_columns.append(mapped)
            return p.InsertSpec(base.name, mapped_columns, spec.rows, spec.query)

        predicate = (rewrite_scalars(spec.predicate, remap)
                     if spec.predicate is not None else None)
        combined = s.conjoin(
            [part for part in (view_predicate, predicate) if part is not None])
        if isinstance(spec, p.UpdateSpec):
            assignments = []
            for name, expr in spec.assignments:
                mapped = column_map.get(name.upper())
                if mapped is None:
                    raise BackendError(
                        f"view {spec.table} has no column {name}")
                assignments.append((mapped, rewrite_scalars(expr, remap)))
            return p.UpdateSpec(base.name, None, assignments, combined)
        return p.DeleteSpec(base.name, None, combined)

    def _updatable_view_core(self, name: str, view: TableSchema) -> p.CoreSpec:
        statement = self._parser.parse_statement(view.view_sql or "")
        not_updatable = BackendError(
            f"view {name} is not updatable "
            "(simple single-table projections only)")
        if not isinstance(statement, p.QueryStatementSpec):
            raise not_updatable
        query = statement.query
        core = query.first
        if query.ctes or query.branches or query.order_by \
                or query.limit is not None or query.offset \
                or not isinstance(core, p.CoreSpec) \
                or core.distinct or core.top or core.group_by or core.having \
                or len(core.from_refs) != 1 \
                or not isinstance(core.from_refs[0], p.TableNameSpec) \
                or core.from_refs[0].column_names:
            raise not_updatable
        return core

    def _run_insert(self, spec: p.InsertSpec) -> QueryResult:
        table = self._catalog.table(spec.table)
        schema = table.schema
        target_columns = spec.columns or schema.column_names()
        positions = [table.column_index(name) for name in target_columns]
        if spec.query is not None:
            __, rows = self._plan_and_run(spec.query)
        else:
            executor = self._make_executor()
            ctx = EvalContext((), Env([]), None)
            rows = []
            for row_exprs in spec.rows or []:
                scope = p._Scope()
                planned = [self._planner._plan_scalar_subqueries(expr, scope)
                           for expr in row_exprs]
                rows.append(tuple(executor.evaluator.eval(expr, ctx)
                                  for expr in planned))
        inserted = 0
        for row in rows:
            if len(row) != len(positions):
                raise BackendError(
                    f"INSERT supplies {len(row)} values for {len(positions)} columns")
            full_row: list[object] = [None] * len(schema.columns)
            provided = set(positions)
            for position, value in zip(positions, row):
                full_row[position] = value
            for index, column in enumerate(schema.columns):
                if index not in provided and column.default_sql is not None:
                    full_row[index] = default_value_for(column)
            table.insert_row(full_row)
            inserted += 1
        return QueryResult("count", rowcount=inserted)

    def _table_env(self, schema: TableSchema, alias: Optional[str]) -> Env:
        qualifier = (alias or schema.name).upper()
        return Env([OutputColumn(col.name, col.type, qualifier)
                    for col in schema.columns])

    def _run_update(self, spec: p.UpdateSpec) -> QueryResult:
        table = self._catalog.table(spec.table)
        env = self._table_env(table.schema, spec.alias)
        executor = self._make_executor()
        scope = p._Scope()
        predicate = (self._planner._plan_scalar_subqueries(spec.predicate, scope)
                     if spec.predicate is not None else None)
        assignments = [
            (name, self._planner._plan_scalar_subqueries(expr, scope))
            for name, expr in spec.assignments
        ]
        positions = [table.column_index(name) for name, __ in assignments]
        compile_ = executor.evaluator.compile
        matches = compile_(predicate, env) if predicate is not None else None
        setters = [(position, compile_(expr, env))
                   for position, (__, expr) in zip(positions, assignments)]
        updated = 0
        new_rows: list[tuple] = []
        for row in table.rows:
            if matches is not None and matches(row) is not True:
                new_rows.append(row)
                continue
            values = list(row)
            for position, value_of in setters:
                values[position] = value_of(row)
            new_rows.append(tuple(values))
            updated += 1
        # Re-validate through a scratch table to enforce types/NOT NULL.
        table.rows = []
        table.insert_rows(new_rows)
        return QueryResult("count", rowcount=updated)

    def _run_delete(self, spec: p.DeleteSpec) -> QueryResult:
        table = self._catalog.table(spec.table)
        env = self._table_env(table.schema, spec.alias)
        executor = self._make_executor()
        scope = p._Scope()
        predicate = (self._planner._plan_scalar_subqueries(spec.predicate, scope)
                     if spec.predicate is not None else None)
        matches = (executor.evaluator.compile(predicate, env)
                   if predicate is not None else None)
        kept: list[tuple] = []
        deleted = 0
        for row in table.rows:
            if matches is None or matches(row) is True:
                deleted += 1
            else:
                kept.append(row)
        table.rows = kept
        return QueryResult("count", rowcount=deleted)

    # -- DDL --------------------------------------------------------------------------------

    def _run_create_table(self, spec: p.CreateTableSpec) -> QueryResult:
        if spec.as_query is not None:
            columns_meta, rows = self._plan_and_run(spec.as_query)
            columns = [ColumnSchema(col.name, _storable_type(col.type))
                       for col in columns_meta]
            schema = TableSchema(spec.name.upper(), columns, volatile=spec.temporary)
            table = self._catalog.create_table(schema, spec.if_not_exists,
                                               spec.temporary)
            table.insert_rows(rows)
            return QueryResult("count", rowcount=len(rows))
        schema = TableSchema(spec.name.upper(), list(spec.columns or []),
                             volatile=spec.temporary)
        self._catalog.create_table(schema, spec.if_not_exists, spec.temporary)
        return QueryResult("ok")

    def _run_create_view(self, spec: p.CreateViewSpec) -> QueryResult:
        plan = self._planner.plan_query(spec.query)
        inner = plan.output_columns()
        names = spec.column_names or [col.name for col in inner]
        if len(names) != len(inner):
            raise BackendError(
                f"view {spec.name}: {len(names)} names for {len(inner)} columns")
        columns = [ColumnSchema(name.upper(), col.type)
                   for name, col in zip(names, inner)]
        schema = TableSchema(spec.name.upper(), columns, is_view=True,
                             view_sql=spec.source_sql)
        self._catalog.create_view(schema, spec.replace)
        return QueryResult("ok")

    # -- MERGE -------------------------------------------------------------------------------

    def _run_merge(self, spec: p.MergeSpec) -> QueryResult:
        if not self.profile.merge_statement:
            raise BackendError("MERGE is not supported by this system")
        table = self._catalog.table(spec.target)
        target_env_cols = self._table_env(table.schema, spec.target_alias).columns
        source_plan = self._planner._plan_table_ref(spec.source, p._Scope())
        executor = self._make_executor()
        source_cols, source_rows = executor.run(source_plan)
        combined_env = Env(list(target_env_cols) + list(source_cols))
        scope = p._Scope()
        compile_ = executor.evaluator.compile
        condition = compile_(
            self._planner._plan_scalar_subqueries(spec.condition, scope),
            combined_env)
        setters = [(name, compile_(expr, combined_env))
                   for name, expr in spec.matched_assignments or []]
        affected = 0
        new_rows: list[tuple] = []
        matched_sources: set[int] = set()
        for target_row in table.rows:
            match_row = None
            for index, source_row in enumerate(source_rows):
                if condition(target_row + source_row) is True:
                    match_row = source_row
                    matched_sources.add(index)
                    break
            if match_row is not None and setters:
                combined = target_row + match_row
                values = list(target_row)
                for name, value_of in setters:
                    values[table.column_index(name)] = value_of(combined)
                new_rows.append(tuple(values))
                affected += 1
            else:
                new_rows.append(target_row)
        table.rows = []
        table.insert_rows(new_rows)
        if spec.insert_columns and spec.insert_values is not None:
            positions = [table.column_index(name) for name in spec.insert_columns]
            inserters = [(position, compile_(expr, combined_env))
                         for position, expr in zip(positions, spec.insert_values)]
            null_target = (None,) * len(table.schema.columns)
            for index, source_row in enumerate(source_rows):
                if index in matched_sources:
                    continue
                combined = null_target + source_row
                full_row: list[object] = [None] * len(table.schema.columns)
                for position, value_of in inserters:
                    full_row[position] = value_of(combined)
                table.insert_row(full_row)
                affected += 1
        return QueryResult("count", rowcount=affected)


class Database:
    """A shared backend instance; create one session per client connection."""

    def __init__(self, profile: CapabilityProfile = HYPERION,
                 faults=None, replica: Optional[int] = None,
                 batch_rows: int = DEFAULT_BATCH_ROWS):
        self.profile = profile
        self.catalog = Catalog()
        self.lock = threading.RLock()
        #: Rows per batch yielded by streaming query results.
        self.batch_rows = batch_rows
        #: Optional :class:`repro.core.faults.FaultSchedule` consulted by the
        #: plan executor (injection site ``"executor"``).
        self.faults = faults
        #: Replica index when this backend is one member of a scaled fleet.
        self.replica = replica

    def create_session(self) -> BackendSession:
        return BackendSession(self)

    def execute(self, sql: str) -> QueryResult:
        """One-shot convenience: execute in a throwaway session."""
        return self.create_session().execute(sql)

    def execute_script(self, sql: str) -> list[QueryResult]:
        return self.create_session().execute_script(sql)


def _storable_type(declared: t.SQLType) -> t.SQLType:
    """CTAS columns with unknown types degrade to untyped storage."""
    return declared
