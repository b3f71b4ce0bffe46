"""Unsupported column property compensation (Table 2, Section 2.2.2).

Two compensations live here:

* **Non-constant defaults** (``DEFAULT CURRENT_DATE``): the target only gets
  literal defaults, so Hyper-Q evaluates the default in the mid-tier and adds
  the explicit value to INSERTs that omit the column.
* **PERIOD columns**: few targets support the compound type, so DDL splits a
  PERIOD column into ``<name>_BEGIN`` / ``<name>_END`` element columns — the
  paper's own example of why schema conversion cannot be done independently
  of application translation.

(The third property, NOT CASESPECIFIC comparison semantics, is compensated
during binding — see ``Binder._apply_case_insensitivity``.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import EmulationError
from repro.backend import functions as backend_functions
from repro.xtra import relational as r
from repro.xtra import scalars as s
from repro.xtra import types as t
from repro.xtra.schema import ColumnSchema, TableSchema

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import HyperQSession

_NILADIC_DEFAULTS = {"CURRENT_DATE", "DATE", "CURRENT_TIMESTAMP", "TIME", "USER"}


def is_nonconstant_default(default_sql: str | None) -> bool:
    if default_sql is None:
        return False
    return default_sql.strip().upper() in _NILADIC_DEFAULTS


def evaluate_default(session: "HyperQSession", default_sql: str) -> object:
    """Evaluate a niladic default in the mid-tier."""
    name = default_sql.strip().upper()
    if name in ("CURRENT_DATE", "DATE"):
        return backend_functions.call_scalar("CURRENT_DATE", [])
    if name in ("CURRENT_TIMESTAMP", "TIME"):
        return backend_functions.call_scalar("CURRENT_TIMESTAMP", [])
    if name == "USER":
        return str(session.session_params.get("USER", "HYPERQ"))
    raise EmulationError(f"cannot evaluate default {default_sql!r}")


def fill_nonconstant_defaults(session: "HyperQSession", schema: TableSchema,
                              bound: r.Insert) -> r.Insert:
    """Extend a VALUES insert with mid-tier evaluated default columns."""
    if not isinstance(bound.source, r.Values):
        return bound
    provided = {name.upper() for name in (bound.columns or
                                          [col.name for col in schema.columns])}
    missing = [col for col in schema.columns
               if col.name not in provided and is_nonconstant_default(col.default_sql)]
    if not missing:
        return bound
    session._note("column_properties")
    columns = list(bound.columns or [col.name for col in schema.columns])
    values = bound.source
    for col in missing:
        value = evaluate_default(session, col.default_sql or "")
        columns.append(col.name)
        values.names.append(col.name)
        values.types.append(col.type)
        for row in values.rows:
            row.append(s.Const(value, col.type))
    bound.columns = columns
    return bound


def split_period_columns(session: "HyperQSession",
                         schema: TableSchema) -> TableSchema:
    """Split PERIOD columns into begin/end DATE columns for the target."""
    if not any(col.type.kind is t.TypeKind.PERIOD for col in schema.columns):
        return schema
    session._note("column_properties")
    columns: list[ColumnSchema] = []
    for col in schema.columns:
        if col.type.kind is not t.TypeKind.PERIOD:
            columns.append(col)
            continue
        columns.append(ColumnSchema(f"{col.name}_BEGIN", t.DATE, col.nullable))
        columns.append(ColumnSchema(f"{col.name}_END", t.DATE, col.nullable))
    return TableSchema(
        name=schema.name,
        columns=columns,
        set_semantics=schema.set_semantics,
        volatile=schema.volatile,
        primary_index=schema.primary_index,
    )
