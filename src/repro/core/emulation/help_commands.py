"""HELP / SHOW command emulation.

Informational commands like ``HELP SESSION`` "return settings of the current
user session" (Section 2.1) and have no target equivalent: Hyper-Q answers
them entirely from mid-tier state — session parameters and the shadow
catalog — and fabricates result sets that flow through the same Result
Converter path as real query results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import EmulationError
from repro.core.timing import RequestTiming
from repro.xtra import relational as r
from repro.xtra import types as t

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import HQResult, HyperQSession


def run(session: "HyperQSession", bound: r.Statement,
        timing: RequestTiming) -> "HQResult":
    if isinstance(bound, r.HelpCommand):
        return _run_help(session, bound, timing)
    if isinstance(bound, r.ShowCommand):
        return _run_show(session, bound, timing)
    raise EmulationError(f"unsupported command {type(bound).__name__}")


def _run_help(session: "HyperQSession", bound: r.HelpCommand,
              timing: RequestTiming) -> "HQResult":
    if bound.kind is r.HelpKind.SESSION:
        rows = [(name, str(value))
                for name, value in sorted(session.session_params.items())]
        return session.fabricate_result(
            ["PARAMETER", "SETTING"], [t.varchar(64), t.varchar(256)], rows,
            timing)
    if bound.kind is r.HelpKind.TABLE:
        schema = session.catalog.table(bound.subject or "")
        rows = [
            (col.name, str(col.type), "Y" if col.nullable else "N",
             col.default_sql or "")
            for col in schema.columns
        ]
        return session.fabricate_result(
            ["COLUMN_NAME", "TYPE", "NULLABLE", "DEFAULT_VALUE"],
            [t.varchar(128), t.varchar(64), t.char(1), t.varchar(256)], rows,
            timing)
    if bound.kind is r.HelpKind.COLUMN:
        subject = bound.subject or ""
        table_name, __, column_name = subject.rpartition(".")
        if not table_name:
            raise EmulationError("HELP COLUMN requires table.column")
        schema = session.catalog.table(table_name)
        col = schema.column(column_name)
        rows = [(col.name, str(col.type), "Y" if col.nullable else "N")]
        return session.fabricate_result(
            ["COLUMN_NAME", "TYPE", "NULLABLE"],
            [t.varchar(128), t.varchar(64), t.char(1)], rows, timing)
    # HELP DATABASE: list objects in the shadow catalog.
    shadow = session.engine.shadow
    rows = [(name, "T") for name in shadow.table_names()]
    rows += [(name, "V") for name in shadow.view_names()]
    rows += [(name, "O") for name in session.catalog.volatile_names()]
    return session.fabricate_result(
        ["TABLE_NAME", "KIND"], [t.varchar(128), t.char(1)], rows, timing)


def _run_show(session: "HyperQSession", bound: r.ShowCommand,
              timing: RequestTiming) -> "HQResult":
    if bound.object_kind == "MACRO":
        macro = session.engine.shadow.macro(bound.name)
        params = ", ".join(f"{name} {ptype}" for name, ptype in macro.parameters)
        header = f"CREATE MACRO {macro.name}"
        if params:
            header += f" ({params})"
        ddl = f"{header} AS ({macro.body_sql});"
        return session.fabricate_result(
            ["REQUEST_TEXT"], [t.varchar(4096)], [(ddl,)], timing)
    schema = session.catalog.resolve(bound.name)
    if schema is None:
        raise EmulationError(f"object {bound.name} does not exist")
    if schema.is_view:
        ddl = f"CREATE VIEW {schema.name} AS {schema.view_sql};"
    else:
        ddl = reconstruct_table_ddl(schema)
    return session.fabricate_result(
        ["REQUEST_TEXT"], [t.varchar(4096)], [(ddl,)], timing)


def reconstruct_table_ddl(schema) -> str:
    """Rebuild source-dialect DDL from shadow-catalog metadata."""
    kind = "SET" if schema.set_semantics else "MULTISET"
    volatile = "VOLATILE " if schema.volatile else ""
    parts = []
    for col in schema.columns:
        part = f"{col.name} {col.type}"
        if not col.nullable:
            part += " NOT NULL"
        if col.default_sql:
            part += f" DEFAULT {col.default_sql}"
        if not col.case_specific:
            part += " NOT CASESPECIFIC"
        parts.append(part)
    ddl = f"CREATE {kind} {volatile}TABLE {schema.name} ({', '.join(parts)})"
    if schema.primary_index:
        ddl += f" PRIMARY INDEX ({', '.join(schema.primary_index)})"
    return ddl + ";"
