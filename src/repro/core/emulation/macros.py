"""Macro emulation (Table 2: "Emulate macro code execution in the mid-tier").

Teradata macros are named, parameterized statement sequences. Customer 2 of
the paper's workload study wraps most business logic in macros, which is why
almost 80% of that workload requires emulation. EXEC is emulated by
substituting the argument literals into the stored body text, re-parsing it
as a statement script, and running each statement through the regular
pipeline; the last result set (if any) is returned to the application,
matching bteq's observable behaviour for single-result macros.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from repro.errors import EmulationError
from repro.core.catalog import MacroDef
from repro.xtra import relational as r
from repro.xtra import scalars as s

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import HQResult, HyperQSession

_PARAM_RE = re.compile(r":(\w+)")


def _literal_sql(session: "HyperQSession", expr: s.ScalarExpr) -> str:
    if isinstance(expr, s.Const):
        return session.serializer.literal(expr.value, expr.type)
    if isinstance(expr, s.Negate) and isinstance(expr.operand, s.Const):
        return "-" + session.serializer.literal(expr.operand.value,
                                                expr.operand.type)
    raise EmulationError("macro arguments must be literal values")


def expand(session: "HyperQSession", bound: r.ExecMacro) -> str:
    """Expand a macro body with the EXEC arguments substituted."""
    macro = session.engine.shadow.macro(bound.name)
    values: dict[str, str] = {}
    if bound.arguments:
        if len(bound.arguments) > len(macro.parameters):
            raise EmulationError(
                f"macro {macro.name} takes {len(macro.parameters)} arguments, "
                f"got {len(bound.arguments)}")
        for (param_name, __), arg in zip(macro.parameters, bound.arguments):
            values[param_name.upper()] = _literal_sql(session, arg)
    for param_name, arg in bound.named_arguments.items():
        values[param_name.upper()] = _literal_sql(session, arg)
    missing = [name for name, __ in macro.parameters if name.upper() not in values]
    if missing:
        raise EmulationError(
            f"macro {macro.name}: missing arguments {', '.join(missing)}")

    def substitute(match: re.Match) -> str:
        name = match.group(1).upper()
        if name not in values:
            raise EmulationError(f"macro {macro.name}: unknown parameter :{name}")
        return values[name]

    return _PARAM_RE.sub(substitute, macro.body_sql)


def run(session: "HyperQSession", bound: r.Statement) -> "HQResult":
    """CREATE / DROP MACRO keep the definition in the shadow catalog; EXEC
    runs the expanded body."""
    from repro.core.engine import HQResult

    shadow = session.engine.shadow
    if isinstance(bound, r.CreateMacro):
        shadow.add_macro(MacroDef(bound.name, bound.parameters, bound.body_sql),
                         replace=bound.replace)
        return HQResult(kind="ok")
    if isinstance(bound, r.DropMacro):
        shadow.drop_macro(bound.name)
        return HQResult(kind="ok")
    body_sql = expand(session, bound)
    statements = session.parse_nested(body_sql)
    if not statements:
        raise EmulationError(f"macro {bound.name} has an empty body")
    rows_result: HQResult | None = None
    for ast in statements:
        last = session.run_nested(ast)
        if last.kind == "rows":
            rows_result = last
    return rows_result or last
