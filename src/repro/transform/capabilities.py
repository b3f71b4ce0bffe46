"""Capability descriptors for source and target database systems.

The Transformer triggers a rewrite rule exactly when the target lacks the
capability the rule compensates for (Section 4.3). The same descriptors drive
Figure 2's feature-support matrix: we model four archetypal cloud data
warehouses (named after, but not claiming to be, the four systems the paper
surveys) plus the Teradata source profile and the profile of our executing
in-memory backend.

The concrete support values are *modeled*: they are chosen to match the
qualitative shape of Figure 2 (e.g. no cloud system accepts implicit joins or
date/integer comparisons; about half support recursion; a minority support
QUALIFY) and are documented here as data rather than buried in code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields


class NullOrdering(enum.Enum):
    """Where NULLs sort by default for an ascending key."""

    NULLS_FIRST = "NULLS_FIRST"   # Teradata behaviour
    NULLS_LAST = "NULLS_LAST"     # Postgres-family behaviour


class LimitSyntax(enum.Enum):
    LIMIT = "LIMIT"   # LIMIT n [OFFSET m]
    TOP = "TOP"       # SELECT TOP n ...


@dataclass(frozen=True)
class CapabilityProfile:
    """What a database system can natively express.

    ``True`` means the system accepts the construct natively; ``False`` means
    Hyper-Q must rewrite (Transformation) or emulate (Emulation) it.
    """

    name: str
    # -- language-surface features (Figure 2 / Table 2) --------------------
    keyword_shortcuts: bool = False          # SEL / INS / UPD / DEL
    qualify_clause: bool = False             # QUALIFY predicate on windows
    implicit_joins: bool = False             # tables referenced outside FROM
    named_expression_reuse: bool = False     # alias reuse in same SELECT list
    ordinal_group_by: bool = False           # GROUP BY 1, 2
    grouping_extensions: bool = False        # ROLLUP / CUBE / GROUPING SETS
    date_int_arithmetic: bool = False        # date + 30
    date_int_comparison: bool = False        # date > 1140101
    vector_subquery: bool = False            # (a, b) > ANY (SELECT x, y ...)
    explicit_null_ordering: bool = True      # ORDER BY ... NULLS FIRST/LAST
    top_with_ties: bool = False              # TOP n WITH TIES
    recursive_cte: bool = False              # WITH RECURSIVE
    merge_statement: bool = False            # MERGE INTO
    macros: bool = False                     # CREATE MACRO / EXEC
    stored_procedures: bool = False          # CREATE PROCEDURE / CALL
    updatable_views: bool = False            # DML on views
    set_tables: bool = False                 # SET-table duplicate elimination
    volatile_tables: bool = False            # VOLATILE / global temp tables
    case_insensitive_columns: bool = False   # NOT CASESPECIFIC columns
    nonconstant_defaults: bool = False       # DEFAULT CURRENT_DATE etc.
    period_type: bool = False                # PERIOD compound type
    help_commands: bool = False              # HELP SESSION / SHOW TABLE
    # -- dialect mechanics --------------------------------------------------
    default_null_ordering: NullOrdering = NullOrdering.NULLS_LAST
    limit_syntax: LimitSyntax = LimitSyntax.LIMIT
    temp_table_keyword: str = "TEMPORARY"

    def supports(self, feature: str) -> bool:
        """Dynamic capability lookup by field name (used by Figure 2)."""
        return bool(getattr(self, feature))


#: The source system: supports everything by definition.
TERADATA = CapabilityProfile(
    name="teradata",
    keyword_shortcuts=True,
    qualify_clause=True,
    implicit_joins=True,
    named_expression_reuse=True,
    ordinal_group_by=True,
    grouping_extensions=True,
    date_int_arithmetic=True,
    date_int_comparison=True,
    vector_subquery=True,
    explicit_null_ordering=True,
    top_with_ties=True,
    recursive_cte=True,
    merge_statement=True,
    macros=True,
    stored_procedures=True,
    updatable_views=True,
    set_tables=True,
    volatile_tables=True,
    case_insensitive_columns=True,
    nonconstant_defaults=True,
    period_type=True,
    help_commands=True,
    default_null_ordering=NullOrdering.NULLS_FIRST,
    limit_syntax=LimitSyntax.TOP,
)

#: Our executing in-memory backend ("hyperion"): a deliberately plain ANSI
#: engine so every rewrite and emulation path is exercised end-to-end.
HYPERION = CapabilityProfile(
    name="hyperion",
    ordinal_group_by=False,
    explicit_null_ordering=True,
    recursive_cte=False,
    grouping_extensions=False,
    stored_procedures=False,
    default_null_ordering=NullOrdering.NULLS_LAST,
    limit_syntax=LimitSyntax.LIMIT,
)

#: Variant of the executing backend with more native features enabled: the
#: conformance matrix and the golden corpus run it as the dialect where
#: MERGE, recursion, grouping extensions and vector subqueries go native.
HYPERION_PLUS = CapabilityProfile(
    name="hyperion_plus",
    ordinal_group_by=False,
    explicit_null_ordering=True,
    recursive_cte=True,
    grouping_extensions=True,
    merge_statement=True,
    vector_subquery=True,
    default_null_ordering=NullOrdering.NULLS_LAST,
    limit_syntax=LimitSyntax.LIMIT,
)

# -- modeled cloud data warehouse archetypes (Figure 2) ----------------------

MEADOWSHIFT = CapabilityProfile(  # Redshift-like: Postgres heritage
    name="meadowshift",
    ordinal_group_by=True,
    explicit_null_ordering=True,
    recursive_cte=False,
    grouping_extensions=False,
    merge_statement=False,
    stored_procedures=False,
    updatable_views=False,
    nonconstant_defaults=True,
    date_int_arithmetic=True,       # date + int works in Postgres family
    default_null_ordering=NullOrdering.NULLS_LAST,
)

SKYQUERY = CapabilityProfile(  # BigQuery-like
    name="skyquery",
    ordinal_group_by=True,
    named_expression_reuse=False,
    explicit_null_ordering=True,
    grouping_extensions=True,
    recursive_cte=False,
    merge_statement=True,
    stored_procedures=False,
    nonconstant_defaults=False,
    default_null_ordering=NullOrdering.NULLS_LAST,
)

AZURESYNTH = CapabilityProfile(  # Azure SQL DW-like: T-SQL heritage
    name="azuresynth",
    ordinal_group_by=False,
    explicit_null_ordering=False,
    grouping_extensions=True,
    recursive_cte=True,
    merge_statement=False,
    stored_procedures=True,
    updatable_views=True,
    volatile_tables=True,
    case_insensitive_columns=True,
    nonconstant_defaults=True,
    top_with_ties=True,
    default_null_ordering=NullOrdering.NULLS_FIRST,
    limit_syntax=LimitSyntax.TOP,
)

SNOWFIELD = CapabilityProfile(  # Snowflake-like
    name="snowfield",
    qualify_clause=True,
    ordinal_group_by=True,
    explicit_null_ordering=True,
    grouping_extensions=True,
    recursive_cte=True,
    merge_statement=True,
    stored_procedures=True,
    volatile_tables=True,
    nonconstant_defaults=True,
    default_null_ordering=NullOrdering.NULLS_LAST,
)

PROFILES: dict[str, CapabilityProfile] = {
    profile.name: profile
    for profile in (TERADATA, HYPERION, HYPERION_PLUS,
                    MEADOWSHIFT, SKYQUERY, AZURESYNTH, SNOWFIELD)
}


def cloud_profiles() -> list[CapabilityProfile]:
    """The four modeled cloud data warehouses surveyed in Figure 2."""
    return [MEADOWSHIFT, SKYQUERY, AZURESYNTH, SNOWFIELD]


def capability_fields() -> list[str]:
    """Names of the boolean capability flags (excludes dialect mechanics)."""
    skip = {"name", "default_null_ordering", "limit_syntax", "temp_table_keyword"}
    return [f.name for f in fields(CapabilityProfile) if f.name not in skip]


def support_fraction(feature: str) -> float:
    """Fraction of the modeled cloud systems natively supporting *feature*."""
    profiles = cloud_profiles()
    return sum(1 for p in profiles if p.supports(feature)) / len(profiles)
