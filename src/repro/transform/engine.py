"""The Transformer: capability-gated rewrite rules run to a fixpoint.

Mirrors Section 4.3: transformations are pluggable components keyed to the
XTRA constructs they rewrite; the driver triggers every applicable rule and
re-runs the rule set until the statement stops changing (with a divergence
guard). Rules declare which capability gap they close, so a target that
supports the construct natively never pays for (or observes) the rewrite —
exactly how Section 5.3 defers the vector-subquery rewrite to targets that
need it.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TransformError
from repro.core import trace as trace_mod
from repro.core.tracker import FeatureTracker
from repro.transform.capabilities import CapabilityProfile
from repro.xtra.relational import RelNode, Statement
from repro.xtra.scalars import ScalarExpr
from repro.xtra.visitor import rewrite_statement

_MAX_PASSES = 10


class Rule:
    """Base class for transformation rules.

    Subclasses set ``name`` (tracked feature name or a rule id), ``stage``
    (the pipeline stage reported to the tracker), and override ``applies``
    plus one or both of ``rewrite_scalar`` / ``rewrite_rel``.
    """

    name: str = ""
    stage: str = "transformer"
    feature: Optional[str] = None  # tracked feature fired when the rule acts

    def applies(self, profile: CapabilityProfile) -> bool:
        """Whether the rule is needed for this target at all."""
        raise NotImplementedError

    def rewrite_scalar(self, expr: ScalarExpr, ctx: "RuleContext") -> ScalarExpr:
        return expr

    def rewrite_rel(self, node: RelNode, ctx: "RuleContext") -> RelNode:
        return node


class RuleContext:
    """Shared state for one transform pass: profile, tracker, change flag."""

    def __init__(self, profile: CapabilityProfile,
                 tracker: Optional[FeatureTracker]):
        self.profile = profile
        self.tracker = tracker
        self.changed = False
        #: Names of rules that fired this pass, first-fire order (feeds the
        #: per-rule trace spans and the golden-corpus rule summaries).
        self.fired_rules: list[str] = []
        self._alias_counter = 0

    def fired(self, rule: Rule) -> None:
        self.changed = True
        name = rule.name or type(rule).__name__
        if name not in self.fired_rules:
            self.fired_rules.append(name)
        if rule.feature and self.tracker is not None:
            self.tracker.note(rule.feature, rule.stage)

    def fresh_alias(self, prefix: str) -> str:
        self._alias_counter += 1
        return f"{prefix}{self._alias_counter}"


def default_rules() -> list[Rule]:
    """The built-in rule set, in application order."""
    from repro.transform.rules.date_int_compare import DateIntCompareRule
    from repro.transform.rules.date_arith import DateArithRule
    from repro.transform.rules.olap_grouping import OlapGroupingRule
    from repro.transform.rules.vector_subquery import VectorSubqueryRule
    from repro.transform.rules.null_ordering import NullOrderingRule

    return [
        DateIntCompareRule(),
        DateArithRule(),
        OlapGroupingRule(),
        VectorSubqueryRule(),
        NullOrderingRule(),
    ]


class Transformer:
    """Runs the rule set against bound XTRA statements until a fixpoint."""

    def __init__(self, profile: CapabilityProfile,
                 tracker: Optional[FeatureTracker] = None,
                 rules: Optional[list[Rule]] = None):
        self._profile = profile
        self._tracker = tracker
        self._all_rules = rules if rules is not None else default_rules()
        self._rules = [rule for rule in self._all_rules if rule.applies(profile)]

    @property
    def active_rules(self) -> list[Rule]:
        return list(self._rules)

    def transform(self, statement: Statement) -> Statement:
        """Rewrite *statement* in place, returning it for chaining.

        When a trace is active, each pass that fires rules emits one child
        span per fired rule (``rule:<name>``) carrying the XTRA digests
        from before and after the pass — the provenance trail showing what
        each rewrite actually changed. Digests are pass-granular because a
        pass applies all rules in one tree walk.
        """
        if not self._rules:
            return statement
        trace = trace_mod.current_trace()
        tracing = trace is not None
        passes = 0
        while True:
            passes += 1
            if passes > _MAX_PASSES:
                raise TransformError(
                    "transformation did not reach a fixpoint within "
                    f"{_MAX_PASSES} passes")
            ctx = RuleContext(self._profile, self._tracker)
            before_digest = (trace_mod.xtra_digest(statement)
                             if tracing else "")
            pass_start = trace.clock() if tracing else 0.0

            def scalar_fn(expr: ScalarExpr) -> ScalarExpr:
                for rule in self._rules:
                    expr = rule.rewrite_scalar(expr, ctx)
                return expr

            def rel_fn(node: RelNode) -> RelNode:
                for rule in self._rules:
                    node = rule.rewrite_rel(node, ctx)
                return node

            rewrite_statement(statement, rel_fn, scalar_fn)
            if tracing and ctx.fired_rules:
                pass_end = trace.clock()
                after_digest = trace_mod.xtra_digest(statement)
                for rule_name in ctx.fired_rules:
                    trace_mod.add_span(
                        f"rule:{rule_name}", pass_start, pass_end,
                        before=before_digest, after=after_digest,
                        transform_pass=passes)
            if not ctx.changed:
                return statement
