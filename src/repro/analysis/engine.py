"""The analyzer: run selected rules over a context, collect diagnostics.

The :class:`Analyzer` is configured once (rule selection) and reused
across many contexts: ``repro verify`` builds one per invocation, and
:func:`analyze_program` one per program build.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import DEFAULT_REGISTRY, RuleRegistry
from repro.program.program import Program

# Importing the rule modules populates DEFAULT_REGISTRY.
from repro.analysis.rules import config_rules, layout_rules, program_rules  # noqa: F401  isort: skip
from repro.verify import rules as verify_rules  # noqa: F401  isort: skip

__all__ = ["Analyzer", "analyze_program"]


class Analyzer:
    """Runs a rule selection over analysis contexts."""

    def __init__(
        self,
        registry: Optional[RuleRegistry] = None,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ):
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self._rules = self.registry.selection(select, ignore)

    @property
    def rule_ids(self) -> List[str]:
        return [rule.rule_id for rule in self._rules]

    def run(self, context: AnalysisContext) -> List[Diagnostic]:
        """All diagnostics for ``context``, sorted by (rule, location)."""
        diagnostics: List[Diagnostic] = []
        for rule in self._rules:
            for finding in rule.check(context):
                diagnostics.append(
                    Diagnostic(
                        rule_id=rule.rule_id,
                        rule_name=rule.name,
                        severity=rule.severity,
                        location=finding.location,
                        message=finding.message,
                        suggestion=finding.suggestion,
                    )
                )
        diagnostics.sort(key=Diagnostic.sort_key)
        return diagnostics


def analyze_program(
    program: Program,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Program-rule diagnostics for one built program (P rules by default)."""
    analyzer = Analyzer(select=select if select is not None else ("P",), ignore=ignore)
    return analyzer.run(AnalysisContext.for_program(program))
