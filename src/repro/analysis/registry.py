"""Rule registration, lookup, and ``--select``/``--ignore`` resolution.

Rules are registered once at import time into :data:`DEFAULT_REGISTRY`
via the :func:`rule` decorator.  Rule ids follow a fixed scheme — ``P``
(program), ``L`` (layout/WPA), ``C`` (config) plus a three-digit number —
and selectors match either a full id (``L004``) or a prefix (``L``), like
ruff's code selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import Location, Severity
from repro.errors import AnalysisError

__all__ = ["Finding", "Rule", "RuleRegistry", "DEFAULT_REGISTRY", "rule"]


@dataclass(frozen=True)
class Finding:
    """What a rule check yields; the engine wraps it into a Diagnostic."""

    location: Location
    message: str
    suggestion: Optional[str] = None


RuleCheck = Callable[[AnalysisContext], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A registered diagnostic rule."""

    rule_id: str
    name: str
    layer: str  # "program" | "layout" | "config"
    severity: Severity
    description: str
    check: RuleCheck


class RuleRegistry:
    """Ordered collection of rules with ruff-style selector resolution."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, new_rule: Rule) -> None:
        if new_rule.rule_id in self._rules:
            raise AnalysisError(f"duplicate rule id {new_rule.rule_id!r}")
        self._rules[new_rule.rule_id] = new_rule

    def rule(
        self,
        rule_id: str,
        name: str,
        layer: str,
        severity: Severity,
        description: str,
    ) -> Callable[[RuleCheck], RuleCheck]:
        """Decorator registering ``check`` under ``rule_id``."""

        def decorator(check: RuleCheck) -> RuleCheck:
            self.register(Rule(rule_id, name, layer, severity, description, check))
            return check

        return decorator

    # -- lookup -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __iter__(self) -> Iterator[Rule]:
        for rule_id in sorted(self._rules):
            yield self._rules[rule_id]

    def get(self, rule_id: str) -> Rule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise AnalysisError(f"unknown rule id {rule_id!r}") from None

    def ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._rules))

    # -- selection ----------------------------------------------------------
    def _matches(self, selector: str) -> List[str]:
        selector = selector.strip().upper()
        matched = [
            rule_id for rule_id in sorted(self._rules) if rule_id.startswith(selector)
        ]
        if not matched:
            raise AnalysisError(
                f"selector {selector!r} matches no rule "
                f"(known ids: {', '.join(self.ids())})"
            )
        return matched

    def selection(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> List[Rule]:
        """Rules enabled by ``select`` minus ``ignore`` (both optional).

        Selectors are full ids or prefixes; an empty/None ``select`` means
        every registered rule.  Unknown selectors raise
        :class:`~repro.errors.AnalysisError` rather than silently matching
        nothing.
        """
        enabled = set(self._rules)
        if select:
            enabled = set()
            for selector in select:
                enabled.update(self._matches(selector))
        if ignore:
            for selector in ignore:
                enabled.difference_update(self._matches(selector))
        return [self._rules[rule_id] for rule_id in sorted(enabled)]


DEFAULT_REGISTRY = RuleRegistry()

#: Module-level decorator used by the rule modules.
rule = DEFAULT_REGISTRY.rule
