"""Unit tests for the diagnostic model, registry, and analyzer plumbing."""

from __future__ import annotations

import pytest

from repro.analysis import (
    Analyzer,
    AnalysisContext,
    DEFAULT_REGISTRY,
    Diagnostic,
    Finding,
    Location,
    Rule,
    RuleRegistry,
    Severity,
)
from repro.errors import AnalysisError


def _diag(rule_id="X001", detail="a", message="m", severity=Severity.ERROR):
    return Diagnostic(
        rule_id=rule_id,
        rule_name="test-rule",
        severity=severity,
        location=Location("config", "t", detail),
        message=message,
    )


# ---------------------------------------------------------------------------
# Severity and Diagnostic values
# ---------------------------------------------------------------------------
def test_severity_is_ordered():
    assert Severity.ERROR > Severity.WARNING > Severity.INFO
    assert str(Severity.WARNING) == "warning"


def test_diagnostic_sort_key_orders_by_rule_then_location():
    diagnostics = [
        _diag(rule_id="X002", detail="a"),
        _diag(rule_id="X001", detail="b"),
        _diag(rule_id="X001", detail="a"),
    ]
    ordered = sorted(diagnostics, key=Diagnostic.sort_key)
    assert [(d.rule_id, d.location.detail) for d in ordered] == [
        ("X001", "a"),
        ("X001", "b"),
        ("X002", "a"),
    ]


def test_diagnostic_to_dict_and_render():
    diagnostic = _diag()
    payload = diagnostic.to_dict()
    assert payload["rule"] == "X001"
    assert payload["severity"] == "error"
    assert payload["location"] == {"kind": "config", "name": "t", "detail": "a"}
    assert "X001 error" in diagnostic.render()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def _noop_rule(rule_id, severity=Severity.WARNING):
    return Rule(rule_id, "noop", "config", severity, "does nothing", lambda ctx: [])


def test_registry_rejects_duplicate_ids():
    registry = RuleRegistry()
    registry.register(_noop_rule("T001"))
    with pytest.raises(AnalysisError, match="duplicate rule id"):
        registry.register(_noop_rule("T001"))


def test_registry_selection_by_prefix_and_id():
    registry = RuleRegistry()
    for rule_id in ("T001", "T002", "U001"):
        registry.register(_noop_rule(rule_id))
    assert [r.rule_id for r in registry.selection(["T"])] == ["T001", "T002"]
    assert [r.rule_id for r in registry.selection(None, ["U"])] == ["T001", "T002"]
    assert [r.rule_id for r in registry.selection(["T", "U001"], ["T002"])] == [
        "T001",
        "U001",
    ]


def test_registry_unknown_selector_raises():
    registry = RuleRegistry()
    registry.register(_noop_rule("T001"))
    with pytest.raises(AnalysisError, match="matches no rule"):
        registry.selection(["Z"])


def test_default_registry_has_all_four_layers():
    layers = {rule.layer for rule in DEFAULT_REGISTRY}
    assert layers == {"program", "layout", "config", "verify"}
    assert len(DEFAULT_REGISTRY) >= 10


# ---------------------------------------------------------------------------
# Analyzer
# ---------------------------------------------------------------------------
def _firing_registry():
    registry = RuleRegistry()

    def fire(ctx):
        yield Finding(Location("config", ctx.subject, "x"), "it fired")

    registry.register(Rule("T001", "fires", "config", Severity.WARNING, "", fire))
    registry.register(_noop_rule("T002"))
    return registry


def test_analyzer_select_ignore():
    registry = _firing_registry()
    assert Analyzer(registry=registry, ignore=["T001"]).run(
        AnalysisContext(subject="s")
    ) == []
    assert len(Analyzer(registry=registry, select=["T001"]).run(
        AnalysisContext(subject="s")
    )) == 1
