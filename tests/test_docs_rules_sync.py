"""The documented rule catalogs must match the registries exactly.

``docs/analysis.md`` and ``docs/verification.md`` both carry markdown
tables of rule/invariant ids.  These tests pin every table row to the
live registry (id, name, and severity) and fail on stale or missing
rows, so the docs cannot drift from the code.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis import DEFAULT_REGISTRY
from repro.verify.sanitizer import SANITIZER_INVARIANTS

DOCS = Path(__file__).resolve().parent.parent / "docs"
README = DOCS.parent / "README.md"

_RULE_ROW = re.compile(
    r"^\|\s*([PLCV]\d{3})\s*\|\s*([a-z0-9-]+)\s*\|\s*(\w+)\s*\|", re.MULTILINE
)
_INVARIANT_ROW = re.compile(
    r"^\|\s*(S\d{3})\s*\|\s*([a-z0-9-]+)\s*\|", re.MULTILINE
)


def _rule_rows(text):
    return {match[0]: (match[1], match[2]) for match in _RULE_ROW.findall(text)}


def test_analysis_doc_lists_every_registered_rule():
    rows = _rule_rows((DOCS / "analysis.md").read_text())
    assert set(rows) == set(DEFAULT_REGISTRY.ids())
    for rule_id, (name, severity) in rows.items():
        rule = DEFAULT_REGISTRY.get(rule_id)
        assert name == rule.name, rule_id
        assert severity == rule.severity.name.lower(), rule_id


def test_verification_doc_lists_every_v_rule():
    rows = _rule_rows((DOCS / "verification.md").read_text())
    v_ids = {rid for rid in DEFAULT_REGISTRY.ids() if rid.startswith("V")}
    assert set(rows) == v_ids
    for rule_id, (name, severity) in rows.items():
        rule = DEFAULT_REGISTRY.get(rule_id)
        assert name == rule.name, rule_id
        assert severity == rule.severity.name.lower(), rule_id


def test_verification_doc_lists_every_sanitizer_invariant():
    rows = dict(_INVARIANT_ROW.findall((DOCS / "verification.md").read_text()))
    assert rows == SANITIZER_INVARIANTS


def test_sanitizer_catalog_includes_static_bounds():
    assert SANITIZER_INVARIANTS["S008"] == "static-bounds-bracketing"


def test_verification_doc_is_linked():
    assert "verification.md" in README.read_text()
    assert "verification.md" in (DOCS / "architecture.md").read_text()

