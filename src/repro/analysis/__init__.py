"""repro.analysis — rule-based static diagnostics (run by ``repro verify``).

The paper's DIABLO pass rewrites binaries under a stack of invariants
(chain ordering by execution weight, page-multiple WPA sizes, one
(set, way) home per WPA line, conservation-respecting energy constants).
This package checks those invariants *statically*, before a single cycle
is simulated:

* :mod:`~repro.analysis.diagnostics` — the :class:`Diagnostic` value type
  (rule id, severity, location, message, suggested fix);
* :mod:`~repro.analysis.registry` — rule registration with
  ``--select``/``--ignore`` resolution;
* :mod:`~repro.analysis.rules` — the concrete rule catalog: ``P``
  (program structure), ``L`` (layout/WPA) and ``C`` (config), beside
  the ``V`` rules that :mod:`repro.verify` registers;
* :mod:`~repro.analysis.engine` — the :class:`Analyzer`, which runs a
  rule selection over a context.

Two entry points run the rules: every program build, through
:func:`repro.program.validate.validate_program` (a wrapper over the ``P``
rules), and ``repro verify`` (each certificate carries its workload's
diagnostics from every rule).  See ``docs/analysis.md`` for the rule
catalog.
"""

from repro.analysis.context import (
    AnalysisContext,
    GeometrySpec,
    LayoutView,
    ProgramView,
)
from repro.analysis.diagnostics import Diagnostic, Location, Severity
from repro.analysis.engine import Analyzer, analyze_program
from repro.analysis.registry import DEFAULT_REGISTRY, Finding, Rule, RuleRegistry

__all__ = [
    "AnalysisContext",
    "Analyzer",
    "DEFAULT_REGISTRY",
    "Diagnostic",
    "Finding",
    "GeometrySpec",
    "LayoutView",
    "Location",
    "ProgramView",
    "Rule",
    "RuleRegistry",
    "Severity",
    "analyze_program",
]
