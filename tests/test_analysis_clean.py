"""The bundled synthetic workloads must be lint-clean end to end.

Every benchmark is analysed with the full rule set over its program,
its way-placement layout, a small profile, and the XScale baseline
geometry with a fitted WPA (see the ``lint_all_workloads`` fixture).
A diagnostic here means either a workload generator bug or a rule
that fires on legitimate artifacts — both are worth failing the build.
"""

from __future__ import annotations

import pytest

from repro.analysis import Diagnostic
from repro.workloads import benchmark_names


@pytest.mark.parametrize("benchmark_name", benchmark_names())
def test_workload_is_lint_clean(benchmark_name, lint_all_workloads):
    diagnostics = lint_all_workloads[benchmark_name]
    assert diagnostics == [], "\n".join(map(Diagnostic.render, diagnostics))


def test_all_workloads_were_analysed(lint_all_workloads):
    assert set(lint_all_workloads) == set(benchmark_names())
