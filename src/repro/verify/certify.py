"""Workload certification: the ``repro verify`` back end.

A *certificate* for one workload bundles three verification layers:

1. the full static rule set (the ``P``/``L``/``C`` rules and the ``V``
   dataflow-verifier rules) over the program, profile, layout, geometry,
   and WPA behind one experiment,
2. the symbolic WPA placement proof (injectivity, bit-extraction
   consistency, I-TLB representability), and
3. a sanitized kernel replay of the workload's line-event trace
   (baseline + way-placement, differential and energy reconciliation).

A workload is **certified** when no error-severity diagnostic fired, the
proof holds, and the sanitizer saw zero violations.  The JSON rendering
is byte-for-byte deterministic for a given input, so CI can diff two
consecutive runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import Analyzer, Diagnostic, Severity
from repro.analysis.context import GeometrySpec
from repro.experiments.runner import ExperimentRunner
from repro.layout.placement import LayoutPolicy
from repro.sim.machine import MachineConfig, XSCALE_BASELINE
from repro.verify.sanitizer import SanitizerViolation, sanitize_events
from repro.verify.wpa_proof import WpaProof, prove_wpa_placement

__all__ = [
    "WorkloadCertificate",
    "certify_workload",
    "render_certificates_json",
    "render_certificates_text",
]


@dataclass(frozen=True)
class WorkloadCertificate:
    """The verifier's verdict on one workload."""

    benchmark: str
    layout_policy: str
    wpa_size: int
    diagnostics: Tuple[Diagnostic, ...]
    proof: WpaProof
    sanitizer_violations: Tuple[SanitizerViolation, ...]
    sanitized: bool

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors and self.proof.holds and not self.sanitizer_violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "layout": self.layout_policy,
            "wpa_size": self.wpa_size,
            "ok": self.ok,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "wpa_proof": self.proof.to_dict(),
            "sanitized": self.sanitized,
            "sanitizer_violations": [
                {"invariant": v.invariant, "name": v.name, "message": v.message}
                for v in self.sanitizer_violations
            ],
        }


def certify_workload(
    runner: ExperimentRunner,
    benchmark: str,
    policy: LayoutPolicy = LayoutPolicy.WAY_PLACEMENT,
    machine: MachineConfig = XSCALE_BASELINE,
    wpa_size: Optional[int] = None,
    analyzer: Optional[Analyzer] = None,
) -> WorkloadCertificate:
    """Build one workload's certificate (see the module docstring).

    ``machine`` carries the geometry and the page size of every layer: the
    rules, the proof and the sanitized replay.
    """
    if wpa_size is None:
        wpa_size = runner.fitted_wpa_size(benchmark, policy, machine)

    context = runner.analysis_context(benchmark, policy, machine, wpa_size)
    diagnostics = (analyzer if analyzer is not None else Analyzer()).run(context)
    proof = prove_wpa_placement(
        GeometrySpec.from_geometry(machine.icache), wpa_size, machine.page_size
    )

    violations: Tuple[SanitizerViolation, ...] = ()
    # The sanitized replay needs a TLB-representable WPA; when the WPA is
    # unaligned the static rules (L004/V006) already carry the verdict.
    sanitized = wpa_size % machine.page_size == 0
    if sanitized:
        events = runner.events(benchmark, policy, machine.icache.line_size)
        violations = tuple(
            sanitize_events(
                events,
                machine.icache,
                wpa_size,
                itlb_entries=machine.itlb_entries,
                page_size=machine.page_size,
                energy_params=runner.energy_params,
                organisation=runner.organisation,
            )
        )

    return WorkloadCertificate(
        benchmark=benchmark,
        layout_policy=policy.value,
        wpa_size=wpa_size,
        diagnostics=tuple(diagnostics),
        proof=proof,
        sanitizer_violations=violations,
        sanitized=sanitized,
    )


def render_certificates_json(certificates: List[WorkloadCertificate]) -> str:
    """Deterministic JSON report over many certificates."""
    ordered = sorted(certificates, key=lambda c: c.benchmark)
    payload = {
        "certificates": [certificate.to_dict() for certificate in ordered],
        "summary": {
            "total": len(ordered),
            "certified": sum(1 for c in ordered if c.ok),
            "failed": sum(1 for c in ordered if not c.ok),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_certificates_text(certificates: List[WorkloadCertificate]) -> str:
    """Human-readable per-workload verdict lines.

    Under each verdict: every diagnostic (warnings and infos too, each with
    its indented hint), then every sanitizer violation.
    """
    lines: List[str] = []
    for certificate in sorted(certificates, key=lambda c: c.benchmark):
        status = "certified" if certificate.ok else "FAILED"
        lines.append(
            f"{certificate.benchmark:<14} {status:<9} "
            f"wpa={certificate.wpa_size // 1024}KB "
            f"proof={'holds' if certificate.proof.holds else 'FAILS'} "
            f"diagnostics={len(certificate.diagnostics)} "
            f"sanitizer={len(certificate.sanitizer_violations)}"
        )
        for diagnostic in certificate.diagnostics:
            lines.extend(f"    {line}" for line in diagnostic.render().splitlines())
        for violation in certificate.sanitizer_violations:
            lines.append(f"    {violation.render()}")
    certified = sum(1 for c in certificates if c.ok)
    lines.append(f"{certified}/{len(certificates)} workload(s) certified")
    return "\n".join(lines)
