"""Workload certification: the ``repro verify`` back end.

A *certificate* for one workload bundles four verification layers:

1. the full static rule set (``P``/``L``/``C`` lint rules, the ``V``
   dataflow-verifier rules, and the ``A``/``I`` rules backed by the
   abstract interpretation and the interference analysis) over the
   program, profile, layout, geometry, and WPA behind one experiment,
2. the symbolic WPA placement proof (injectivity, bit-extraction
   consistency, I-TLB representability),
3. a sanitized kernel replay of the workload's line-event trace
   (baseline + way-placement, differential and energy reconciliation),
   and
4. one :class:`ConfigCertificate` per replay configuration in
   :data:`CONFIGS` — the baseline on the original layout, and
   way-placement on the profile-chained and on the conflict-aware
   layout, each at that layout's fitted WPA.  An entry checks the
   engine's measured counters and energy against the static bounds the
   must/may fixpoint derives (:mod:`repro.analysis.absint`), and its
   measured misses against a per-set conflict replay whose certified
   conflict-free sets must replay clean
   (:mod:`repro.analysis.interference`).

A workload is **certified** when no error-severity diagnostic fired, the
proof holds, the sanitizer saw zero violations, and every configuration
entry holds.  The JSON rendering is byte-for-byte deterministic for a
given input, so CI can diff two consecutive runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import Analyzer, Diagnostic, Severity
from repro.analysis.absint.analysis import CacheBehavior, analyze_cache, behavior_for
from repro.analysis.absint.bounds import (
    BoundsViolation,
    CounterBounds,
    energy_bounds,
    footprint_bounds,
)
from repro.analysis.context import AnalysisContext, GeometrySpec
from repro.analysis.interference.graph import InterferenceGraph, graph_for
from repro.analysis.interference.replay import (
    ConflictReplay,
    conflict_free_violations,
    conflict_replay,
    trace_certified_sets,
)
from repro.energy.cache_model import CacheEnergyModel
from repro.experiments.runner import ExperimentRunner
from repro.layout.placement import LayoutPolicy
from repro.sim.machine import MachineConfig, XSCALE_BASELINE
from repro.verify.sanitizer import SanitizerViolation, sanitize_events
from repro.verify.wpa_proof import WpaProof, prove_wpa_placement

__all__ = [
    "CONFIGS",
    "ConfigCertificate",
    "WorkloadCertificate",
    "certify_workload",
    "render_certificates_json",
    "render_certificates_text",
]

#: The replay configurations every certificate covers, as (scheme, layout).
CONFIGS: Tuple[Tuple[str, LayoutPolicy], ...] = (
    ("baseline", LayoutPolicy.ORIGINAL),
    ("way-placement", LayoutPolicy.WAY_PLACEMENT),
    ("way-placement", LayoutPolicy.CONFLICT_AWARE),
)


@dataclass(frozen=True)
class ConfigCertificate:
    """One ``(scheme, layout, wpa)`` configuration's analyses vs. the engine."""

    scheme: str
    layout_policy: str
    wpa_size: int
    #: The must/may fixpoint (None when the inputs cannot support one).
    behavior: Optional[CacheBehavior]
    bounds: Optional[CounterBounds]
    bounds_violations: Tuple[BoundsViolation, ...]
    #: Priced totals of the bracket endpoints (icache_pj), when bounded.
    energy_low_pj: Optional[float]
    energy_high_pj: Optional[float]
    #: The measured engine energy, for the bracket cross-check.
    energy_pj: float
    graph: InterferenceGraph
    replay: ConflictReplay
    measured_misses: int
    trace_certified: Tuple[int, ...]
    #: Certified sets that replayed conflict misses (must stay empty).
    conflict_violations: Dict[int, int]

    @property
    def bounds_hold(self) -> bool:
        return not self.bounds_violations

    @property
    def replay_matches(self) -> bool:
        return self.replay.total_misses == self.measured_misses

    @property
    def interference_ok(self) -> bool:
        return self.replay_matches and not self.conflict_violations

    @property
    def ok(self) -> bool:
        return self.bounds_hold and self.interference_ok

    def _absint_dict(self) -> Dict[str, Any]:
        behavior = self.behavior
        return {
            "bounds_hold": self.bounds_hold,
            "violations": [v.render() for v in self.bounds_violations],
            "fixpoint": None
            if behavior is None
            else {
                "converged": behavior.converged,
                "rounds": behavior.rounds,
                "lines": len(behavior.universe.lines),
                "reachable_sites": behavior.reachable_sites,
                "guaranteed_hit_sites": behavior.guaranteed_hit_sites,
                "unknown_sites": behavior.unknown_sites,
                "unknown_fraction": round(behavior.unknown_fraction, 6),
                "never_hit_lines": len(behavior.never_hit),
                "unreachable_lines": len(behavior.unreachable_lines),
                "loop_headers": len(behavior.loop_headers),
            },
            "bounds": self.bounds.to_dict() if self.bounds else None,
            "energy_bracket_pj": (
                [self.energy_low_pj, self.energy_high_pj]
                if self.energy_low_pj is not None
                else None
            ),
            "energy_pj": self.energy_pj,
        }

    def _interference_dict(self) -> Dict[str, Any]:
        graph = self.graph
        return {
            "ok": self.interference_ok,
            "predicted_conflict_weight": graph.total_weight,
            "interfering_pairs": graph.interfering_pairs,
            "loop_components": graph.loop_count,
            "pair_enumeration_truncated": graph.pair_enumeration_truncated,
            "sets": len(graph.sets),
            "conflict_free_sets": list(graph.conflict_free_sets()),
            "trace_certified_sets": list(self.trace_certified),
            "max_set_pressure": max((s.pressure for s in graph.sets), default=0),
            "top_pairs": [
                {
                    "lines": [edge.line_a, edge.line_b],
                    "set": edge.set_index,
                    "depth": edge.depth,
                    "weight": edge.weight,
                }
                for edge in graph.top_pairs
            ],
            "replay": {
                "total_misses": self.replay.total_misses,
                "measured_misses": self.measured_misses,
                "misses_match": self.replay_matches,
                "conflict_misses": self.replay.total_conflict_misses,
            },
            "violations": {
                str(set_index): count
                for set_index, count in sorted(self.conflict_violations.items())
            },
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "layout": self.layout_policy,
            "wpa_size": self.wpa_size,
            "ok": self.ok,
            "absint": self._absint_dict(),
            "interference": self._interference_dict(),
        }

    def problems(self) -> List[str]:
        """One line per failed cross-check, for the text verdict."""
        prefix = f"{self.scheme}/{self.layout_policy}"
        lines = [f"{prefix}: {v.render()}" for v in self.bounds_violations]
        if not self.replay_matches:
            lines.append(
                f"{prefix}: replay misses {self.replay.total_misses} != "
                f"measured {self.measured_misses}"
            )
        lines.extend(
            f"{prefix}: certified set {set_index} replayed {count} "
            f"conflict miss(es)"
            for set_index, count in sorted(self.conflict_violations.items())
        )
        return lines


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
    configs: Tuple[ConfigCertificate, ...]

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]

    @property
    def ok(self) -> bool:
        return (
            not self.errors
            and self.proof.holds
            and not self.sanitizer_violations
            and all(config.ok for config in self.configs)
        )

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
            "configs": [config.to_dict() for config in self.configs],
        }


def _certify_config(
    runner: ExperimentRunner,
    benchmark: str,
    scheme: str,
    policy: LayoutPolicy,
    machine: MachineConfig,
    context: AnalysisContext,
) -> ConfigCertificate:
    """Analyze one configuration on ``context`` and check the engine's run."""
    assert context.geometry is not None
    wpa_size = context.wpa_size or 0
    behavior = (
        behavior_for(context)
        if scheme == "way-placement"
        else analyze_cache(
            context.program, context.layout, context.geometry, scheme, wpa_size
        )
    )
    graph = graph_for(context)
    assert graph is not None
    events = runner.events(benchmark, policy, machine.icache.line_size)
    report = runner.report(
        benchmark, scheme, machine, wpa_size=wpa_size, layout_policy=policy
    )

    bounds = footprint_bounds(
        scheme,
        events,
        machine.icache,
        wpa_size=wpa_size,
        itlb_entries=machine.itlb_entries,
        page_size=machine.page_size,
        never_hit=behavior.never_hit if behavior is not None else None,
    )
    violations: Tuple[BoundsViolation, ...] = ()
    energy_low = energy_high = None
    if bounds is not None:
        violations = tuple(bounds.violations(report.counters))
        model = CacheEnergyModel(
            machine.icache,
            runner.energy_params,
            organisation=runner.organisation,
            wayhint=scheme == "way-placement",
        )
        low, high = energy_bounds(bounds, model)
        energy_low, energy_high = low.icache_pj, high.icache_pj

    replay = conflict_replay(events, context.geometry, wpa_size)
    certified = trace_certified_sets(events, context.geometry, wpa_size)
    return ConfigCertificate(
        scheme=scheme,
        layout_policy=policy.value,
        wpa_size=wpa_size,
        behavior=behavior,
        bounds=bounds,
        bounds_violations=violations,
        energy_low_pj=energy_low,
        energy_high_pj=energy_high,
        energy_pj=report.breakdown.icache_pj,
        graph=graph,
        replay=replay,
        measured_misses=report.counters.misses,
        trace_certified=certified,
        conflict_violations=dict(conflict_free_violations(replay, certified)),
    )


def certify_workload(
    runner: ExperimentRunner,
    benchmark: str,
    policy: LayoutPolicy = LayoutPolicy.WAY_PLACEMENT,
    machine: MachineConfig = XSCALE_BASELINE,
    wpa_size: Optional[int] = None,
    page_size: Optional[int] = None,
    analyzer: Optional[Analyzer] = None,
) -> WorkloadCertificate:
    """Build one workload's certificate (see the module docstring)."""
    if page_size is None:
        page_size = machine.page_size
    if wpa_size is None:
        wpa_size = runner.fitted_wpa_size(benchmark, policy, machine, page_size)

    context = runner.analysis_context(benchmark, policy, machine, wpa_size, page_size)
    diagnostics = (analyzer if analyzer is not None else Analyzer()).run(context)
    proof = prove_wpa_placement(
        GeometrySpec.from_geometry(machine.icache), wpa_size, page_size
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

    configs = []
    for scheme, config_policy in CONFIGS:
        config_wpa = (
            0
            if scheme == "baseline"
            else runner.fitted_wpa_size(benchmark, config_policy, machine)
        )
        # The entry matching the certificate's own layout and WPA reuses its
        # context, and so the fixpoint and graph the A and I rules cached.
        config_context = (
            context
            if (config_policy, config_wpa) == (policy, wpa_size)
            else runner.analysis_context(benchmark, config_policy, machine, config_wpa)
        )
        configs.append(
            _certify_config(
                runner, benchmark, scheme, config_policy, machine, config_context
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
        configs=tuple(configs),
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
    """Human-readable per-workload verdict lines."""
    lines: List[str] = []
    for certificate in sorted(certificates, key=lambda c: c.benchmark):
        status = "certified" if certificate.ok else "FAILED"
        configs_ok = sum(1 for config in certificate.configs if config.ok)
        lines.append(
            f"{certificate.benchmark:<14} {status:<9} "
            f"wpa={certificate.wpa_size // 1024}KB "
            f"proof={'holds' if certificate.proof.holds else 'FAILS'} "
            f"diagnostics={len(certificate.diagnostics)} "
            f"sanitizer={len(certificate.sanitizer_violations)} "
            f"configs={configs_ok}/{len(certificate.configs)}"
        )
        for diagnostic in certificate.errors:
            lines.append(f"    {diagnostic.render()}")
        for violation in certificate.sanitizer_violations:
            lines.append(f"    {violation.render()}")
        for config in certificate.configs:
            lines.extend(f"    {problem}" for problem in config.problems())
    certified = sum(1 for c in certificates if c.ok)
    lines.append(f"{certified}/{len(certificates)} workload(s) certified")
    return "\n".join(lines)
