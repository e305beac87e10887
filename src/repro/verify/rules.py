"""The ``V`` rule pack: whole-program verification diagnostics.

Where the ``P``/``L``/``C`` lint rules check shallow per-object
properties, these rules prove the global invariants the paper's results
rest on: profile flow conservation through the CFG, dominator-consistent
execution, fall-through contiguity of the placed layout, and the
symbolic way-placement proof.  They register into the standard
:data:`~repro.analysis.registry.DEFAULT_REGISTRY`, so selectors, JSON
output, and exit codes all apply unchanged — ``repro verify --select V``
runs just the verifier's rules.

Every rule self-gates on the context fields it needs (program + block
counts + edge counts for the dataflow rules, geometry + WPA for the
proof rules), so contexts without those fields skip them silently.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import Location, Severity
from repro.analysis.registry import Finding, rule
from repro.verify.dataflow import (
    FlowGraph,
    broken_fallthroughs,
    build_flow_graph,
    dominators_of,
    flow_imbalances,
    illegal_edges,
    immediate_dominators,
)
from repro.verify.wpa_proof import WpaProof, prove_wpa_placement

__all__: list = []  # rules register themselves via the decorator


def _program_name(context: AnalysisContext) -> str:
    return context.program.name if context.program is not None else context.subject


def _flow_graph(context: AnalysisContext) -> Optional[FlowGraph]:
    if "verify_flow_graph" not in context._cache:
        graph = build_flow_graph(context.program) if context.program else None
        context._cache["verify_flow_graph"] = graph
    cached: Optional[FlowGraph] = context._cache["verify_flow_graph"]
    return cached


def _wpa_proof(context: AnalysisContext) -> WpaProof:
    if "verify_wpa_proof" not in context._cache:
        assert context.geometry is not None and context.wpa_size is not None
        context._cache["verify_wpa_proof"] = prove_wpa_placement(
            context.geometry, context.wpa_size, context.page_size
        )
    proof: WpaProof = context._cache["verify_wpa_proof"]
    return proof


@rule(
    "V001",
    "flow-not-conserved",
    "verify",
    Severity.ERROR,
    "A block's profiled execution count does not equal the sum of its "
    "profiled incoming edge counts (Kirchhoff flow conservation).",
)
def check_flow_conservation(context: AnalysisContext) -> Iterator[Finding]:
    view, counts, edges = context.program, context.block_counts, context.edge_counts
    if view is None or counts is None or edges is None:
        return
    violations = flow_imbalances(view, counts, edges)
    if violations:
        worst = max(violations, key=lambda v: abs(v.imbalance))
        start = " (+1 trace start)" if worst.expected_extra else ""
        yield Finding(
            Location("program", _program_name(context), f"uid {worst.uid}"),
            f"profile flow is not conserved at {len(violations)} block(s); "
            f"e.g. block uid {worst.uid} executed {worst.count} time(s) but its "
            f"incoming edges carry {worst.inflow}{start}",
            "block and edge counts must come from one trace; re-profile the program",
        )


@rule(
    "V002",
    "phantom-profile-edge",
    "verify",
    Severity.ERROR,
    "A profiled edge connects blocks the static ICFG does not connect.",
)
def check_phantom_edges(context: AnalysisContext) -> Iterator[Finding]:
    view, edges = context.program, context.edge_counts
    if view is None or edges is None:
        return
    violations = illegal_edges(view, edges)
    if violations:
        first = violations[0]
        yield Finding(
            Location(
                "program", _program_name(context), f"edge {first.src}->{first.dst}"
            ),
            f"{len(violations)} profiled edge(s) have no static counterpart; "
            f"e.g. uid {first.src} -> uid {first.dst} (traversed "
            f"{first.count} time(s)) {first.reason}",
            "the profile was not produced by this program; re-profile",
        )


@rule(
    "V003",
    "executed-without-dominator",
    "verify",
    Severity.ERROR,
    "A block executed although a static dominator of it never ran (or the "
    "block is unreachable from the entry yet has a nonzero count).",
)
def check_dominated_execution(context: AnalysisContext) -> Iterator[Finding]:
    view, counts = context.program, context.block_counts
    if view is None or counts is None:
        return
    graph = _flow_graph(context)
    if graph is None:
        return
    idom = immediate_dominators(graph)
    known = {block.uid for block in view.blocks()}
    executed = [
        uid for uid in sorted(known) if counts.get(uid, 0) > 0
    ]
    unreachable = [uid for uid in executed if uid not in idom]
    broken = []
    for uid in executed:
        if uid not in idom:
            continue
        for dom in dominators_of(uid, idom):
            if counts.get(dom, 0) <= 0:
                broken.append((uid, dom))
                break
    if unreachable:
        yield Finding(
            Location("program", _program_name(context), f"uid {unreachable[0]}"),
            f"{len(unreachable)} statically unreachable block(s) have nonzero "
            f"profile counts; e.g. block uid {unreachable[0]} executed "
            f"{counts.get(unreachable[0], 0)} time(s)",
            "the profile disagrees with the CFG; re-profile the program",
        )
    if broken:
        uid, dom = broken[0]
        yield Finding(
            Location("program", _program_name(context), f"uid {uid}"),
            f"{len(broken)} block(s) executed although a dominator never ran; "
            f"e.g. block uid {uid} ran {counts.get(uid, 0)} time(s) while its "
            f"dominator uid {dom} ran 0",
            "every path to a block passes through its dominators; the profile "
            "cannot have come from this program",
        )


@rule(
    "V004",
    "fallthrough-chain-broken",
    "verify",
    Severity.ERROR,
    "A fall-through successor is not placed immediately after its source "
    "block, so the layout breaks a fall-through chain.",
)
def check_fallthrough_contiguity(context: AnalysisContext) -> Iterator[Finding]:
    view, layout = context.program, context.layout
    if view is None or layout is None:
        return
    violations = broken_fallthroughs(view, layout)
    if violations:
        first = violations[0]
        yield Finding(
            Location("layout", layout.program_name, f"uid {first.dst}"),
            f"{len(violations)} fall-through edge(s) are not contiguous; e.g. "
            f"block uid {first.dst} must start at {first.expected_address:#x} "
            f"(immediately after uid {first.src}) but is placed at "
            f"{first.actual_address:#x}",
            "fall-through chains are atomic; re-link whole chains, never "
            "individual blocks",
        )


@rule(
    "V005",
    "wpa-mapping-not-injective",
    "verify",
    Severity.ERROR,
    "The symbolic WPA proof failed: two way-placement-area lines share a "
    "mandated (set, way) home and would evict each other.",
)
def check_wpa_injectivity(context: AnalysisContext) -> Iterator[Finding]:
    geometry, wpa = context.geometry, context.wpa_size
    if geometry is None or not wpa or not geometry.is_sound():
        return
    proof = _wpa_proof(context)
    if not proof.injective:
        first, second = proof.conflicts[0]
        yield Finding(
            Location("layout", context.subject, "wpa-proof"),
            f"the WPA (set, way) mapping is not injective: {proof.num_lines} "
            f"line(s) map onto {proof.distinct_homes} home(s), "
            f"{proof.num_conflicts} conflict(s); e.g. lines {first:#x} and "
            f"{second:#x} share a home",
            f"shrink the WPA to at most one cache capacity "
            f"({geometry.size_bytes} bytes)",
        )


@rule(
    "V006",
    "wpa-bit-extraction-mismatch",
    "verify",
    Severity.ERROR,
    "Way-placement bit extraction disagrees with the arithmetic placement "
    "mapping, or the I-TLB page bit cannot represent the WPA boundary.",
)
def check_wpa_bit_extraction(context: AnalysisContext) -> Iterator[Finding]:
    geometry, wpa = context.geometry, context.wpa_size
    if geometry is None or not wpa or geometry.line_size < 1 or geometry.ways < 1:
        return
    proof = _wpa_proof(context)
    if not proof.extraction_consistent:
        addr = proof.extraction_mismatches[0]
        yield Finding(
            Location("config", context.subject, "wpa-proof"),
            f"bit-sliced (set, way) extraction disagrees with the arithmetic "
            f"way-placement mapping; e.g. at line {addr:#x}",
            "way-placement bit extraction requires a power-of-two geometry",
        )
    if not proof.itlb_representable:
        yield Finding(
            Location("config", context.subject, "wpa-size"),
            f"the WPA boundary {proof.wpa_size:#x} splits page "
            f"{proof.straddled_page}; the per-page I-TLB way-placement bit "
            f"cannot represent it",
            "align the WPA size to a multiple of the page size",
        )
