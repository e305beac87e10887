"""Layout/WPA-layer rules (``L``): the invariants the paper's link-time
pass must preserve when it rewrites the binary.

Chain-granularity checks (L003, L006, L007) reason at the same level as
the placement pass itself — fall-through chains are its atomic reordering
unit — so a correct heaviest-chain-first layout is clean by construction,
while a layout that displaces hot chains with cold ones is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import Location, Severity
from repro.analysis.registry import Finding, rule
from repro.errors import LayoutError, ProgramError
from repro.isa.instructions import INSTRUCTION_SIZE
from repro.layout.chains import build_chains

__all__ = []  # rules register themselves; nothing to import by name


def _layout_location(context: AnalysisContext, detail: str = "") -> Location:
    name = context.layout.program_name if context.layout else context.subject
    return Location("layout", name, detail)


@dataclass(frozen=True)
class _PlacedChain:
    """One fall-through chain as placed by the layout under analysis."""

    head_uid: int
    address: int
    weight: int
    size_bytes: int


def _placed_chains(context: AnalysisContext) -> Optional[List[_PlacedChain]]:
    """Chains of ``context.program`` placed by ``context.layout``, in
    address order — or ``None`` when the context cannot support them
    (missing pieces, or structural errors other rules already report)."""
    if "placed_chains" in context._cache:
        cached: Optional[List[_PlacedChain]] = context._cache["placed_chains"]
        return cached
    result: Optional[List[_PlacedChain]] = None
    view, layout, counts = context.program, context.layout, context.block_counts
    if view is not None and layout is not None and counts is not None:
        try:
            chains = build_chains(view)
        except (LayoutError, ProgramError):
            chains = None
        if chains is not None:
            placed: List[_PlacedChain] = []
            complete = True
            for chain in chains:
                if any(uid not in layout.addresses for uid in chain.uids):
                    complete = False
                    break
                weight = sum(
                    counts.get(uid, 0) * view.block_by_uid(uid).num_instructions
                    for uid in chain.uids
                )
                placed.append(
                    _PlacedChain(
                        chain.head,
                        layout.addresses[chain.head],
                        weight,
                        sum(layout.sizes.get(uid, 0) for uid in chain.uids),
                    )
                )
            if complete:
                placed.sort(key=lambda item: item.address)
                result = placed
    context._cache["placed_chains"] = result
    return result


@rule(
    "L001",
    "overlapping-blocks",
    "layout",
    Severity.ERROR,
    "Two placed blocks occupy overlapping address ranges.",
)
def check_overlapping_blocks(context: AnalysisContext) -> Iterator[Finding]:
    layout = context.layout
    if layout is None:
        return
    spans = sorted(
        (layout.addresses[uid], layout.addresses[uid] + layout.sizes.get(uid, 0), uid)
        for uid in layout.addresses
    )
    for (s0, e0, u0), (s1, _e1, u1) in zip(spans, spans[1:]):
        if s1 < e0:
            yield Finding(
                _layout_location(context, f"uid {u1}"),
                f"blocks uid {u0} [{s0:#x},{e0:#x}) and uid {u1} overlap "
                f"(uid {u1} starts at {s1:#x})",
                "re-link the layout; block spans must be disjoint",
            )


@rule(
    "L002",
    "misaligned-block",
    "layout",
    Severity.ERROR,
    "A block is placed at a negative or instruction-misaligned address, "
    "or has a non-positive size.",
)
def check_misaligned_block(context: AnalysisContext) -> Iterator[Finding]:
    layout = context.layout
    if layout is None:
        return
    for uid in sorted(layout.addresses):
        address = layout.addresses[uid]
        if address < 0 or address % INSTRUCTION_SIZE:
            yield Finding(
                _layout_location(context, f"uid {uid}"),
                f"block uid {uid} at unaligned or negative address {address:#x}",
                f"addresses must be non-negative multiples of {INSTRUCTION_SIZE}",
            )
        size = layout.sizes.get(uid, 0)
        if size <= 0:
            yield Finding(
                _layout_location(context, f"uid {uid}"),
                f"block uid {uid} has non-positive size {size}",
                "every placed block must cover at least one instruction",
            )


@rule(
    "L003",
    "chain-order-violation",
    "layout",
    Severity.WARNING,
    "Chains are not ordered heaviest-first: a lighter chain precedes a "
    "strictly heavier one.",
)
def check_chain_order(context: AnalysisContext) -> Iterator[Finding]:
    placed = _placed_chains(context)
    if not placed:
        return
    inversions = [
        (earlier, later)
        for earlier, later in zip(placed, placed[1:])
        if earlier.weight < later.weight
    ]
    if inversions:
        earlier, later = inversions[0]
        yield Finding(
            _layout_location(context, f"chain at {earlier.address:#x}"),
            f"chain weight ordering violated at {len(inversions)} adjacent "
            f"position(s); e.g. chain at {earlier.address:#x} (weight "
            f"{earlier.weight}) precedes chain at {later.address:#x} "
            f"(weight {later.weight})",
            "re-run the way-placement pass (heaviest chain first)",
        )


@rule(
    "L004",
    "wpa-not-page-multiple",
    "layout",
    Severity.ERROR,
    "The way-placement area size is not a positive multiple of the page size.",
)
def check_wpa_page_multiple(context: AnalysisContext) -> Iterator[Finding]:
    wpa, page = context.wpa_size, context.page_size
    if wpa is None or not wpa or page is None or page <= 0:
        return
    if wpa < 0 or wpa % page:
        yield Finding(
            Location("layout", context.subject, "wpa-size"),
            f"WPA size {wpa} is not a positive multiple of the "
            f"{page}-byte page (the I-TLB marks the area per page)",
            f"round the WPA up to {((max(wpa, 0) + page - 1) // page) * page} bytes",
        )


@rule(
    "L006",
    "cold-in-wpa",
    "layout",
    Severity.WARNING,
    "A never-executed chain occupies the WPA while executed code sits outside.",
)
def check_cold_in_wpa(context: AnalysisContext) -> Iterator[Finding]:
    placed = _placed_chains(context)
    wpa = context.wpa_size
    if not placed or not wpa:
        return
    cold_inside = [c for c in placed if c.address < wpa and c.weight == 0]
    hot_outside = [c for c in placed if c.address >= wpa and c.weight > 0]
    if cold_inside and hot_outside:
        example = cold_inside[0]
        wasted = sum(c.size_bytes for c in cold_inside)
        yield Finding(
            _layout_location(context, f"chain at {example.address:#x}"),
            f"{wasted} byte(s) of never-executed code occupy the WPA "
            f"(e.g. chain at {example.address:#x}) while "
            f"{len(hot_outside)} executed chain(s) sit outside it",
            "re-run the way-placement pass so profiled code fills the WPA",
        )


@rule(
    "L007",
    "hot-outside-wpa",
    "layout",
    Severity.WARNING,
    "An executed chain is placed outside the WPA while a strictly lighter "
    "chain occupies it.",
)
def check_hot_outside_wpa(context: AnalysisContext) -> Iterator[Finding]:
    placed = _placed_chains(context)
    wpa = context.wpa_size
    if not placed or not wpa:
        return
    inside = [c for c in placed if c.address < wpa]
    outside = [c for c in placed if c.address >= wpa]
    if not inside or not outside:
        return
    lightest_inside = min(inside, key=lambda c: c.weight)
    displaced = [c for c in outside if c.weight > lightest_inside.weight]
    if displaced:
        heaviest = max(displaced, key=lambda c: c.weight)
        yield Finding(
            _layout_location(context, f"chain at {heaviest.address:#x}"),
            f"{len(displaced)} executed chain(s) lie outside the WPA although "
            f"lighter code occupies it; the heaviest (weight "
            f"{heaviest.weight}, at {heaviest.address:#x}) outweighs the "
            f"lightest chain inside (weight {lightest_inside.weight})",
            "grow the WPA or re-run the way-placement pass",
        )
