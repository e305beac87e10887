"""Abstract-interpretation rules (``A``): findings the fixpoint proves.

Unlike the structural ``P``/``L``/``C`` layers, these rules consume the
must/may cache analysis of :mod:`repro.analysis.absint` — every finding
is backed by a static proof over the interprocedural CFG (a line the
analysis shows can *never* hit, a WPA page that buys a way without one
guaranteed hit, two WPA lines structurally forced to thrash).  They
self-gate on the same inputs the analysis needs (program + layout +
geometry + a positive WPA), so program-only lints skip them silently.

The absint machinery is imported lazily inside the checks:
``repro.analysis.engine`` imports this package before ``repro.verify``
exists on some import paths, and the analysis pulls in the verifier's
dataflow module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import Location, Severity
from repro.analysis.registry import Finding, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.absint.analysis import CacheBehavior

__all__ = []  # rules register themselves; nothing to import by name

#: Below this many reachable fetch sites the unknown fraction is noise,
#: not a degeneracy verdict (A003).
_MIN_SITES_FOR_DEGENERACY = 8
#: Unknown fraction beyond which the analysis result carries no
#: information worth certifying (A003).
_DEGENERATE_UNKNOWN_FRACTION = 0.5


def _absint_location(context: AnalysisContext, detail: str = "") -> Location:
    name = context.layout.program_name if context.layout else context.subject
    return Location("absint", name, detail)


def _behavior(context: AnalysisContext) -> Optional["CacheBehavior"]:
    """The way-placement fixpoint for this context's WPA, cached."""
    from repro.analysis.absint.analysis import behavior_for

    return behavior_for(context)


@rule(
    "A001",
    "wpa-line-never-hits",
    "absint",
    Severity.WARNING,
    "A WPA line on an ICFG cycle is statically proven to miss on every "
    "fetch: its mandated way is always re-filled by a conflicting line "
    "before control returns.",
)
def check_wpa_line_never_hits(context: AnalysisContext) -> Iterator[Finding]:
    behavior = _behavior(context)
    if behavior is None or not behavior.converged:
        return
    for addr in sorted(behavior.never_hit):
        index = behavior.universe.index[addr]
        summary = behavior.line_summaries[addr]
        if behavior.universe.is_wpa[index] and summary.in_cycle:
            yield Finding(
                _absint_location(context, f"line {addr:#x}"),
                f"WPA line {addr:#x} executes on a cycle but can never hit "
                f"({summary.sites} fetch site(s), all guaranteed misses)",
                "another line with the same set and mandated way evicts it "
                "every iteration; revisit the placement or shrink the WPA",
            )


@rule(
    "A002",
    "wpa-page-no-guaranteed-hits",
    "absint",
    Severity.WARNING,
    "Every fetch site of a WPA page is conclusively classified, the page "
    "is executed on a cycle, yet not one site is a guaranteed hit — the "
    "page pays WPA bookkeeping for nothing.",
)
def check_wpa_page_no_guaranteed_hits(context: AnalysisContext) -> Iterator[Finding]:
    behavior = _behavior(context)
    page_size = context.page_size
    if behavior is None or not behavior.converged or not page_size:
        return
    pages: Dict[int, List[int]] = {}
    for addr, summary in behavior.line_summaries.items():
        index = behavior.universe.index[addr]
        if behavior.universe.is_wpa[index] and summary.sites > 0:
            pages.setdefault(addr // page_size, []).append(addr)
    for page in sorted(pages):
        summaries = [behavior.line_summaries[addr] for addr in pages[page]]
        if (
            all(s.conclusive for s in summaries)
            and not any(s.guaranteed_hits for s in summaries)
            and any(s.in_cycle for s in summaries)
        ):
            start = page * page_size
            yield Finding(
                _absint_location(context, f"page {start:#x}"),
                f"WPA page [{start:#x}, {start + page_size:#x}) has "
                f"{sum(s.sites for s in summaries)} conclusively classified "
                f"fetch site(s) and zero guaranteed hits",
                "the page reserves mandated ways without ever provably "
                "using them; consider excluding it from the WPA",
            )


@rule(
    "A003",
    "bounds-degenerate",
    "absint",
    Severity.WARNING,
    "The fixpoint classified more than half of all reachable fetch sites "
    "as unknown and guaranteed no hit anywhere: the static bounds carry "
    "no more information than the trace footprint alone.",
)
def check_bounds_degenerate(context: AnalysisContext) -> Iterator[Finding]:
    behavior = _behavior(context)
    if behavior is None:
        return
    if behavior.reachable_sites < _MIN_SITES_FOR_DEGENERACY:
        return
    if (
        behavior.unknown_fraction > _DEGENERATE_UNKNOWN_FRACTION
        and behavior.guaranteed_hit_sites == 0
    ):
        yield Finding(
            _absint_location(context, "fixpoint"),
            f"{behavior.unknown_sites} of {behavior.reachable_sites} "
            f"reachable fetch sites are unknown and none is a guaranteed "
            f"hit (converged={behavior.converged}, rounds={behavior.rounds})",
            "the classification adds nothing over the footprint bounds; "
            "check the layout for pathological conflict structure",
        )


@rule(
    "A004",
    "unreachable-wpa-line",
    "absint",
    Severity.INFO,
    "A line inside the WPA is only ever occupied by blocks the ICFG "
    "cannot reach from the entry.",
)
def check_unreachable_wpa_line(context: AnalysisContext) -> Iterator[Finding]:
    behavior = _behavior(context)
    if behavior is None:
        return
    for addr in sorted(behavior.unreachable_lines):
        index = behavior.universe.index[addr]
        if behavior.universe.is_wpa[index]:
            yield Finding(
                _absint_location(context, f"line {addr:#x}"),
                f"WPA line {addr:#x} is placed but only inside blocks "
                f"unreachable from the program entry",
                "dead code inside the WPA inflates the threshold; place "
                "unreachable blocks after the WPA boundary",
            )


@rule(
    "A005",
    "wpa-page-unused",
    "absint",
    Severity.INFO,
    "A full page below the WPA threshold contains no placed code at all.",
)
def check_wpa_page_unused(context: AnalysisContext) -> Iterator[Finding]:
    behavior = _behavior(context)
    page_size = context.page_size
    wpa_size = context.wpa_size or 0
    if behavior is None or not page_size or wpa_size <= 0:
        return
    used = {
        addr // page_size
        for index, addr in enumerate(behavior.universe.lines)
        if behavior.universe.is_wpa[index]
    }
    for page in range(wpa_size // page_size):
        if page not in used:
            start = page * page_size
            yield Finding(
                _absint_location(context, f"page {start:#x}"),
                f"page [{start:#x}, {start + page_size:#x}) lies below the "
                f"WPA threshold but holds no placed code",
                "an empty WPA page wastes I-TLB protection bits; tighten "
                "the threshold to the placed footprint",
            )


@rule(
    "A006",
    "wpa-proven-thrash",
    "absint",
    Severity.WARNING,
    "Two executed WPA lines share a cache set and a mandated way, and the "
    "fixpoint proves at least one of them never hits: they structurally "
    "thrash the single way both are pinned to.",
)
def check_wpa_proven_thrash(context: AnalysisContext) -> Iterator[Finding]:
    behavior = _behavior(context)
    if behavior is None or not behavior.converged:
        return
    universe = behavior.universe
    slots: Dict[Tuple[int, int], List[int]] = {}
    for addr, summary in behavior.line_summaries.items():
        index = universe.index[addr]
        if universe.is_wpa[index] and summary.sites > 0:
            slots.setdefault(
                (universe.set_of[index], universe.home[index]), []
            ).append(addr)
    for (set_index, home), addrs in sorted(slots.items()):
        if len(addrs) < 2 or not any(a in behavior.never_hit for a in addrs):
            continue
        rendered = ", ".join(f"{a:#x}" for a in sorted(addrs))
        yield Finding(
            _absint_location(context, f"set {set_index} way {home}"),
            f"WPA lines {rendered} all map to set {set_index}, mandated "
            f"way {home}; the analysis proves the contention is lossy",
            "mandated-way collisions inside the WPA defeat the placement; "
            "re-chain the layout so hot lines get distinct ways",
        )
