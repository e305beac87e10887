"""Interference rules (``I``): findings from the static conflict graph.

These rules consume the trace-free temporal interference analysis of
:mod:`repro.analysis.interference` — the loop-nesting forest of the
call-threading ICFG plus the line placement of a concrete layout.  Every
finding points at *avoidable* conflict structure: pathologies a different
placement (or WPA threshold) could have removed, never conditions forced
by the program being larger than the cache.  That distinction is what
keeps the layer quiet on healthy layouts: a 160KB binary necessarily
overflows every set of a 32KB cache and necessarily crosses the WPA
boundary somewhere, and neither deserves a diagnostic.

They self-gate on the inputs the analysis needs (program + layout +
geometry), so program-only lints skip them silently.  The interference
machinery is imported lazily inside the helpers, mirroring
:mod:`repro.analysis.rules.absint_rules` (the analysis pulls in the
verifier's dataflow module, which may not be importable yet when
``repro.analysis.engine`` first loads this package).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import Location, Severity
from repro.analysis.registry import Finding, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.interference.graph import InterferenceGraph, LoopNest

__all__ = []  # rules register themselves; nothing to import by name

#: A set must carry more than this fraction of the whole program's
#: predicted conflict weight to count as a hotspot (I004).
_HOTSPOT_FRACTION = 0.5

#: A loop's same-set line count must exceed both the associativity and
#: this multiple of its even-spread density to count as clustered (I001):
#: overflow explained by sheer footprint is not a layout defect.
_CLUSTER_SLACK = 2


def _interference_location(context: AnalysisContext, detail: str = "") -> Location:
    name = context.layout.program_name if context.layout else context.subject
    return Location("interference", name, detail)


def _graph(context: AnalysisContext) -> Optional["InterferenceGraph"]:
    """The layout's interference graph for this context's WPA, cached."""
    from repro.analysis.interference.graph import graph_for

    return graph_for(context)


def _loop_lines(
    context: AnalysisContext,
) -> Optional[List[Tuple[int, Set[int], Dict[int, Set[int]]]]]:
    """Per loop component: (level, distinct lines, set -> lines), cached."""
    if "interference_loop_lines" in context._cache:
        cached: Optional[List[Tuple[int, Set[int], Dict[int, Set[int]]]]] = (
            context._cache["interference_loop_lines"]
        )
        return cached
    result: Optional[List[Tuple[int, Set[int], Dict[int, Set[int]]]]] = None
    nest = _nest(context)
    if nest is not None and context.layout is not None:
        from repro.analysis.absint.analysis import block_lines

        assert context.geometry is not None
        geometry = context.geometry
        result = []
        for component in nest.components:
            lines: Set[int] = set()
            by_set: Dict[int, Set[int]] = {}
            for uid in component.members:
                for line in block_lines(uid, context.layout, geometry):
                    lines.add(line)
                    by_set.setdefault(geometry.set_index(line), set()).add(line)
            result.append((component.level, lines, by_set))
    context._cache["interference_loop_lines"] = result
    return result


def _nest(context: AnalysisContext) -> Optional["LoopNest"]:
    if "interference_nest" in context._cache:
        cached: Optional["LoopNest"] = context._cache["interference_nest"]
        return cached
    result: Optional["LoopNest"] = None
    if (
        context.program is not None
        and context.layout is not None
        and context.geometry is not None
        and context.geometry.is_sound()
    ):
        from repro.analysis.interference.graph import loop_nest_for

        result = loop_nest_for(context.program)
    context._cache["interference_nest"] = result
    return result


@rule(
    "I001",
    "clustered-loop-set-overflow",
    "interference",
    Severity.WARNING,
    "A loop whose whole footprint fits in the cache still maps more lines "
    "to one set than the associativity — and at least twice as many as an "
    "even spread of that footprint would: the placement clusters the loop "
    "at a set-aligned stride, guaranteeing self-conflict.",
)
def check_clustered_loop_set_overflow(
    context: AnalysisContext,
) -> Iterator[Finding]:
    loops = _loop_lines(context)
    if loops is None:
        return
    assert context.geometry is not None
    geometry = context.geometry
    cache_lines = geometry.size_bytes // geometry.line_size
    num_sets = max(1, cache_lines // geometry.ways)
    for level, lines, by_set in loops:
        if not lines or len(lines) > cache_lines:
            continue
        spread = -(-len(lines) // num_sets)  # ceil division
        threshold = max(geometry.ways, _CLUSTER_SLACK * spread)
        worst = max(by_set.items(), key=lambda item: (len(item[1]), -item[0]))
        if len(worst[1]) > threshold:
            yield Finding(
                _interference_location(context, f"set {worst[0]}"),
                f"a depth-{level} loop of {len(lines)} line(s) (fits the "
                f"{cache_lines}-line cache) puts {len(worst[1])} lines into "
                f"set {worst[0]} ({geometry.ways} ways); an even spread "
                f"would need only {spread}",
                "the loop's blocks are placed at a set-aligned stride; "
                "re-chain the layout to spread the loop across sets",
            )


@rule(
    "I002",
    "wpa-split-loop",
    "interference",
    Severity.WARNING,
    "The program fits in the cache, yet a loop straddles the WPA boundary "
    "with same-set lines on both sides: the unpinned half's round-robin "
    "fills contend with the pinned half every iteration, and a larger WPA "
    "would have covered the whole loop.",
)
def check_wpa_split_loop(context: AnalysisContext) -> Iterator[Finding]:
    loops = _loop_lines(context)
    wpa_size = context.wpa_size or 0
    if loops is None or wpa_size <= 0 or context.layout is None:
        return
    assert context.geometry is not None
    geometry = context.geometry
    if context.layout.end_address > geometry.size_bytes:
        return  # splitting is unavoidable for cache-exceeding binaries
    for level, lines, by_set in loops:
        for set_index in sorted(by_set):
            set_lines = by_set[set_index]
            pinned = sorted(line for line in set_lines if line < wpa_size)
            free = sorted(line for line in set_lines if line >= wpa_size)
            if pinned and free:
                yield Finding(
                    _interference_location(context, f"set {set_index}"),
                    f"a depth-{level} loop splits across the WPA boundary "
                    f"{wpa_size:#x} in set {set_index}: line(s) "
                    f"{', '.join(f'{a:#x}' for a in pinned)} are pinned, "
                    f"{', '.join(f'{a:#x}' for a in free)} are not",
                    "the whole binary fits in the cache; extend the WPA over "
                    "the loop (or move the loop below the boundary)",
                )
                break


@rule(
    "I003",
    "wpa-mandated-collision",
    "interference",
    Severity.ERROR,
    "Two placed WPA lines share both a cache set and a mandated way, so "
    "every fill of one silently evicts the other — the one-home-per-line "
    "contract of way-placement is broken before a single cycle runs.",
)
def check_wpa_mandated_collision(context: AnalysisContext) -> Iterator[Finding]:
    graph = _graph(context)
    wpa_size = context.wpa_size or 0
    if graph is None or wpa_size <= 0:
        return
    geometry = graph.geometry
    for entry in graph.sets:
        homes: Dict[int, List[int]] = {}
        for line in entry.wpa_lines:
            homes.setdefault(geometry.mandated_way(line), []).append(line)
        for way, lines in sorted(homes.items()):
            if len(lines) > 1:
                rendered = ", ".join(f"{a:#x}" for a in sorted(lines))
                yield Finding(
                    _interference_location(
                        context, f"set {entry.set_index} way {way}"
                    ),
                    f"WPA lines {rendered} all pin set {entry.set_index}, "
                    f"mandated way {way}",
                    "a WPA larger than the cache (or a non-contiguous one) "
                    "cannot give every line its own home; shrink it to at "
                    "most one cache-size of bytes",
                )


@rule(
    "I004",
    "conflict-pressure-hotspot",
    "interference",
    Severity.WARNING,
    "One cache set concentrates the majority of the whole program's "
    "predicted conflict weight: the hot loops collide in a single set "
    "while the rest of the cache idles.",
)
def check_conflict_pressure_hotspot(context: AnalysisContext) -> Iterator[Finding]:
    graph = _graph(context)
    if graph is None or graph.total_weight <= 0:
        return
    worst = max(graph.sets, key=lambda entry: (entry.pressure, -entry.set_index))
    if worst.pressure > _HOTSPOT_FRACTION * graph.total_weight:
        yield Finding(
            _interference_location(context, f"set {worst.set_index}"),
            f"set {worst.set_index} carries {worst.pressure} of the "
            f"program's {graph.total_weight} predicted conflict weight "
            f"({len(worst.lines)} resident line(s))",
            "the interference is concentrated, not diffuse — re-placing a "
            "handful of lines removes most of the predicted conflicts "
            "(see the certificate's top pairs)",
        )


@rule(
    "I005",
    "unplaced-loop-block",
    "interference",
    Severity.WARNING,
    "A basic block inside a loop has no placement in the layout, so the "
    "interference graph (and every certificate derived from it) is blind "
    "to the lines that block will actually occupy.",
)
def check_unplaced_loop_block(context: AnalysisContext) -> Iterator[Finding]:
    nest = _nest(context)
    if nest is None or context.layout is None:
        return
    layout = context.layout
    for uid in sorted(nest.paths):
        if layout.addresses.get(uid) is None or layout.sizes.get(uid, 0) <= 0:
            depth = len(nest.paths[uid])
            yield Finding(
                _interference_location(context, f"uid {uid}"),
                f"block uid {uid} sits at loop depth {depth} but has no "
                f"placed address/size in the layout",
                "certificates for this layout undercount interference; "
                "place the block or drop it from the program view",
            )


@rule(
    "I006",
    "hot-line-outside-wpa",
    "interference",
    Severity.WARNING,
    "The whole binary fits in the cache, yet a line executed inside a "
    "loop lies above the WPA threshold: it pays full CAM searches every "
    "iteration when a slightly larger WPA would pin it for free.",
)
def check_hot_line_outside_wpa(context: AnalysisContext) -> Iterator[Finding]:
    graph = _graph(context)
    wpa_size = context.wpa_size or 0
    if graph is None or wpa_size <= 0 or context.layout is None:
        return
    geometry = graph.geometry
    if context.layout.end_address > geometry.size_bytes:
        return  # some code must live outside the WPA; nothing avoidable
    from repro.analysis.interference.graph import BASE

    hot = [
        (weight, line)
        for line, weight in graph.line_weight.items()
        if line >= wpa_size and weight >= BASE
    ]
    if hot:
        weight, line = max(hot)
        yield Finding(
            _interference_location(context, f"line {line:#x}"),
            f"{len(hot)} looped line(s) lie above the WPA threshold "
            f"{wpa_size:#x} although the binary fits the cache; hottest is "
            f"{line:#x} (static weight {weight})",
            "raise the WPA to the binary's aligned end so every looped "
            "line gets a pinned way and single-way probes",
        )
