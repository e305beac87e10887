"""Trace-free temporal interference analysis over the ICFG.

The paper's way-placement results hinge on the layout the compiler hands
the cache: two lines that share a set fight for its ways exactly when the
program revisits both while the other is still live.  This module predicts
that fight *statically* — no trace required — from three ingredients:

* the call-threading ICFG (:func:`repro.analysis.absint.analysis.absint_flow_graph`),
* a loop-nesting forest obtained by iteratively peeling strongly connected
  components (an SCC at peel level ``k`` models a loop of nesting depth
  ``k``; its headers are removed and the interior re-decomposed), and
* the block placements of a concrete layout (line addresses via
  :func:`repro.analysis.absint.analysis.block_lines`).

Two lines *interfere* when they map to the same cache set and co-reside in
a loop component — including loops threaded through call edges, so a
callee's lines interfere with its in-loop caller's lines.  The edge weight
sums ``BASE ** level × min(sites_a, sites_b)`` over every loop component
the pair shares (deeper nests dominate geometrically, mirroring the static
frequency estimate ``BASE ** depth`` used for block weights).  Weights are
keyed by line address and component *membership*, never by block uid, so
the graph is invariant under basic-block renumbering.

Way-placement awareness: when a ``wpa_size`` is given, pairs of WPA lines
with *distinct* mandated ways cannot evict each other (each fills only its
own mandated way) and contribute no interference.

Certification (:func:`certify_conflict_free`) is independent of the
frequency model and *sound* for the reference caches: a set is certified
conflict-free only if every possible access order leaves each fill in a
fresh way, so every miss is cold.  The S009 sanitizer invariant and the
23-workload validation suite hold these certificates against reference
replay (:mod:`repro.analysis.interference.replay`).

Per-set *pressure* (the sum of incident edge weights) is computed in
closed form — ``sum(min(s_i, s_j))`` over pairs equals
``sum_k asc[k] * (n - 1 - k)`` on the ascending site counts — so sets far
larger than the associativity cost ``O(n log n)``, not ``O(n^2)``.
Individual pair weights are only enumerated for groups of at most
``PAIR_ENUMERATION_CAP`` same-set lines; larger groups still contribute
exact pressure but are skipped for top-pair reporting, and the graph
records that in :attr:`InterferenceGraph.pair_enumeration_truncated`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.absint.analysis import absint_flow_graph, block_lines
from repro.analysis.context import AnalysisContext, GeometrySpec, LayoutView, ProgramView
from repro.verify.dataflow import FlowGraph, reverse_postorder

__all__ = [
    "BASE",
    "MAX_LOOP_DEPTH",
    "PAIR_ENUMERATION_CAP",
    "InterferenceEdge",
    "InterferenceGraph",
    "LoopComponent",
    "LoopNest",
    "SetPressure",
    "build_interference_graph",
    "build_loop_nest",
    "certify_conflict_free",
    "graph_for",
    "loop_nest_for",
    "predicted_conflict_weight",
]

#: Static frequency base: a block at loop depth ``d`` is assumed to run
#: ``BASE ** d`` times as often as straight-line code.
BASE = 10

#: Peeling stops here; deeper nests saturate at this depth.
MAX_LOOP_DEPTH = 8

#: Same-set line groups larger than this skip per-pair enumeration
#: (pressure stays exact via the closed form; only top-pair reporting
#: loses those — individually tiny — pairs).
PAIR_ENUMERATION_CAP = 128


@dataclass(frozen=True)
class LoopComponent:
    """One peeled SCC: a loop at nesting ``level`` (outermost = 1)."""

    level: int
    members: FrozenSet[int]


@dataclass(frozen=True)
class LoopNest:
    """Loop-nesting forest from iterated SCC peeling of the ICFG."""

    components: Tuple[LoopComponent, ...]
    #: uid -> component indices containing it, outermost first.
    paths: Mapping[int, Tuple[int, ...]]

    def depth(self, uid: int) -> int:
        """Loop depth of a block (0 = not in any cycle)."""
        return len(self.paths.get(uid, ()))

    def shared_depth(self, uid_a: int, uid_b: int) -> int:
        """Depth of the innermost loop containing both blocks (0 if none)."""
        path_a = self.paths.get(uid_a, ())
        path_b = self.paths.get(uid_b, ())
        shared = 0
        for index_a, index_b in zip(path_a, path_b):
            if index_a != index_b:
                break
            shared += 1
        return shared


@dataclass(frozen=True)
class InterferenceEdge:
    """A same-set line pair with its accumulated interference weight."""

    line_a: int
    line_b: int
    set_index: int
    depth: int
    weight: int


@dataclass(frozen=True)
class SetPressure:
    """Per-set summary: resident lines, conflict pressure, certification."""

    set_index: int
    lines: Tuple[int, ...]
    wpa_lines: Tuple[int, ...]
    pressure: int
    conflict_free: bool


@dataclass(frozen=True)
class InterferenceGraph:
    """Weighted conflict graph over the cache lines of one layout."""

    geometry: GeometrySpec
    wpa_size: int
    sets: Tuple[SetPressure, ...]
    top_pairs: Tuple[InterferenceEdge, ...]
    line_weight: Mapping[int, int]
    total_weight: int
    interfering_pairs: int
    loop_count: int
    pair_enumeration_truncated: bool

    def conflict_free_sets(self) -> Tuple[int, ...]:
        """Set indices certified conflict-free, ascending."""
        return tuple(s.set_index for s in self.sets if s.conflict_free)

    def pressure_of(self, set_index: int) -> int:
        for entry in self.sets:
            if entry.set_index == set_index:
                return entry.pressure
        return 0


def _nontrivial_sccs(
    nodes: Sequence[int],
    successors: Mapping[int, Tuple[int, ...]],
    blocked: FrozenSet[Tuple[int, int]],
) -> List[List[int]]:
    """Non-trivial SCCs (size > 1, or a self-loop) of the filtered subgraph.

    Iterative Tarjan over ``nodes`` with ``blocked`` edges removed.  Each
    component is returned sorted ascending and the list is ordered by its
    smallest member, so the decomposition is deterministic and independent
    of traversal order.
    """
    in_scope = set(nodes)
    index_of: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    counter = 0
    found: List[List[int]] = []

    def edges(node: int) -> List[int]:
        return [
            succ
            for succ in successors.get(node, ())
            if succ in in_scope and (node, succ) not in blocked
        ]

    for root in sorted(in_scope):
        if root in index_of:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            children = edges(node)
            advanced = False
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in index_of:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index_of[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in edges(node):
                    found.append(sorted(component))
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    found.sort(key=lambda comp: comp[0])
    return found


def _headers(component: Sequence[int], graph: FlowGraph) -> List[int]:
    """Loop headers: members entered from outside the component.

    Purely structural (full-graph predecessors plus the ICFG entry), so
    the choice is invariant under uid renumbering.  Pathological
    components with no external entry fall back to the smallest member.
    """
    members = set(component)
    heads = [
        uid
        for uid in component
        if uid == graph.entry
        or any(pred not in members for pred in graph.predecessors.get(uid, ()))
    ]
    return heads if heads else [min(component)]


def build_loop_nest(graph: FlowGraph, max_depth: int = MAX_LOOP_DEPTH) -> LoopNest:
    """Peel SCCs iteratively into a loop-nesting forest.

    Level 1 holds the non-trivial SCCs of the reachable ICFG; each is
    re-decomposed with its header back-edges removed to expose level 2,
    and so on up to ``max_depth``.
    """
    reachable = reverse_postorder(graph)
    components: List[LoopComponent] = []
    paths: Dict[int, Tuple[int, ...]] = {}
    empty: FrozenSet[Tuple[int, int]] = frozenset()
    work: List[Tuple[int, List[int], FrozenSet[Tuple[int, int]], Tuple[int, ...]]] = [
        (1, list(reachable), empty, ())
    ]
    while work:
        level, nodes, blocked, prefix = work.pop()
        for comp in _nontrivial_sccs(nodes, graph.successors, blocked):
            index = len(components)
            members = frozenset(comp)
            components.append(LoopComponent(level, members))
            path = prefix + (index,)
            for uid in comp:
                paths[uid] = path
            if level < max_depth:
                heads = _headers(comp, graph)
                back_edges = {
                    (pred, head)
                    for head in heads
                    for pred in graph.predecessors.get(head, ())
                    if pred in members
                }
                work.append((level + 1, comp, blocked | back_edges, path))
    return LoopNest(tuple(components), paths)


def certify_conflict_free(
    lines: Sequence[int], geometry: GeometrySpec, wpa_size: int
) -> bool:
    """Sound conflict-freedom certificate for one set's resident lines.

    Under the reference caches (round-robin victim pointer that advances
    only on non-explicit fills; WPA fills pinned to their mandated way),
    the set is conflict-free for *every* access order iff:

    * the non-WPA lines number at most the associativity (their first
      touches fill ways ``0 .. len(other) - 1`` in order), and
    * the WPA lines have pairwise-distinct mandated ways, all at or above
      ``len(other)`` — so pinned fills can never land on a way the
      round-robin pointer will reach.

    The condition is monotone under taking subsets of ``lines``, so a
    layout-level certificate covers any trace over that layout.
    """
    wpa_lines = [line for line in lines if line < wpa_size]
    other = [line for line in lines if line >= wpa_size]
    if len(other) > geometry.ways:
        return False
    mandated = [geometry.mandated_way(line) for line in wpa_lines]
    if len(set(mandated)) != len(mandated):
        return False
    return all(way >= len(other) for way in mandated)


def _min_pair_sum(site_counts: Sequence[int]) -> int:
    """``sum(min(s_i, s_j))`` over unordered pairs, in ``O(n log n)``."""
    ordered = sorted(site_counts)
    n = len(ordered)
    return sum(count * (n - 1 - position) for position, count in enumerate(ordered))


def _group_pressure(
    group: Mapping[int, int], geometry: GeometrySpec, wpa_size: int
) -> int:
    """Pair-weight sum for one (component, set) line group, WPA-aware.

    WPA pairs with distinct mandated ways are excluded by
    inclusion-exclusion: subtract all WPA-WPA pairs, add back the pairs
    that share a mandated way (those *do* evict each other).
    """
    total = _min_pair_sum(list(group.values()))
    if wpa_size <= 0:
        return total
    wpa_counts = [count for line, count in group.items() if line < wpa_size]
    if len(wpa_counts) >= 2:
        total -= _min_pair_sum(wpa_counts)
        by_way: Dict[int, List[int]] = {}
        for line, count in group.items():
            if line < wpa_size:
                by_way.setdefault(geometry.mandated_way(line), []).append(count)
        for shared in by_way.values():
            if len(shared) >= 2:
                total += _min_pair_sum(shared)
    return total


def build_interference_graph(
    program: ProgramView,
    layout: LayoutView,
    geometry: GeometrySpec,
    wpa_size: int = 0,
    top_k: int = 16,
) -> InterferenceGraph:
    """Construct the weighted conflict graph for one placed program."""
    graph = absint_flow_graph(program)
    line_cache: Dict[int, List[int]] = {}

    def lines_of(uid: int) -> List[int]:
        cached = line_cache.get(uid)
        if cached is None:
            cached = block_lines(uid, layout, geometry)
            line_cache[uid] = cached
        return cached

    nest = build_loop_nest(graph) if graph is not None else LoopNest((), {})
    line_weight: Dict[int, int] = {}
    if graph is not None:
        for uid in reverse_postorder(graph):
            weight = BASE ** nest.depth(uid)
            for line in lines_of(uid):
                line_weight[line] = line_weight.get(line, 0) + weight

    pressure: Dict[int, int] = {}
    pair_weight: Dict[Tuple[int, int], List[int]] = {}
    truncated = False
    for component in nest.components:
        factor = BASE**component.level
        sites: Dict[int, int] = {}
        for uid in sorted(component.members):
            for line in lines_of(uid):
                sites[line] = sites.get(line, 0) + 1
        by_set: Dict[int, Dict[int, int]] = {}
        for line, count in sites.items():
            by_set.setdefault(geometry.set_index(line), {})[line] = count
        for set_index, group in by_set.items():
            if len(group) < 2:
                continue
            group_total = _group_pressure(group, geometry, wpa_size)
            if group_total <= 0:
                continue
            pressure[set_index] = pressure.get(set_index, 0) + factor * group_total
            if len(group) > PAIR_ENUMERATION_CAP:
                truncated = True
                continue
            ordered = sorted(group)
            for position, line_a in enumerate(ordered):
                for line_b in ordered[position + 1 :]:
                    if (
                        wpa_size > 0
                        and line_a < wpa_size
                        and line_b < wpa_size
                        and geometry.mandated_way(line_a)
                        != geometry.mandated_way(line_b)
                    ):
                        continue
                    weight = factor * min(group[line_a], group[line_b])
                    entry = pair_weight.setdefault((line_a, line_b), [0, 0])
                    entry[0] += weight
                    entry[1] = max(entry[1], component.level)

    set_lines: Dict[int, Set[int]] = {}
    for uid in layout.addresses:
        for line in lines_of(uid):
            set_lines.setdefault(geometry.set_index(line), set()).add(line)

    sets = tuple(
        SetPressure(
            set_index=set_index,
            lines=tuple(sorted(lines)),
            wpa_lines=tuple(sorted(line for line in lines if line < wpa_size)),
            pressure=pressure.get(set_index, 0),
            conflict_free=certify_conflict_free(sorted(lines), geometry, wpa_size),
        )
        for set_index, lines in sorted(set_lines.items())
    )

    ranked = sorted(
        pair_weight.items(), key=lambda item: (-item[1][0], item[0][0], item[0][1])
    )
    top_pairs = tuple(
        InterferenceEdge(
            line_a=pair[0],
            line_b=pair[1],
            set_index=geometry.set_index(pair[0]),
            depth=accumulated[1],
            weight=accumulated[0],
        )
        for pair, accumulated in ranked[:top_k]
    )

    return InterferenceGraph(
        geometry=geometry,
        wpa_size=wpa_size,
        sets=sets,
        top_pairs=top_pairs,
        line_weight=line_weight,
        total_weight=sum(pressure.values()),
        interfering_pairs=len(pair_weight),
        loop_count=len(nest.components),
        pair_enumeration_truncated=truncated,
    )


def predicted_conflict_weight(
    program: ProgramView,
    layout: LayoutView,
    geometry: GeometrySpec,
    wpa_size: int = 0,
) -> int:
    """Total predicted weighted conflicts of one layout (lower is better)."""
    return build_interference_graph(program, layout, geometry, wpa_size).total_weight


def loop_nest_for(program: ProgramView) -> Optional[LoopNest]:
    """The loop-nesting forest of a program's ICFG (None without an entry)."""
    graph = absint_flow_graph(program)
    if graph is None:
        return None
    return build_loop_nest(graph)


def graph_for(context: AnalysisContext) -> Optional[InterferenceGraph]:
    """The context's interference graph at its WPA, cached on the context.

    ``None`` unless the context holds a program, a layout and a sound
    geometry.  The ``I`` rules and the ``repro verify`` certificate share
    this one computation per context.
    """
    if "interference_graph" not in context._cache:
        program, layout, geometry = context.program, context.layout, context.geometry
        context._cache["interference_graph"] = (
            build_interference_graph(program, layout, geometry, context.wpa_size or 0)
            if program is not None
            and layout is not None
            and geometry is not None
            and geometry.is_sound()
            else None
        )
    graph: Optional[InterferenceGraph] = context._cache["interference_graph"]
    return graph
