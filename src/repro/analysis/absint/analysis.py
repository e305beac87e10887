"""Fixpoint engine: must/may cache analysis over the interprocedural CFG.

The verifier's :func:`repro.verify.dataflow.build_flow_graph` gives every
call block an edge to *both* its callee and its continuation, which is
what dominator arguments want.  A cache analysis must not take that
shortcut: abstract state flowing call -> continuation would skip the
callee's cache effects and claim hits the callee may have evicted.  The
graph built here therefore routes calls **through** the callee:

* ``CALL``   -> callee entry only (the continuation edge is kept solely
  when the callee is unknown or empty, where there is nothing to skip);
* ``RETURN`` -> the continuation of every call into the returning
  function, plus the program entry when the entry function itself
  returns (the trace walker restarts there *without* flushing the
  cache);
* jumps / branches / fall-throughs -> their resolved labels.

Every dynamic path of the trace walker projects onto a path of this
graph, so a context-insensitive fixpoint over it is sound for both the
``must`` (all paths) and ``may`` (some path) directions.  Loop structure
is taken from the existing dominator machinery: reverse postorder drives
the iteration schedule and back edges (a successor dominating its
source) identify the loop headers reported in the result.

Blocks expand to the cache lines they occupy in the resolved layout, in
address order — exactly the per-line fetch stream the trace expansion
produces for one execution of the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.analysis.absint.lattice import AbstractState, CacheUniverse, Classification
from repro.analysis.context import AnalysisContext, GeometrySpec, LayoutView, ProgramView
from repro.program.basic_block import BlockKind
from repro.verify.dataflow import (
    FlowGraph,
    dominators_of,
    entry_block_uid,
    immediate_dominators,
    nontrivial_sccs,
    reverse_postorder,
)

__all__ = [
    "CacheBehavior",
    "LineSummary",
    "absint_flow_graph",
    "analyze_cache",
    "behavior_for",
    "block_lines",
]

#: Fixpoint rounds before the analysis gives up and reports everything
#: unknown.  The lattice is finite and the transfer monotone, so this is
#: a safety net, not an expected exit.
MAX_ROUNDS = 512


def absint_flow_graph(view: ProgramView) -> Optional[FlowGraph]:
    """The call-threading ICFG described in the module docstring."""
    entry = entry_block_uid(view)
    if entry is None:
        return None
    continuations: Dict[str, Set[int]] = {}
    for block in view.blocks():
        if block.kind is BlockKind.CALL and block.callee is not None:
            target = view.resolve_label(block, block.fall_label)
            if target is not None:
                continuations.setdefault(block.callee, set()).add(target)

    successors: Dict[int, Tuple[int, ...]] = {}
    for block in view.blocks():
        succs: List[int] = []
        if block.kind is BlockKind.CALL:
            callee = view.functions.get(block.callee or "")
            if callee is not None and callee.blocks:
                succs.append(callee.entry.uid)
            else:
                fall = view.resolve_label(block, block.fall_label)
                if fall is not None:
                    succs.append(fall)
        elif block.kind is BlockKind.RETURN:
            succs.extend(sorted(continuations.get(block.function, set())))
            if block.function == view.entry:
                succs.append(entry)
        elif block.kind is BlockKind.JUMP:
            taken = view.resolve_label(block, block.taken_label)
            if taken is not None:
                succs.append(taken)
        elif block.kind is BlockKind.CONDJUMP:
            for label in (block.taken_label, block.fall_label):
                uid = view.resolve_label(block, label)
                if uid is not None:
                    succs.append(uid)
        else:  # FALLTHROUGH
            fall = view.resolve_label(block, block.fall_label)
            if fall is not None:
                succs.append(fall)
        successors[block.uid] = tuple(dict.fromkeys(succs))

    predecessors: Dict[int, List[int]] = {uid: [] for uid in successors}
    for src in sorted(successors):
        for dst in successors[src]:
            if dst in predecessors:
                predecessors[dst].append(src)
    return FlowGraph(
        entry,
        successors,
        {uid: tuple(preds) for uid, preds in predecessors.items()},
    )


def block_lines(
    uid: int, layout: LayoutView, geometry: GeometrySpec
) -> List[int]:
    """Line addresses a block's placement covers, in fetch order."""
    address = layout.addresses.get(uid)
    size = layout.sizes.get(uid, 0)
    if address is None or size <= 0:
        return []
    offset_bits = geometry.offset_bits
    first = address >> offset_bits
    last = (address + size - 1) >> offset_bits
    return [line << offset_bits for line in range(first, last + 1)]


@dataclass(frozen=True)
class LineSummary:
    """Static site statistics for one cache line."""

    line_addr: int
    sites: int  # reachable sites only
    guaranteed_hits: int
    guaranteed_misses: int
    unknown: int
    in_cycle: bool  # some reachable site sits on an ICFG cycle

    @property
    def conclusive(self) -> bool:
        return self.sites > 0 and self.unknown == 0


@dataclass(frozen=True)
class CacheBehavior:
    """Fixpoint result for one ``(layout, geometry, scheme, wpa)`` config."""

    scheme: str
    wpa_size: int
    universe: CacheUniverse
    converged: bool
    rounds: int
    #: uid -> ((line address, classification), ...) in fetch order;
    #: unreachable blocks carry ``Classification.UNREACHABLE`` sites.
    sites: Mapping[int, Tuple[Tuple[int, Classification], ...]]
    line_summaries: Mapping[int, LineSummary]
    #: Lines whose every reachable site is a guaranteed miss (and that
    #: have at least one); every dynamic fetch of such a line misses.
    never_hit: FrozenSet[int]
    #: Lines placed in the layout but only inside unreachable blocks.
    unreachable_lines: FrozenSet[int]
    loop_headers: Tuple[int, ...]
    reachable_sites: int
    unknown_sites: int

    @property
    def unknown_fraction(self) -> float:
        if not self.reachable_sites:
            return 0.0
        return self.unknown_sites / self.reachable_sites

    @property
    def guaranteed_hit_sites(self) -> int:
        return sum(s.guaranteed_hits for s in self.line_summaries.values())


def analyze_cache(
    program: Optional[ProgramView],
    layout: Optional[LayoutView],
    geometry: Optional[GeometrySpec],
    scheme: str,
    wpa_size: int,
) -> Optional[CacheBehavior]:
    """Run the fixpoint, or ``None`` when the inputs cannot support one."""
    if program is None or layout is None or geometry is None:
        return None
    if not geometry.is_sound():
        return None
    graph = absint_flow_graph(program)
    if graph is None:
        return None

    lines_of: Dict[int, List[int]] = {
        block.uid: block_lines(block.uid, layout, geometry)
        for block in program.blocks()
    }
    universe_addrs = sorted(
        {addr for lines in lines_of.values() for addr in lines}
    )
    if not universe_addrs:
        return None
    universe = CacheUniverse(universe_addrs, geometry, scheme, wpa_size)
    indices_of: Dict[int, List[int]] = {
        uid: [universe.index[addr] for addr in lines]
        for uid, lines in lines_of.items()
    }

    rpo = reverse_postorder(graph)
    idom = immediate_dominators(graph)
    headers: Set[int] = set()
    for src in rpo:
        for dst in graph.successors.get(src, ()):
            if dst == src or dst in dominators_of(src, idom):
                headers.add(dst)

    states: Dict[int, AbstractState] = {graph.entry: AbstractState.empty()}
    rounds = 0
    changed = True
    while changed and rounds < MAX_ROUNDS:
        changed = False
        rounds += 1
        for uid in rpo:
            state = states.get(uid)
            if state is None:
                continue
            out = universe.run_block(state, indices_of[uid])
            for succ in graph.successors.get(uid, ()):
                if succ not in indices_of:
                    continue
                previous = states.get(succ)
                joined = out if previous is None else previous.join(out)
                if joined != previous:
                    states[succ] = joined
                    changed = True
    converged = not changed

    cyclic = {
        uid
        for component in nontrivial_sccs(rpo, graph.successors, frozenset())
        for uid in component
    }
    reachable = set(rpo)
    sites: Dict[int, Tuple[Tuple[int, Classification], ...]] = {}
    per_line: Dict[int, List[int]] = {}  # addr -> [hits, misses, unknown, cycle]
    reachable_sites = 0
    unknown_sites = 0
    reachable_lines: Set[int] = set()
    for block in program.blocks():
        uid = block.uid
        state = states.get(uid)
        if state is None or uid not in reachable:
            sites[uid] = tuple(
                (addr, Classification.UNREACHABLE) for addr in lines_of[uid]
            )
            continue
        verdicts: List[Tuple[int, Classification]] = []
        for addr, line_index in zip(lines_of[uid], indices_of[uid]):
            if converged:
                verdict = universe.classify(state, line_index)
            else:
                verdict = Classification.UNKNOWN
            state = universe.access(state, line_index)
            verdicts.append((addr, verdict))
            reachable_sites += 1
            reachable_lines.add(addr)
            tally = per_line.setdefault(addr, [0, 0, 0, 0])
            if verdict is Classification.HIT:
                tally[0] += 1
            elif verdict is Classification.MISS:
                tally[1] += 1
            else:
                tally[2] += 1
                unknown_sites += 1
            if uid in cyclic:
                tally[3] = 1
        sites[uid] = tuple(verdicts)

    line_summaries = {
        addr: LineSummary(
            line_addr=addr,
            sites=tally[0] + tally[1] + tally[2],
            guaranteed_hits=tally[0],
            guaranteed_misses=tally[1],
            unknown=tally[2],
            in_cycle=bool(tally[3]),
        )
        for addr, tally in sorted(per_line.items())
    }
    never_hit = frozenset(
        addr
        for addr, summary in line_summaries.items()
        if summary.sites > 0
        and summary.guaranteed_misses == summary.sites
    )
    unreachable_lines = frozenset(
        addr for addr in universe.lines if addr not in reachable_lines
    )
    return CacheBehavior(
        scheme=scheme,
        wpa_size=wpa_size,
        universe=universe,
        converged=converged,
        rounds=rounds,
        sites=sites,
        line_summaries=line_summaries,
        never_hit=never_hit,
        unreachable_lines=unreachable_lines,
        loop_headers=tuple(sorted(headers)),
        reachable_sites=reachable_sites,
        unknown_sites=unknown_sites,
    )


def behavior_for(context: AnalysisContext) -> Optional[CacheBehavior]:
    """The way-placement fixpoint at the context's WPA, cached on the context.

    ``None`` without a positive WPA.  The ``A`` rules and the
    ``repro verify`` certificate share this one computation per context.
    """
    if "absint_behavior" not in context._cache:
        wpa_size = context.wpa_size or 0
        context._cache["absint_behavior"] = (
            analyze_cache(
                context.program,
                context.layout,
                context.geometry,
                "way-placement",
                wpa_size,
            )
            if wpa_size > 0
            else None
        )
    behavior: Optional[CacheBehavior] = context._cache["absint_behavior"]
    return behavior
