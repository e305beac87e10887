"""Whole-program dataflow analyses over the lenient program views.

This module holds the graph machinery behind the ``V`` verification rules:

* **Flow graph construction** — the static successor relation of a
  :class:`~repro.analysis.context.ProgramView`, i.e. resolvable
  taken/fall-through edges plus call -> callee-entry edges.  Because a
  call block's fall-through label *is* its continuation, every dynamic
  execution path projects onto a path of this graph (the call/return
  excursion re-joins at the continuation edge), which is what makes
  dominator arguments about traces sound.
* **Dominators** — iterative Cooper-Harvey-Kennedy immediate dominators
  in reverse postorder.
* **Kirchhoff flow conservation** — a profiled block count must equal
  the sum of its profiled incoming edge counts.  The trace walker emits
  one unbroken block sequence that starts at the program entry and
  re-enters it on restarts, so block and edge counts derived from the
  same trace satisfy the identity *exactly*: the only allowed surplus is
  ``+1`` at the entry block of a program that executed at all.
* **Profile-edge legality** — every profiled edge must be realisable by
  the source block's kind (fall-through, jump target, call into the
  callee's entry, or return to a continuation of a call site / the
  program entry on restart).
* **Fall-through contiguity** — after placement, a block's fall-through
  successor must start at exactly ``address + size`` of its source;
  the chain builder treats fall-through chains as atomic, so a layout
  violating this was not produced by a legitimate placement pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.analysis.context import LayoutView, ProgramView
from repro.program.basic_block import BlockKind

__all__ = [
    "BrokenFallthrough",
    "FlowGraph",
    "FlowImbalance",
    "IllegalEdge",
    "broken_fallthroughs",
    "build_flow_graph",
    "dominators_of",
    "entry_block_uid",
    "flow_imbalances",
    "illegal_edges",
    "immediate_dominators",
    "reverse_postorder",
]


def entry_block_uid(view: ProgramView) -> Optional[int]:
    """Uid of the program's entry block, or ``None`` when it has none."""
    if view.entry is None or view.entry not in view.functions:
        return None
    function = view.functions[view.entry]
    if not function.blocks:
        return None
    return function.entry.uid


@dataclass(frozen=True)
class FlowGraph:
    """Static successor graph of a program view (uids as nodes)."""

    entry: int
    successors: Mapping[int, Tuple[int, ...]]
    predecessors: Mapping[int, Tuple[int, ...]]


def build_flow_graph(view: ProgramView) -> Optional[FlowGraph]:
    """The static flow graph, or ``None`` for a program without an entry."""
    entry = entry_block_uid(view)
    if entry is None:
        return None
    successors: Dict[int, Tuple[int, ...]] = {}
    for block in view.blocks():
        successors[block.uid] = tuple(dict.fromkeys(view.successor_uids(block)))
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


def reverse_postorder(graph: FlowGraph) -> List[int]:
    """Reverse postorder over the nodes reachable from the entry.

    Iterative (no recursion-depth limit) and deterministic: successor
    tuples are traversed in construction order.
    """
    order: List[int] = []
    visited: Set[int] = {graph.entry}
    stack: List[Tuple[int, int]] = [(graph.entry, 0)]
    while stack:
        node, index = stack[-1]
        succs = graph.successors.get(node, ())
        if index < len(succs):
            stack[-1] = (node, index + 1)
            child = succs[index]
            if child not in visited and child in graph.successors:
                visited.add(child)
                stack.append((child, 0))
        else:
            order.append(node)
            stack.pop()
    order.reverse()
    return order


def immediate_dominators(graph: FlowGraph) -> Dict[int, int]:
    """Cooper-Harvey-Kennedy immediate dominators.

    Returns ``{uid: idom(uid)}`` for every node reachable from the entry,
    with ``idom[entry] == entry``.  Unreachable nodes are absent.
    """
    rpo = reverse_postorder(graph)
    position = {uid: index for index, uid in enumerate(rpo)}
    idom: Dict[int, int] = {graph.entry: graph.entry}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while position[a] > position[b]:
                a = idom[a]
            while position[b] > position[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for uid in rpo:
            if uid == graph.entry:
                continue
            preds = [p for p in graph.predecessors.get(uid, ()) if p in idom]
            if not preds:
                continue
            candidate = preds[0]
            for pred in preds[1:]:
                candidate = intersect(candidate, pred)
            if idom.get(uid) != candidate:
                idom[uid] = candidate
                changed = True
    return idom


def dominators_of(uid: int, idom: Mapping[int, int]) -> List[int]:
    """Strict dominators of ``uid`` (itself excluded), nearest first."""
    chain: List[int] = []
    current = uid
    while current in idom and idom[current] != current:
        current = idom[current]
        chain.append(current)
    return chain


@dataclass(frozen=True)
class FlowImbalance:
    """One block whose execution count is not explained by its inflow."""

    uid: int
    count: int
    inflow: int
    expected_extra: int  # 1 at the trace's starting block, else 0

    @property
    def imbalance(self) -> int:
        return self.count - self.inflow - self.expected_extra


def flow_imbalances(
    view: ProgramView,
    block_counts: Mapping[int, int],
    edge_counts: Mapping[Tuple[int, int], int],
    tolerance: int = 0,
) -> List[FlowImbalance]:
    """Blocks violating ``count(b) == inflow(b) (+1 at the trace start)``.

    ``tolerance`` admits sampled or merged profiles where the identity
    only holds approximately; the bundled profiler derives block and edge
    counts from one trace, so the default is exact conservation.
    """
    entry = entry_block_uid(view)
    inflow: Dict[int, int] = {}
    for (_src, dst), count in edge_counts.items():
        inflow[dst] = inflow.get(dst, 0) + count
    violations: List[FlowImbalance] = []
    for uid in sorted(block.uid for block in view.blocks()):
        count = block_counts.get(uid, 0)
        extra = 1 if (uid == entry and count > 0) else 0
        if abs(count - inflow.get(uid, 0) - extra) > tolerance:
            violations.append(FlowImbalance(uid, count, inflow.get(uid, 0), extra))
    return violations


@dataclass(frozen=True)
class IllegalEdge:
    """A profiled edge the static ICFG cannot realise."""

    src: int
    dst: int
    count: int
    reason: str


def illegal_edges(
    view: ProgramView,
    edge_counts: Mapping[Tuple[int, int], int],
) -> List[IllegalEdge]:
    """Profiled edges with no static counterpart, in (src, dst) order."""
    # Legal return targets: the continuation block of every call into the
    # returning function, plus the program entry (the walker restarts
    # there when the entry function itself returns).
    continuations: Dict[str, Set[int]] = {}
    for block in view.blocks():
        if block.kind is BlockKind.CALL and block.callee is not None:
            target = view.resolve_label(block, block.fall_label)
            if target is not None:
                continuations.setdefault(block.callee, set()).add(target)
    entry = entry_block_uid(view)
    known = {block.uid for block in view.blocks()}

    violations: List[IllegalEdge] = []
    for src, dst in sorted(edge_counts):
        count = edge_counts[(src, dst)]
        if count <= 0:
            continue
        if src not in known or dst not in known:
            violations.append(
                IllegalEdge(src, dst, count, "references a block the program does not define")
            )
            continue
        block = view.block_by_uid(src)
        candidates: Set[Optional[int]] = set()
        if block.kind is BlockKind.FALLTHROUGH:
            candidates = {view.resolve_label(block, block.fall_label)}
        elif block.kind is BlockKind.JUMP:
            candidates = {view.resolve_label(block, block.taken_label)}
        elif block.kind is BlockKind.CONDJUMP:
            candidates = {
                view.resolve_label(block, block.taken_label),
                view.resolve_label(block, block.fall_label),
            }
        elif block.kind is BlockKind.CALL:
            if block.callee in view.functions and view.functions[block.callee].blocks:
                candidates = {view.functions[block.callee].entry.uid}
        elif block.kind is BlockKind.RETURN:
            candidates = set(continuations.get(block.function, set()))
            if block.function == view.entry and entry is not None:
                candidates.add(entry)
        legal = {uid for uid in candidates if uid is not None}
        if dst not in legal:
            violations.append(
                IllegalEdge(
                    src,
                    dst,
                    count,
                    f"is not a legal {block.kind.name.lower()} successor",
                )
            )
    return violations


@dataclass(frozen=True)
class BrokenFallthrough:
    """A fall-through target not placed immediately after its source."""

    src: int
    dst: int
    expected_address: int
    actual_address: int


def broken_fallthroughs(
    view: ProgramView,
    layout: LayoutView,
) -> List[BrokenFallthrough]:
    """Placed fall-through edges that are not address-contiguous.

    Dangling fall labels (P004) and blocks missing from the layout
    (L-rules) are other rules' findings; only edges whose endpoints are
    both placed are judged here.
    """
    violations: List[BrokenFallthrough] = []
    for block in sorted(view.blocks(), key=lambda b: b.uid):
        if block.fall_label is None:
            continue
        dst = view.resolve_label(block, block.fall_label)
        if dst is None:
            continue
        if block.uid not in layout.addresses or dst not in layout.addresses:
            continue
        expected = layout.addresses[block.uid] + layout.sizes.get(block.uid, 0)
        actual = layout.addresses[dst]
        if actual != expected:
            violations.append(BrokenFallthrough(block.uid, dst, expected, actual))
    return violations
