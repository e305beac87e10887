"""Interference graph unit tests and the renumbering-invariance property.

The graph (:mod:`repro.analysis.interference.graph`) keys every weight
by *line address* and loop-component membership, never by block uid, so
its output must be bit-identical when the same program is merely built
in a different declaration order (which renumbers every uid).  The
Hypothesis property at the bottom builds one program structure under a
drawn function permutation and checks exactly that.

The unit tests pin the certificate predicate, the closed-form pair sum,
the loop-nesting forest of the shared toy program, and the exact graph
the toy program produces on the hand-checkable tiny geometry.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro import ProgramBuilder
from repro.analysis.context import GeometrySpec, LayoutView, ProgramView
from repro.analysis.interference.graph import (
    build_interference_graph,
    certify_conflict_free,
    loop_nest_for,
    _min_pair_sum,
)
from repro.isa.instructions import INSTRUCTION_SIZE
from tests.conftest import build_toy_program
from tests.scheme_helpers import TINY_GEOMETRY

#: 4 sets x 4 ways x 16B lines; set = addr[5:4], mandated way = addr[7:6].
SPEC = GeometrySpec.from_geometry(TINY_GEOMETRY)

#: Line addresses that all map to set 0 of SPEC (multiples of 64).
SET0 = [0, 64, 128, 192, 256, 320, 384, 448]


class TestCertifyConflictFree:
    def test_within_associativity_is_certified(self):
        assert certify_conflict_free(SET0[:4], SPEC, wpa_size=0)

    def test_overflowing_associativity_is_not(self):
        assert not certify_conflict_free(SET0[:5], SPEC, wpa_size=0)

    def test_wpa_lines_with_distinct_mandated_ways_are_certified(self):
        # 0, 64, 128, 192 carry tags 0..3 -> mandated ways 0..3.
        assert certify_conflict_free(SET0[:4], SPEC, wpa_size=1024)

    def test_wpa_mandated_way_collision_is_not(self):
        # 0 and 256 both have tag & 3 == 0 -> both pin way 0.
        assert not certify_conflict_free([0, 256], SPEC, wpa_size=1024)
        assert certify_conflict_free([0, 256], SPEC, wpa_size=0)

    def test_mixed_wpa_and_round_robin_lines(self):
        # One non-WPA line claims way 0; a WPA line mandated to way 0 loses.
        assert not certify_conflict_free([0, 192], SPEC, wpa_size=64)
        # Mandated ways 1 and 2 stay above the single round-robin way.
        assert certify_conflict_free([64, 128, 192], SPEC, wpa_size=192)

    @given(
        lines=st.lists(st.sampled_from(SET0), unique=True, max_size=6),
        wpa_size=st.sampled_from([0, 64, 192, 320, 1024]),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_under_subsets(self, lines, wpa_size):
        """A certificate for a line set covers every subset of it."""
        if not certify_conflict_free(sorted(lines), SPEC, wpa_size):
            return
        for size in range(len(lines) + 1):
            for subset in itertools.combinations(lines, size):
                assert certify_conflict_free(sorted(subset), SPEC, wpa_size)


class TestMinPairSum:
    def test_small_examples(self):
        assert _min_pair_sum([]) == 0
        assert _min_pair_sum([7]) == 0
        assert _min_pair_sum([2, 5]) == 2
        assert _min_pair_sum([1, 2, 3]) == 1 + 1 + 2

    @given(st.lists(st.integers(0, 100), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_matches_quadratic_brute_force(self, counts):
        expected = sum(min(a, b) for a, b in itertools.combinations(counts, 2))
        assert _min_pair_sum(counts) == expected


def _toy_uid(program, spec):
    function, label = spec.split(":")
    return program.uid_of_label(function, label)


def test_toy_loop_nest_threads_the_call():
    """The toy's loop nests one level deeper and swallows its callee."""
    program = build_toy_program()
    nest = loop_nest_for(ProgramView.from_program(program))
    assert nest is not None
    entry = _toy_uid(program, "main:entry")
    loop_head = _toy_uid(program, "main:loop_head")
    latch = _toy_uid(program, "main:latch")
    h0 = _toy_uid(program, "helper:h0")
    h1 = _toy_uid(program, "helper:h1")

    assert nest.depth(loop_head) == nest.depth(entry) + 1
    # The callee is threaded into the calling loop's component.
    assert nest.depth(h0) == nest.depth(loop_head)
    assert nest.shared_depth(latch, loop_head) == nest.depth(loop_head)
    assert nest.shared_depth(entry, loop_head) == nest.depth(entry)
    inner = {loop_head, _toy_uid(program, "main:body"), latch, h0, h1}
    assert any(inner <= component.members for component in nest.components)


def _contiguous_layout(program, skip_function=None):
    """Place blocks contiguously at 0 in their declaration order."""
    addresses, sizes = {}, {}
    cursor = 0
    for block in program.blocks():
        if block.function == skip_function:
            continue
        size = block.num_instructions * INSTRUCTION_SIZE
        addresses[block.uid] = cursor
        sizes[block.uid] = size
        cursor += size
    return LayoutView(program.name, addresses, sizes)


def test_toy_graph_exact_weights():
    """Pin the toy program's graph on the tiny geometry (BASE = 10).

    The 104-byte program covers lines 0..0x70; each of the four sets
    holds exactly two lines, so every set is certified at wpa 0.  The
    inner loop (level 2) drives the three heavy pairs; the outer
    whole-program cycle adds the light set-0 pair.
    """
    program = build_toy_program()
    view = ProgramView.from_program(program)
    layout = _contiguous_layout(program)
    graph = build_interference_graph(view, layout, SPEC, wpa_size=0)

    assert graph.loop_count == 2
    assert graph.interfering_pairs == 4
    assert graph.total_weight == 360
    assert graph.total_weight == sum(entry.pressure for entry in graph.sets)
    assert [entry.pressure for entry in graph.sets] == [20, 120, 110, 110]
    assert graph.conflict_free_sets() == (0, 1, 2, 3)
    assert not graph.pair_enumeration_truncated
    # Every line weight is a power-of-BASE sum over the blocks covering it.
    assert all(weight > 0 for weight in graph.line_weight.values())


def test_toy_graph_wpa_pinning_removes_all_pairs():
    """With the whole program inside the WPA every pair has distinct
    mandated ways (two lines 64 apart differ in tag), so no interference
    survives the inclusion-exclusion."""
    program = build_toy_program()
    view = ProgramView.from_program(program)
    layout = _contiguous_layout(program)
    graph = build_interference_graph(view, layout, SPEC, wpa_size=128)
    assert graph.total_weight == 0
    assert graph.interfering_pairs == 0
    assert graph.conflict_free_sets() == (0, 1, 2, 3)


HELPER_COUNT = 4
LABELS = ["a", "b", "c"]


def _build_renumbered(order, sizes):
    """One fixed program structure, helper functions declared in ``order``.

    ``main`` calls helpers f0..f3 in index order regardless of the
    declaration order, and each helper is a self-loop (a -> b -> a with
    a fall-through exit), so the CFG is identical across variants while
    every uid changes.
    """
    builder = ProgramBuilder("renumbered")
    for index in order:
        if index == -1:
            main = builder.function("main")
            main.block("entry", 2)
            for callee in range(HELPER_COUNT):
                main.block(f"call{callee}", 1, call=f"f{callee}")
            main.block("fin", 1, ret=True)
        else:
            helper = builder.function(f"f{index}")
            helper.block("a", sizes[index][0])
            helper.block("b", sizes[index][1], branch="a")
            helper.block("c", 1, ret=True)
    program = builder.build(entry="main")

    # Canonical placement: identical (function, label) -> address in every
    # variant, whatever the declaration (and hence uid) order was.
    addresses, sizes_by_uid = {}, {}
    cursor = 0
    placement = [("main", "entry")]
    placement += [("main", f"call{i}") for i in range(HELPER_COUNT)]
    placement += [("main", "fin")]
    for index in range(HELPER_COUNT):
        placement += [(f"f{index}", label) for label in LABELS]
    blocks = {(b.function, b.label): b for b in program.blocks()}
    for key in placement:
        block = blocks[key]
        size = block.num_instructions * INSTRUCTION_SIZE
        addresses[block.uid] = cursor
        sizes_by_uid[block.uid] = size
        cursor += size
    return ProgramView.from_program(program), LayoutView(
        program.name, addresses, sizes_by_uid
    )


def _graph_fingerprint(graph):
    return (
        graph.total_weight,
        graph.interfering_pairs,
        graph.loop_count,
        dict(graph.line_weight),
        [(s.set_index, s.lines, s.pressure, s.conflict_free) for s in graph.sets],
        [
            (e.line_a, e.line_b, e.set_index, e.depth, e.weight)
            for e in graph.top_pairs
        ],
    )


@given(
    order=st.permutations(list(range(HELPER_COUNT)) + [-1]),
    sizes=st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        min_size=HELPER_COUNT,
        max_size=HELPER_COUNT,
    ),
    wpa_size=st.sampled_from([0, 64, 256]),
)
@settings(max_examples=40, deadline=None)
def test_graph_invariant_under_block_renumbering(order, sizes, wpa_size):
    """Same structure + same placement => the same graph, any uid order.

    ``-1`` in the permutation marks where ``main`` is declared relative
    to the helpers, so the entry function's uids move around too.
    """
    baseline_view, baseline_layout = _build_renumbered(
        list(range(HELPER_COUNT)) + [-1], sizes
    )
    variant_view, variant_layout = _build_renumbered(order, sizes)
    baseline = build_interference_graph(
        baseline_view, baseline_layout, SPEC, wpa_size
    )
    variant = build_interference_graph(variant_view, variant_layout, SPEC, wpa_size)
    assert _graph_fingerprint(variant) == _graph_fingerprint(baseline)
