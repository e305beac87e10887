"""Unit and property tests for line-event expansion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.layout import original_layout
from repro.program import ProgramBuilder
from repro.trace.branch_model import BranchModelMap, LoopBranch
from repro.trace.events import SEQUENTIAL_SLOT, LineEventTrace
from repro.trace.executor import CfgWalker
from repro.trace.fetch import block_line_segments, line_events_from_block_trace


class TestBlockLineSegments:
    def test_block_within_one_line(self):
        assert block_line_segments(0x104, 3, 32) == [(0x100, 3)]

    def test_block_spanning_lines(self):
        # 10 instructions from 0x104: 7 fit in line 0x100, 3 in line 0x120
        assert block_line_segments(0x104, 10, 32) == [(0x100, 7), (0x120, 3)]

    def test_block_aligned_full_lines(self):
        assert block_line_segments(0x100, 16, 32) == [(0x100, 8), (0x120, 8)]

    def test_empty_block_rejected(self):
        with pytest.raises(Exception):
            block_line_segments(0, 0, 32)

    @given(
        start_words=st.integers(0, 1000),
        n=st.integers(1, 200),
        line_exp=st.integers(2, 7),
    )
    @settings(max_examples=60)
    def test_segments_cover_exactly(self, start_words, n, line_exp):
        line_size = 1 << line_exp
        start = start_words * 4
        segments = block_line_segments(start, n, line_size)
        assert sum(count for _, count in segments) == n
        # line addresses strictly increase by line_size
        addresses = [a for a, _ in segments]
        assert all(b - a == line_size for a, b in zip(addresses, addresses[1:]))
        assert addresses[0] == start & ~(line_size - 1)


def _walk_events(program, models, budget, line_size=32, seed=0):
    trace = CfgWalker(program, models, seed=seed).walk(budget)
    layout = original_layout(program)
    return trace, line_events_from_block_trace(trace, program, layout, line_size)


class TestLineEvents:
    def test_fetch_count_matches_instructions(self, toy_program, toy_models):
        trace, events = _walk_events(toy_program, toy_models, 700)
        assert events.num_fetches == trace.num_instructions

    def test_no_adjacent_duplicate_lines(self, toy_program, toy_models):
        _, events = _walk_events(toy_program, toy_models, 700)
        addrs = events.line_addrs
        assert (addrs[1:] != addrs[:-1]).all()

    def test_lines_are_aligned(self, toy_program, toy_models):
        _, events = _walk_events(toy_program, toy_models, 700)
        assert (events.line_addrs % 32 == 0).all()

    def test_counts_positive(self, toy_program, toy_models):
        _, events = _walk_events(toy_program, toy_models, 700)
        assert int(events.counts.min()) >= 1

    def test_slots_in_range(self, toy_program, toy_models):
        _, events = _walk_events(toy_program, toy_models, 700)
        slots = events.slots
        assert int(slots.min()) >= SEQUENTIAL_SLOT
        assert int(slots.max()) < 32 // 4

    def test_tight_loop_in_one_line_produces_single_event(self):
        # A loop whose head+latch fit in one 32B line: the backward branch
        # stays within the line, so events merge (the same-line skip case).
        builder = ProgramBuilder("tight")
        fn = builder.function("main")
        fn.block("head", 2)  # 2 instructions at 0x0
        fn.block("latch", 1, branch="head")  # 2 instructions ending at 0x13
        fn.block("out", 1, ret=True)
        program = builder.build()
        models = BranchModelMap(
            {program.uid_of_label("main", "latch"): LoopBranch(50, 50)}
        )
        trace = CfgWalker(program, models, seed=0).walk(150)
        layout = original_layout(program)
        events = line_events_from_block_trace(trace, program, layout, 32)
        # 4-instruction loop entirely inside line 0: one big merged event
        # per 50-trip burst (plus the out/restart transitions).
        biggest = int(events.counts.max())
        assert biggest >= 150  # ~50 trips x 4 instructions merged
        assert events.compression_ratio > 20

    def test_line_size_must_match_power_of_two(self, toy_program, toy_models):
        trace = CfgWalker(toy_program, toy_models, seed=0).walk(100)
        layout = original_layout(toy_program)
        with pytest.raises(Exception):
            line_events_from_block_trace(trace, toy_program, layout, 33)

    def test_different_line_sizes_conserve_fetches(self, toy_program, toy_models):
        trace = CfgWalker(toy_program, toy_models, seed=0).walk(900)
        layout = original_layout(toy_program)
        for line_size in (8, 16, 32, 64):
            events = line_events_from_block_trace(trace, toy_program, layout, line_size)
            assert events.num_fetches == trace.num_instructions


class TestLineEventTraceValidation:
    def test_mismatched_arrays_rejected(self):
        with pytest.raises(Exception):
            LineEventTrace(
                line_size=32,
                line_addrs=np.array([0], dtype=np.int64),
                counts=np.array([1, 2], dtype=np.int32),
                slots=np.array([0], dtype=np.int16),
            )

    def test_zero_count_rejected(self):
        with pytest.raises(Exception):
            LineEventTrace(
                line_size=32,
                line_addrs=np.array([0], dtype=np.int64),
                counts=np.array([0], dtype=np.int32),
                slots=np.array([0], dtype=np.int16),
            )

    def test_unaligned_line_addresses_rejected(self):
        # 4 and 20 are not line starts at 16-byte lines.  The kernels key
        # residency by line address and the reference schemes by tag and
        # set, so the two tiers would replay this stream differently.
        with pytest.raises(TraceError, match="aligned"):
            LineEventTrace(
                line_size=16,
                line_addrs=np.array([0, 4, 0, 20, 16], dtype=np.int64),
                counts=np.ones(5, dtype=np.int32),
                slots=np.full(5, SEQUENTIAL_SLOT, dtype=np.int16),
            )
        with pytest.raises(TraceError, match="positive"):
            LineEventTrace(
                line_size=0,
                line_addrs=np.array([0], dtype=np.int64),
                counts=np.array([1], dtype=np.int32),
                slots=np.array([0], dtype=np.int16),
            )

    def test_empty_trace_ok(self):
        trace = LineEventTrace(
            line_size=32,
            line_addrs=np.array([], dtype=np.int64),
            counts=np.array([], dtype=np.int32),
            slots=np.array([], dtype=np.int16),
        )
        assert trace.num_events == 0
        assert trace.num_fetches == 0
        assert trace.compression_ratio == 0.0

