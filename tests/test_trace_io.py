"""Tests for trace persistence."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.layout import original_layout
from repro.trace.executor import CfgWalker
from repro.trace.fetch import line_events_from_block_trace
from repro.trace.io import (
    load_block_trace,
    load_events,
    save_block_trace,
    save_events,
)


@pytest.fixture()
def traced(toy_program, toy_models):
    trace = CfgWalker(toy_program, toy_models, seed=0).walk(800)
    layout = original_layout(toy_program)
    events = line_events_from_block_trace(trace, toy_program, layout, 32)
    return trace, events


class TestEventsRoundtrip:
    def test_roundtrip(self, tmp_path, traced):
        _, events = traced
        path = tmp_path / "events.v2"
        save_events(events, path)
        loaded = load_events(path)
        assert loaded.line_size == events.line_size
        assert np.array_equal(loaded.line_addrs, events.line_addrs)
        assert np.array_equal(loaded.counts, events.counts)
        assert np.array_equal(loaded.slots, events.slots)

    def test_loaded_trace_drives_schemes_identically(self, tmp_path, traced):
        from repro.sim.simulator import Simulator

        _, events = traced
        path = tmp_path / "events.v2"
        save_events(events, path)
        loaded = load_events(path)
        a = Simulator().run_events(events, "baseline")
        b = Simulator().run_events(loaded, "baseline")
        assert a.counters == b.counters

    def test_wrong_kind_rejected(self, tmp_path, traced):
        trace, _ = traced
        path = tmp_path / "blocks.v2"
        save_block_trace(trace, path)
        with pytest.raises(TraceError, match="not a line-event"):
            load_events(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_events(tmp_path / "nope.v2")


class TestBlockTraceRoundtrip:
    def test_roundtrip(self, tmp_path, traced):
        trace, _ = traced
        path = tmp_path / "blocks.v2"
        save_block_trace(trace, path)
        loaded = load_block_trace(path)
        assert loaded.program_name == trace.program_name
        assert loaded.num_instructions == trace.num_instructions
        assert loaded.num_program_runs == trace.num_program_runs
        assert np.array_equal(loaded.uids, trace.uids)

    def test_wrong_kind_rejected(self, tmp_path, traced):
        _, events = traced
        path = tmp_path / "events.v2"
        save_events(events, path)
        with pytest.raises(TraceError, match="not a block-trace"):
            load_block_trace(path)
