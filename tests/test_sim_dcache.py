"""Tests for the data-stream generator and D-cache refinement."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.dcache import simulate_dcache
from repro.sim.machine import XSCALE_BASELINE
from repro.workloads.data_model import (
    DATA_BASE,
    STACK_BASE,
    DataSpec,
    data_spec_for,
    synthesize_data_events,
)


class TestDataSpec:
    def test_fractions_validated(self):
        with pytest.raises(WorkloadError):
            DataSpec("x", streaming_fraction=0.5, random_fraction=0.5, stack_fraction=0.5)

    def test_presets_cover_suite(self):
        from repro.workloads.mibench import benchmark_names

        for name in benchmark_names():
            spec = data_spec_for(name)
            assert spec.name == name

    def test_class_differences(self):
        assert data_spec_for("cjpeg").streaming_fraction > data_spec_for(
            "patricia"
        ).streaming_fraction
        assert data_spec_for("crc").working_set_kb < data_spec_for(
            "tiff2bw"
        ).working_set_kb


class TestSynthesis:
    def test_access_count_exact(self):
        events = synthesize_data_events(data_spec_for("crc"), 5000)
        assert events.num_fetches == 5000

    def test_deterministic(self):
        a = synthesize_data_events(data_spec_for("sha"), 2000)
        b = synthesize_data_events(data_spec_for("sha"), 2000)
        assert (a.line_addrs == b.line_addrs).all()
        assert (a.counts == b.counts).all()

    def test_addresses_in_data_segments(self):
        events = synthesize_data_events(data_spec_for("patricia"), 3000)
        for addr in np.unique(events.line_addrs).tolist():
            assert addr >= DATA_BASE
            assert addr < STACK_BASE + 2**20

    def test_no_adjacent_duplicates(self):
        events = synthesize_data_events(data_spec_for("ispell"), 3000)
        addrs = events.line_addrs
        assert (addrs[1:] != addrs[:-1]).all()

    def test_zero_accesses(self):
        events = synthesize_data_events(data_spec_for("crc"), 0)
        assert events.num_events == 0


class TestDcacheSimulation:
    def test_compact_working_set_mostly_hits(self):
        events = synthesize_data_events(data_spec_for("crc"), 20_000)
        result = simulate_dcache(events, XSCALE_BASELINE)
        assert result.miss_rate < 0.02  # 8KB data in a 32KB cache

    def test_streaming_working_set_misses_more(self):
        compact = simulate_dcache(
            synthesize_data_events(data_spec_for("crc"), 20_000)
        )
        streaming = simulate_dcache(
            synthesize_data_events(data_spec_for("tiff2bw"), 20_000)
        )
        assert streaming.miss_rate > compact.miss_rate

    def test_energy_and_stalls_positive(self):
        events = synthesize_data_events(data_spec_for("cjpeg"), 10_000)
        result = simulate_dcache(events)
        assert result.energy_pj > 0
        assert result.stall_cycles == (
            result.counters.misses * XSCALE_BASELINE.memory_latency_cycles
        )
