"""Family replay equivalence: one traversal, bit-identical per member.

Family replay (:mod:`repro.engine.family`) evolves interval-shared per-set
state snapshots over a threshold-sorted sweep, splitting at
threshold-straddling misses and merging on reconvergence, and answers the
sweep reductions from per-trace sorted aggregates.  None of that is
allowed to change a number.  This suite pins it down three ways:

* **kernel equivalence** — for mixed families (baseline and way-placement
  together, duplicate and non-contiguous thresholds, ``same_line_skip`` on
  and off, divergent I-TLB shapes, degenerate 1-config families, members
  in any order), every :class:`~repro.cache.access.FetchCounters` field
  from ``family_counters`` equals the per-config kernel *and* the
  reference scheme, on Hypothesis-generated and large seeded streams —
  including a direct-mapped geometry where every split must reconverge
  through eviction cascades;
* **planner behaviour** — :func:`~repro.engine.grid.plan_families` groups
  exactly the cells sharing (benchmark, resolved layout policy, geometry),
  and leaves non-batchable, invalid, and lone cells on the per-cell path;
* **grid execution and supervision** — a default runner plans one family
  per trace and geometry and stays bit-identical to the reference engine;
  a chaos fault at the ``family`` site degrades the family to per-cell
  replay with a recovered :class:`~repro.resilience.policy.FailureReport`,
  and a kernel fault on top walks the members down to the reference
  schemes.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings

from repro.cache.access import FetchCounters
from repro.cache.geometry import CacheGeometry
from repro.engine.family import BatchMember, batchable, family_counters
from repro.engine.grid import GridCell, plan_families
from repro.engine.kernels import fast_counters
from repro.errors import ExperimentError, SchemeError
from repro.experiments.runner import ExperimentRunner
from repro.layout.placement import LayoutPolicy
from repro.resilience import chaos
from repro.resilience.chaos import ChaosConfig, ChaosRule
from repro.schemes.baseline import BaselineScheme
from repro.schemes.way_placement import WayPlacementScheme
from repro.sim.machine import XSCALE_BASELINE
from repro.trace.events import SEQUENTIAL_SLOT
from tests.scheme_helpers import TINY_GEOMETRY, events_from
from tests.test_schemes_equivalence import event_streams

KB = 1024

# A deliberately adversarial family: baseline and way-placement mixed, a WPA
# sweep with a duplicate point, same_line_skip toggled against each kernel's
# default, a non-default hint seed, and a tiny I-TLB.  Listed out of
# threshold order so the results must be mapped back to input order.
MIXED_FAMILY = [
    BatchMember("way-placement", {"wpa_size": 256, "page_size": 16}),
    BatchMember("baseline", {"page_size": 16}),
    BatchMember("way-placement", {"wpa_size": 0, "page_size": 16}),
    BatchMember("way-placement", {"wpa_size": 64, "page_size": 16}),
    BatchMember(
        "way-placement",
        {"wpa_size": 256, "page_size": 16, "same_line_skip": False},
    ),
    BatchMember("baseline", {"page_size": 16, "same_line_skip": True}),
    BatchMember(
        "way-placement",
        {"wpa_size": 128, "page_size": 16, "hint_initial": True},
    ),
    BatchMember(
        "way-placement",
        {"wpa_size": 64, "page_size": 16, "itlb_entries": 2},
    ),
    BatchMember("way-placement", {"wpa_size": 64, "page_size": 16}),
]

#: Non-contiguous thresholds: gaps, duplicates, and points beyond the
#: 40-line stream extent, so some adjacent pairs never see a delta event
#: and others straddle almost every address.
SPARSE_SWEEP = [
    BatchMember("way-placement", {"wpa_size": 32, "page_size": 16}),
    BatchMember("way-placement", {"wpa_size": 640, "page_size": 16}),
    BatchMember("baseline", {"page_size": 16}),
    BatchMember("way-placement", {"wpa_size": 64, "page_size": 16}),
    BatchMember("way-placement", {"wpa_size": 64, "page_size": 16}),
    BatchMember("way-placement", {"wpa_size": 4096, "page_size": 16}),
]

#: A direct-mapped variant: with one way per set, every fill evicts, so a
#: split run reconverges on the very next shared fill — the merge path
#: runs constantly instead of rarely.
DIRECT_MAPPED = CacheGeometry(64, 1, 16)


def reference_counters(member, events, geometry=TINY_GEOMETRY):
    cls = BaselineScheme if member.scheme == "baseline" else WayPlacementScheme
    return cls(geometry, **dict(member.options)).run(events)


def assert_identical(actual, expected, member):
    for field in dataclasses.fields(FetchCounters):
        assert getattr(actual, field.name) == getattr(expected, field.name), (
            f"{field.name} diverges for {member}: "
            f"{getattr(actual, field.name)} != {getattr(expected, field.name)}"
        )


def assert_family_agrees(events, geometry, members):
    """Each member's family counters equal its kernel and reference scheme."""
    results = family_counters(events, geometry, members)
    assert len(results) == len(members)
    for member, counters in zip(members, results):
        kernel = fast_counters(member.scheme, events, geometry, **dict(member.options))
        assert_identical(counters, kernel, member)
        assert_identical(counters, reference_counters(member, events, geometry), member)


def seeded_stream(seed):
    """600 events over 120 lines with no adjacent repeats."""
    rng = random.Random(seed)
    specs = []
    previous = None
    for _ in range(600):
        line = rng.randrange(120)
        if line == previous:
            line = (line + 1) % 120
        previous = line
        specs.append(
            (
                line * 16,
                rng.randint(1, 8),
                rng.choice([SEQUENTIAL_SLOT, 0, 1, 2, 3]),
            )
        )
    return events_from(specs)


class TestKernelEquivalence:
    @given(event_streams())
    @settings(max_examples=60, deadline=None)
    def test_mixed_family_matches_kernels_and_reference(self, specs):
        assert_family_agrees(events_from(specs), TINY_GEOMETRY, MIXED_FAMILY)

    @given(event_streams())
    @settings(max_examples=40, deadline=None)
    def test_mixed_family_direct_mapped(self, specs):
        assert_family_agrees(events_from(specs), DIRECT_MAPPED, MIXED_FAMILY)

    @given(event_streams())
    @settings(max_examples=40, deadline=None)
    def test_sparse_sweep_direct_mapped(self, specs):
        assert_family_agrees(events_from(specs), DIRECT_MAPPED, SPARSE_SWEEP)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("geometry", [TINY_GEOMETRY, DIRECT_MAPPED])
    def test_seeded_large_streams(self, seed, geometry):
        events = seeded_stream(seed)
        assert_family_agrees(events, geometry, MIXED_FAMILY)
        assert_family_agrees(events, geometry, SPARSE_SWEEP)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_seeded_member_order(self, seed):
        # Results map back to input order whatever order the members come in.
        members = list(MIXED_FAMILY)
        random.Random(seed).shuffle(members)
        assert_family_agrees(seeded_stream(seed), TINY_GEOMETRY, members)

    def test_degenerate_one_config_family(self):
        events = events_from([(0, 1), (16, 2), (0, 1), (96, 3)])
        for member in MIXED_FAMILY + SPARSE_SWEEP:
            assert_family_agrees(events, TINY_GEOMETRY, [member])

    def test_empty_trace(self):
        assert_family_agrees(events_from([]), TINY_GEOMETRY, MIXED_FAMILY)

    def test_empty_trace_direct_mapped(self):
        assert_family_agrees(events_from([]), DIRECT_MAPPED, SPARSE_SWEEP)

    def test_no_members_is_empty(self):
        events = events_from([(0, 1), (16, 2)])
        assert family_counters(events, TINY_GEOMETRY, []) == []

    def test_no_members_on_empty_trace(self):
        assert family_counters(events_from([]), DIRECT_MAPPED, []) == []


class TestBatchableGate:
    def test_gate(self):
        assert batchable("baseline", {})
        assert batchable("baseline", {"page_size": 16, "same_line_skip": True})
        assert batchable("way-placement", {"wpa_size": 64, "hint_initial": True})
        assert not batchable("baseline", {"l0_size": 64})
        assert not batchable("way-placement", {"invalidation": "exact"})
        assert not batchable("way-memoization", {})
        assert not batchable("filter-cache", {"l0_size": 64})

    def test_non_batchable_member_raises(self):
        events = events_from([(0, 1)])
        with pytest.raises(SchemeError, match="not\\s+batchable"):
            family_counters(
                events, TINY_GEOMETRY, [BatchMember("way-memoization", {})]
            )

    def test_non_batchable_member_poisons_family(self):
        # One member without a family kernel rejects the whole family: no
        # partial result list that would misalign with the input members.
        events = events_from([(0, 1), (16, 2)])
        members = MIXED_FAMILY + [BatchMember("way-memoization", {})]
        with pytest.raises(SchemeError, match="not\\s+batchable"):
            family_counters(events, TINY_GEOMETRY, members)

    def test_wpa_base_rejected(self):
        events = events_from([(0, 1)])
        member = BatchMember(
            "way-placement", {"wpa_size": 64, "page_size": 16, "wpa_base": 64}
        )
        with pytest.raises(SchemeError, match="beginning"):
            family_counters(events, TINY_GEOMETRY, [member])

    def test_negative_wpa_rejected(self):
        events = events_from([(0, 1)])
        member = BatchMember("way-placement", {"wpa_size": -16, "page_size": 16})
        with pytest.raises(SchemeError):
            family_counters(events, TINY_GEOMETRY, [member])


def make_runner(**kwargs):
    kwargs.setdefault("eval_instructions", 8_000)
    kwargs.setdefault("profile_instructions", 4_000)
    return ExperimentRunner(cache_dir="off", **kwargs)


SWEEP_CELLS = [
    GridCell("crc", "baseline"),
    GridCell("crc", "way-placement", wpa_size=4 * KB),
    GridCell("crc", "way-placement", wpa_size=8 * KB),
    GridCell("crc", "way-placement", wpa_size=16 * KB),
]


class TestPlanner:
    def test_groups_by_benchmark_policy_and_geometry(self):
        runner = make_runner()
        cells = SWEEP_CELLS + [
            GridCell("sha", "way-placement", wpa_size=8 * KB),
            GridCell("crc", "way-memoization"),
        ]
        families, singles = plan_families(cells, runner._resolve_layout_policy)
        assert len(families) == 1
        family = families[0]
        assert family.benchmark == "crc"
        assert family.layout_policy is LayoutPolicy.WAY_PLACEMENT
        assert family.geometry == cells[1].machine.icache
        assert family.indices == (1, 2, 3)
        # baseline is alone in its (crc, ORIGINAL) group; the sha sweep
        # point is alone in its trace group; way-memoization has no kernel.
        assert singles == [0, 4, 5]

    def test_two_baselines_form_a_family(self):
        runner = make_runner()
        cells = [
            GridCell("crc", "baseline"),
            GridCell("crc", "baseline", same_line_skip=True),
        ]
        families, singles = plan_families(cells, runner._resolve_layout_policy)
        assert len(families) == 1 and families[0].indices == (0, 1)
        assert families[0].layout_policy is LayoutPolicy.ORIGINAL
        assert singles == []

    def test_invalid_cell_left_for_per_cell_diagnosis(self):
        runner = make_runner()
        # 1000B is not a multiple of the 1KB page size: scheme_options
        # raises, and the planner must leave the cell on the per-cell path
        # so the error surfaces with the usual supervision context.
        cells = SWEEP_CELLS + [GridCell("crc", "way-placement", wpa_size=1000)]
        families, singles = plan_families(cells, runner._resolve_layout_policy)
        assert families and families[0].indices == (1, 2, 3)
        assert 4 in singles


class TestFamilyExecution:
    def test_report_family_rejects_mixed_traces(self):
        runner = make_runner()
        with pytest.raises(ExperimentError, match="sharing"):
            runner.report_family(
                [
                    GridCell("crc", "way-placement", wpa_size=4 * KB),
                    GridCell("sha", "way-placement", wpa_size=4 * KB),
                ]
            )

    def test_default_runner_plans_families(self):
        # No engine argument: grids replay the WPA sweep as one family.
        runner = make_runner()
        reports = runner.run_grid(SWEEP_CELLS)
        assert runner.last_grid.families >= 1
        assert runner.last_grid.family_cells == 3

        reference = make_runner(engine="reference")
        reference_reports = reference.run_grid(SWEEP_CELLS)
        assert reference.last_grid.families == 0
        for cell, report, reference_report in zip(
            SWEEP_CELLS, reports, reference_reports
        ):
            assert report.counters == reference_report.counters, cell
            assert report.breakdown == reference_report.breakdown, cell
            assert report.cycles == reference_report.cycles, cell

    def test_family_failure_degrades_to_per_cell(self):
        runner = make_runner()
        rule = ChaosRule("family", "raise", match="crc", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            reports = runner.run_grid(SWEEP_CELLS)

        incidents = [f for f in runner.last_failures if f.site == "family"]
        assert incidents, "family fault left no FailureReport"
        incident = incidents[0]
        assert incident.recovered and incident.recovery == "per-cell"
        assert incident.benchmark == "crc"
        assert "3-cell family" in incident.cell
        assert "InjectedFault" in incident.causes[0]

        reference_reports = make_runner(engine="reference").run_grid(SWEEP_CELLS)
        for report, reference_report in zip(reports, reference_reports):
            assert report.counters == reference_report.counters

    def test_full_ladder_degrades_to_reference_engine(self):
        # The family fails, then every way-placement kernel trips the
        # sanitizer: members walk family -> per-cell -> reference schemes.
        runner = make_runner()
        rules = (
            ChaosRule("family", "raise", match="crc", times=-1),
            ChaosRule("kernel", "sanitizer", match="crc:way-placement", times=-1),
        )
        with chaos.active(ChaosConfig(seed=0, rules=rules)):
            reports = runner.run_grid(SWEEP_CELLS)

        rungs = [(f.site, f.recovery) for f in runner.last_failures]
        assert rungs.count(("family", "per-cell")) == 1
        assert rungs.count(("cell", "engine-fallback")) == 3
        assert all(f.recovered for f in runner.last_failures)

        reference_reports = make_runner(engine="reference").run_grid(SWEEP_CELLS)
        for report, reference_report in zip(reports, reference_reports):
            assert report.counters == reference_report.counters

    def test_families_per_geometry_match_reference(self):
        # A Figure 6 style grid: the same WPA sweep in two cache geometries
        # shares one trace but forms one family per geometry.
        small = XSCALE_BASELINE.with_icache(16 * KB, 4)
        cells = SWEEP_CELLS + [
            GridCell("crc", "way-placement", small, wpa_size=size * KB)
            for size in (4, 8, 16)
        ]
        runner = make_runner()
        reports = runner.run_grid(cells)
        assert runner.last_grid.families == 2
        assert runner.last_grid.family_cells == 6

        reference_reports = make_runner(engine="reference").run_grid(cells)
        for cell, report, reference_report in zip(cells, reports, reference_reports):
            assert report.counters == reference_report.counters, cell
            assert report.breakdown == reference_report.breakdown, cell
            assert report.cycles == reference_report.cycles, cell


def test_counters_are_plain_fetch_counters():
    # Downstream pricing treats family results exactly like per-cell ones;
    # a subclass or array-backed impostor would pickle differently.
    events = events_from([(0, 1), (16, 2)])
    results = family_counters(events, TINY_GEOMETRY, MIXED_FAMILY)
    assert all(type(counters) is FetchCounters for counters in results)
    for counters in results:
        for field in dataclasses.fields(FetchCounters):
            assert isinstance(getattr(counters, field.name), int), field.name
