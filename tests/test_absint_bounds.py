"""Static counter bounds: every engine tier stays inside the bracket.

:func:`repro.analysis.absint.bounds.footprint_bounds` claims that for
any replay of a given event stream, every :class:`FetchCounters` field
lies in ``[lower, upper]``.  The claim is checked against all three
engine tiers — the reference schemes, the vectorized kernels, and family
replay — on Hypothesis-generated streams over an adversarial option
grid, plus:

* **exactness** on structurally eviction-free (budget-one) streams,
  where the interval must collapse to a point;
* **refinement**: proven never-hit lines raise the miss lower bound and
  the refined bracket still contains the real run;
* **gating**: :func:`bounds_for_options` declines (returns ``None``)
  exactly the configurations the model does not cover;
* **energy**: pricing the bracket endpoints brackets the priced energy
  of the real run (model monotonicity).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings

from repro.cache.access import FetchCounters
from repro.energy.cache_model import CacheEnergyModel
from repro.energy.params import EnergyParams
from repro.engine.family import BatchMember, family_counters
from repro.engine.kernels import fast_counters
from repro.analysis.absint import bounds_for_options, energy_bounds, footprint_bounds
from tests.scheme_helpers import TINY_GEOMETRY, events_from
from tests.test_engine_family import MIXED_FAMILY, reference_counters
from tests.test_schemes_equivalence import event_streams


def assert_bracketed(bounds, counters, label):
    violations = bounds.violations(counters)
    rendered = "; ".join(v.render() for v in violations)
    assert violations == [], f"{label}: {rendered}"


def bounds_for(member, events):
    bounds = bounds_for_options(
        member.scheme, events, TINY_GEOMETRY, dict(member.options)
    )
    assert bounds is not None, f"{member} should be modelled"
    return bounds


class TestBracketing:
    @given(event_streams())
    @settings(max_examples=50, deadline=None)
    def test_reference_and_vector_tiers(self, specs):
        events = events_from(specs)
        for member in MIXED_FAMILY:
            bounds = bounds_for(member, events)
            assert_bracketed(
                bounds, reference_counters(member, events), f"reference {member}"
            )
            kernel = fast_counters(
                member.scheme, events, TINY_GEOMETRY, **dict(member.options)
            )
            assert_bracketed(bounds, kernel, f"vector {member}")

    @given(event_streams())
    @settings(max_examples=50, deadline=None)
    def test_family_tier(self, specs):
        events = events_from(specs)
        family = family_counters(events, TINY_GEOMETRY, MIXED_FAMILY)
        for member, counters in zip(MIXED_FAMILY, family):
            bounds = bounds_for(member, events)
            assert_bracketed(bounds, counters, f"family {member}")

    @given(event_streams())
    @settings(max_examples=50, deadline=None)
    def test_bracket_is_ordered(self, specs):
        events = events_from(specs)
        for member in MIXED_FAMILY:
            bounds = bounds_for(member, events)
            for field in dataclasses.fields(FetchCounters):
                low = getattr(bounds.lower, field.name)
                high = getattr(bounds.upper, field.name)
                assert 0 <= low <= high, f"{field.name} bracket inverted"


class TestExactness:
    def test_budget_one_stream_collapses_to_a_point(self):
        # Four distinct lines of one set in a 4-way cache: structurally
        # eviction-free, so hits/misses/fills/evictions are all exact.
        specs = [(0, 1), (64, 1), (128, 1), (192, 1), (0, 2), (128, 1)]
        events = events_from(specs)
        bounds = footprint_bounds("baseline", events, TINY_GEOMETRY, page_size=16)
        assert bounds.lower == bounds.upper
        assert bounds.lower.misses == 4
        assert bounds.lower.hits == len(specs) - 4
        assert bounds.lower.evictions == 0
        assert_bracketed(
            bounds,
            reference_counters(BatchMember("baseline", {"page_size": 16}), events),
            "baseline budget-one",
        )

    def test_conflicted_stream_keeps_a_real_interval(self):
        # Five tags of one set cycled twice: evictions are unavoidable but
        # their exact count depends on replacement order — a true interval.
        specs = [(tag * 64, 1) for tag in range(5)] * 2
        events = events_from(specs)
        bounds = footprint_bounds("baseline", events, TINY_GEOMETRY, page_size=16)
        assert bounds.lower.misses == 5
        assert bounds.upper.misses == len(specs)
        assert bounds.lower != bounds.upper
        assert_bracketed(
            bounds,
            reference_counters(BatchMember("baseline", {"page_size": 16}), events),
            "baseline conflicted",
        )


class TestNeverHitRefinement:
    #: 0 and 256 share (set, mandated way): the classic WPA ping-pong.
    THRASH = [(0, 1), (256, 1)] * 4

    def test_refinement_tightens_and_still_brackets(self):
        events = events_from(self.THRASH)
        kwargs = dict(wpa_size=512, page_size=16)
        plain = footprint_bounds("way-placement", events, TINY_GEOMETRY, **kwargs)
        refined = footprint_bounds(
            "way-placement",
            events,
            TINY_GEOMETRY,
            never_hit=frozenset({0, 256}),
            **kwargs,
        )
        assert refined.lower.misses > plain.lower.misses
        # Every access of a proven never-hit line is a miss: the refined
        # lower bound is the whole stream, meeting the upper bound.
        assert refined.lower.misses == len(self.THRASH)
        member = BatchMember("way-placement", dict(kwargs))
        actual = reference_counters(member, events)
        assert_bracketed(refined, actual, "refined thrash")
        assert actual.misses == len(self.THRASH)

    def test_unrelated_never_hit_lines_are_ignored(self):
        events = events_from(self.THRASH)
        bounds = footprint_bounds(
            "way-placement",
            events,
            TINY_GEOMETRY,
            wpa_size=512,
            page_size=16,
            never_hit=frozenset({4096}),  # not in the trace footprint
        )
        assert bounds.lower.misses == 2  # one per distinct line, as unrefined


class TestOptionGating:
    EVENTS = events_from([(0, 1), (64, 2)])

    def test_unmodelled_scheme_declines(self):
        assert (
            bounds_for_options("way-memoization", self.EVENTS, TINY_GEOMETRY, {})
            is None
        )

    def test_unknown_option_declines(self):
        assert (
            bounds_for_options(
                "baseline", self.EVENTS, TINY_GEOMETRY, {"l0_size": 64}
            )
            is None
        )

    def test_nonzero_wpa_base_declines(self):
        assert (
            bounds_for_options(
                "way-placement",
                self.EVENTS,
                TINY_GEOMETRY,
                {"wpa_size": 64, "wpa_base": 128},
            )
            is None
        )

    def test_modelled_options_accepted(self):
        options = {
            "wpa_size": 64,
            "page_size": 16,
            "itlb_entries": 2,
            "same_line_skip": False,
            "hint_initial": True,
        }
        bounds = bounds_for_options(
            "way-placement", self.EVENTS, TINY_GEOMETRY, options
        )
        assert bounds is not None
        member = BatchMember("way-placement", options)
        assert_bracketed(bounds, reference_counters(member, self.EVENTS), "gated")


def test_violations_flag_escaped_counters():
    events = events_from([(0, 1), (64, 1)])
    bounds = footprint_bounds("baseline", events, TINY_GEOMETRY, page_size=16)
    counters = reference_counters(BatchMember("baseline", {"page_size": 16}), events)
    assert bounds.violations(counters) == []
    counters.misses += 100
    violations = bounds.violations(counters)
    assert [v.field for v in violations] == ["misses"]
    assert "outside static bounds" in violations[0].render()


@given(event_streams())
@settings(max_examples=25, deadline=None)
def test_energy_bracket_contains_the_priced_run(specs):
    events = events_from(specs)
    params = EnergyParams()
    for member in MIXED_FAMILY:
        wayhint = member.scheme == "way-placement"
        model = CacheEnergyModel(TINY_GEOMETRY, params, wayhint=wayhint)
        bounds = bounds_for(member, events)
        low, high = energy_bounds(bounds, model)
        actual = model.energy(reference_counters(member, events))
        assert low.icache_pj <= actual.icache_pj <= high.icache_pj, member
