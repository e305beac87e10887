"""Static counter bounds: every engine tier stays inside the bracket.

:func:`repro.analysis.absint.bounds.footprint_bounds` claims that for
any replay of a given event stream, every :class:`FetchCounters` field
lies in ``[lower, upper]``.  The claim is checked against both engine
tiers — the reference schemes and the vectorized kernels — on
Hypothesis-generated streams over an adversarial option grid, plus:

* **exactness** on structurally eviction-free (budget-one) streams,
  where the interval must collapse to a point;
* **gating**: :func:`bounds_for_options` declines (returns ``None``)
  exactly the configurations the model does not cover;
* **energy**: pricing the bracket endpoints brackets the priced energy
  of the real run (model monotonicity).
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings

from repro.analysis.absint import bounds_for_options, energy_bounds, footprint_bounds
from repro.cache.access import FetchCounters
from repro.energy.cache_model import CacheEnergyModel
from repro.energy.params import EnergyParams
from repro.engine.kernels import fast_counters
from tests.scheme_helpers import (
    MIXED_CONFIGS,
    TINY_GEOMETRY,
    events_from,
    reference_counters,
)
from tests.test_schemes_equivalence import event_streams


def assert_bracketed(bounds, counters, label):
    violations = bounds.violations(counters)
    rendered = "; ".join(v.render() for v in violations)
    assert violations == [], f"{label}: {rendered}"


def bounds_for(scheme, options, events):
    bounds = bounds_for_options(scheme, events, TINY_GEOMETRY, dict(options))
    assert bounds is not None, f"{scheme} {options} should be modelled"
    return bounds


class TestBracketing:
    @given(event_streams())
    @settings(max_examples=50, deadline=None)
    def test_reference_and_vector_tiers(self, specs):
        events = events_from(specs)
        for scheme, options in MIXED_CONFIGS:
            bounds = bounds_for(scheme, options, events)
            assert_bracketed(
                bounds,
                reference_counters(scheme, options, events),
                f"reference {scheme} {options}",
            )
            kernel = fast_counters(scheme, events, TINY_GEOMETRY, **options)
            assert_bracketed(bounds, kernel, f"vector {scheme} {options}")

    @given(event_streams())
    @settings(max_examples=50, deadline=None)
    def test_bracket_is_ordered(self, specs):
        events = events_from(specs)
        for scheme, options in MIXED_CONFIGS:
            bounds = bounds_for(scheme, options, events)
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
            reference_counters("baseline", {"page_size": 16}, events),
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
            reference_counters("baseline", {"page_size": 16}, events),
            "baseline conflicted",
        )


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
        assert_bracketed(
            bounds, reference_counters("way-placement", options, self.EVENTS), "gated"
        )


def test_violations_flag_escaped_counters():
    events = events_from([(0, 1), (64, 1)])
    bounds = footprint_bounds("baseline", events, TINY_GEOMETRY, page_size=16)
    counters = reference_counters("baseline", {"page_size": 16}, events)
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
    for scheme, options in MIXED_CONFIGS:
        wayhint = scheme == "way-placement"
        model = CacheEnergyModel(TINY_GEOMETRY, params, wayhint=wayhint)
        bounds = bounds_for(scheme, options, events)
        low, high = energy_bounds(bounds, model)
        actual = model.energy(reference_counters(scheme, options, events))
        assert low.icache_pj <= actual.icache_pj <= high.icache_pj, (scheme, options)
