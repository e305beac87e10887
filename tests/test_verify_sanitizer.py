"""Seeded-fault tests for the runtime sanitizer.

Every ``S###`` invariant gets two tests: the clean path (a real replay
passes) and a corrupted path (a deliberately injected fault makes exactly
that invariant fire).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.energy.cache_model import CacheEnergyModel
from repro.energy.params import EnergyParams
from repro.engine.kernels import baseline_counters, way_placement_counters
from repro.errors import SanitizerError, SchemeError
from repro.experiments.runner import ExperimentRunner
from repro.layout.placement import LayoutPolicy
from repro.schemes import BaselineScheme, FetchScheme, WayPlacementScheme
from repro.sim.machine import XSCALE_BASELINE
from repro.trace.events import LineEventTrace
from repro.verify.sanitizer import (
    SANITIZER_INVARIANTS,
    SanitizerHook,
    check_counters,
    check_differential,
    check_energy,
    check_hint_inert,
    check_scheme_state,
    check_wayhint,
    raise_if_violations,
    sanitize_counters,
    sanitize_events,
)

GEOMETRY = XSCALE_BASELINE.icache
WPA = 4 * 1024


@pytest.fixture(scope="module")
def events():
    runner = ExperimentRunner(eval_instructions=20_000, profile_instructions=8_000)
    return runner.events("crc", LayoutPolicy.WAY_PLACEMENT, GEOMETRY.line_size)


@pytest.fixture(scope="module")
def wp_counters(events):
    return way_placement_counters(events, GEOMETRY, wpa_size=WPA)


def _ids(violations):
    return {violation.invariant for violation in violations}


# ---------------------------------------------------------------------------
# S001 / S002 — counter consistency and the tag-check bound
# ---------------------------------------------------------------------------
def test_clean_counters_pass(events, wp_counters):
    assert check_counters(wp_counters, GEOMETRY, events=events) == []


def test_s001_fires_on_tampered_fetch_total(events, wp_counters):
    bad = dataclasses.replace(wp_counters, fetches=wp_counters.fetches + 1)
    violations = check_counters(bad, GEOMETRY, events=events)
    assert "S001" in _ids(violations)


def test_s001_fires_on_tampered_event_total(events, wp_counters):
    bad = dataclasses.replace(wp_counters, line_events=wp_counters.line_events - 1)
    assert "S001" in _ids(check_counters(bad, GEOMETRY, events=events))


def test_s002_fires_on_excess_precharge(events, wp_counters):
    bound = (
        GEOMETRY.ways * wp_counters.full_searches + wp_counters.single_way_searches
    )
    bad = dataclasses.replace(wp_counters, ways_precharged=bound + 1)
    assert "S002" in _ids(check_counters(bad, GEOMETRY, events=events))


def test_hint_inert_fires_on_baseline_with_hint_activity(events):
    base = baseline_counters(events, GEOMETRY)
    assert check_hint_inert(base) == []
    bad = dataclasses.replace(base, hint_false_positives=1)
    assert "S001" in _ids(check_hint_inert(bad))


# ---------------------------------------------------------------------------
# S003 — way-hint / I-TLB agreement
# ---------------------------------------------------------------------------
def test_clean_wayhint_agrees(events, wp_counters):
    assert check_wayhint(events, wp_counters, WPA) == []


@pytest.mark.parametrize(
    "field",
    [
        "hint_false_positives",
        "hint_false_negatives",
        "second_accesses",
        "single_way_searches",
        "full_searches",
    ],
)
def test_s003_fires_on_each_tampered_hint_counter(events, wp_counters, field):
    bad = dataclasses.replace(wp_counters, **{field: getattr(wp_counters, field) + 1})
    assert "S003" in _ids(check_wayhint(events, bad, WPA))


def test_s003_fires_on_a_wrong_wpa_claim(events):
    # Counters produced with no WPA cannot satisfy a 4KB-WPA contract.
    counters = way_placement_counters(events, GEOMETRY, wpa_size=0)
    assert "S003" in _ids(check_wayhint(events, counters, WPA))


def test_clean_wayhint_agrees_without_same_line_skip(events):
    counters = way_placement_counters(
        events, GEOMETRY, wpa_size=WPA, same_line_skip=False
    )
    assert check_wayhint(events, counters, WPA, same_line_skip=False) == []


# ---------------------------------------------------------------------------
# S004 — energy reconciliation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("organisation", ["cam", "ram"])
def test_clean_energy_reconciles(events, wp_counters, organisation):
    model = CacheEnergyModel(
        GEOMETRY, EnergyParams(), organisation=organisation, wayhint=True
    )
    assert check_energy(wp_counters, model.energy(wp_counters), model) == []


def test_s004_fires_on_tampered_component(events, wp_counters):
    model = CacheEnergyModel(GEOMETRY, EnergyParams(), wayhint=True)
    breakdown = model.energy(wp_counters)
    bad = dataclasses.replace(breakdown, tag_pj=breakdown.tag_pj + 1.0)
    violations = check_energy(wp_counters, bad, model)
    assert "S004" in _ids(violations)
    assert any("tag_pj" in v.message for v in violations)


# ---------------------------------------------------------------------------
# S005 — way-placement residency
# ---------------------------------------------------------------------------
def test_clean_scheme_state_passes(events):
    scheme = WayPlacementScheme(GEOMETRY, wpa_size=WPA)
    scheme.run(events)
    assert check_scheme_state(scheme) == []


def test_s005_fires_on_misplaced_wpa_line():
    scheme = WayPlacementScheme(GEOMETRY, wpa_size=WPA)
    address = 0  # inside the WPA
    wrong_way = (GEOMETRY.mandated_way(address) + 1) % GEOMETRY.ways
    scheme.cache.fill(
        GEOMETRY.set_index(address), GEOMETRY.tag(address), way=wrong_way
    )
    assert "S005" in _ids(check_scheme_state(scheme))


def test_s005_fires_on_duplicate_tags():
    scheme = BaselineScheme(GEOMETRY)
    scheme.cache.fill(0, 7, way=0)
    scheme.cache.fill(0, 7, way=1)
    assert "S005" in _ids(check_scheme_state(scheme))


# ---------------------------------------------------------------------------
# S006 — baseline differential
# ---------------------------------------------------------------------------
def test_clean_differential_holds(events):
    assert check_differential(events, GEOMETRY) == []


def test_s006_fires_on_misseeded_predictor(events):
    # Seeding the hint bit true with an empty WPA manufactures a false
    # positive on the first access, so the differential must catch it.
    violations = check_differential(events, GEOMETRY, hint_initial=True)
    assert "S006" in _ids(violations)


# ---------------------------------------------------------------------------
# S007 — segment monotonicity (via the hook)
# ---------------------------------------------------------------------------
class _DroppingScheme(FetchScheme):
    """Silently loses one event per segment."""

    name = "dropping"

    def _process(self, events: LineEventTrace) -> None:
        self.counters.line_events += max(events.num_events - 1, 0)
        self.counters.fetches += events.num_fetches
        self.counters.hits += max(events.num_events - 1, 0)


class _RegressingScheme(FetchScheme):
    """A counter that runs backwards."""

    name = "regressing"

    def _process(self, events: LineEventTrace) -> None:
        self.counters.line_events += events.num_events
        self.counters.fetches += events.num_fetches
        self.counters.hits += events.num_events
        self.counters.misses -= 1


def test_s007_fires_on_lost_events(events):
    hook = SanitizerHook(
        _DroppingScheme(GEOMETRY), segment_events=64, raise_on_violation=False
    )
    hook.run(events)
    assert "S007" in _ids(hook.violations)


def test_s007_fires_on_decreasing_counter(events):
    hook = SanitizerHook(
        _RegressingScheme(GEOMETRY), segment_events=64, raise_on_violation=False
    )
    hook.run(events)
    violations = [v for v in hook.violations if v.invariant == "S007"]
    assert any("decreased" in v.message for v in violations)


# ---------------------------------------------------------------------------
# The hook on real schemes
# ---------------------------------------------------------------------------
def test_hook_clean_on_way_placement(events):
    hook = SanitizerHook(WayPlacementScheme(GEOMETRY, wpa_size=WPA), segment_events=512)
    counters = hook.run(events)
    assert hook.violations == []
    assert hook.segments_checked >= 2
    # Supervision must not perturb the simulation.
    plain = WayPlacementScheme(GEOMETRY, wpa_size=WPA).run(events)
    assert counters == plain


def test_hook_clean_on_baseline(events):
    hook = SanitizerHook(BaselineScheme(GEOMETRY))
    hook.run(events)
    assert hook.violations == []


def test_hook_raises_by_default(events):
    hook = SanitizerHook(_DroppingScheme(GEOMETRY), segment_events=64)
    with pytest.raises(SanitizerError) as excinfo:
        hook.run(events)
    assert excinfo.value.violations


def test_hook_refuses_to_rerun(events):
    hook = SanitizerHook(WayPlacementScheme(GEOMETRY, wpa_size=WPA))
    hook.run(events)
    with pytest.raises(SchemeError, match="already ran"):
        hook.run(events)


# ---------------------------------------------------------------------------
# Dispatchers
# ---------------------------------------------------------------------------
def test_sanitize_counters_clean_for_both_fast_schemes(events, wp_counters):
    base = baseline_counters(events, GEOMETRY)
    assert sanitize_counters("baseline", events, GEOMETRY, base) == []
    assert (
        sanitize_counters(
            "way-placement", events, GEOMETRY, wp_counters, {"wpa_size": WPA}
        )
        == []
    )


def test_sanitize_counters_catches_cross_scheme_swap(events, wp_counters):
    # Feeding the way-placement counters through the baseline contract
    # (and vice versa) must not pass silently.
    base = baseline_counters(events, GEOMETRY)
    assert sanitize_counters("baseline", events, GEOMETRY, wp_counters) != []
    assert (
        sanitize_counters(
            "way-placement", events, GEOMETRY, base, {"wpa_size": WPA}
        )
        != []
    )


def test_sanitize_events_certifies_a_real_trace(events):
    violations = sanitize_events(
        events, GEOMETRY, WPA, energy_params=EnergyParams()
    )
    assert violations == []


def test_raise_if_violations_previews_and_attaches(events, wp_counters):
    bad = dataclasses.replace(wp_counters, fetches=wp_counters.fetches + 1)
    violations = check_counters(bad, GEOMETRY, events=events)
    with pytest.raises(SanitizerError) as excinfo:
        raise_if_violations(violations, "way-placement")
    assert excinfo.value.violations == violations
    assert "S001" in str(excinfo.value)


def test_invariant_catalog_is_closed():
    # Every violation any check can emit uses a catalogued invariant id.
    assert set(SANITIZER_INVARIANTS) == {
        "S001",
        "S002",
        "S003",
        "S004",
        "S005",
        "S006",
        "S007",
        "S008",
    }
