"""Sanitizer-vs-engine agreement: the fast kernels obey every invariant.

Every bundled workload's evaluation trace replays through the vectorized
``engine.kernels`` and then through the full post-hoc sanitizer array
checks — zero violations expected — and through family replay: a WPA
sweep family must come back from ``family_counters`` bit-identical to
the per-cell kernels on every workload — and every tier's counters must
sit inside the abstract interpretation's static bounds (the S008
invariant).  One session-scoped
runner serves all parametrized cases so profiling, layout, and trace
generation happen once per benchmark.
"""

from __future__ import annotations

import pytest

from repro.engine.family import BatchMember, family_counters
from repro.engine.kernels import fast_counters, way_placement_counters
from repro.errors import SanitizerError
from repro.experiments.runner import ExperimentRunner
from repro.layout.placement import LayoutPolicy
from repro.schemes import BaselineScheme, WayPlacementScheme
from repro.sim.machine import XSCALE_BASELINE
from repro.utils.bitops import align_up
from repro.verify.sanitizer import SanitizerHook, sanitize_events
from repro.workloads.mibench import benchmark_names

MACHINE = XSCALE_BASELINE


@pytest.fixture(scope="session")
def agreement_runner():
    return ExperimentRunner(eval_instructions=20_000, profile_instructions=8_000)


def _fitted_wpa(runner, benchmark):
    layout = runner.layout(benchmark, LayoutPolicy.WAY_PLACEMENT)
    return min(
        MACHINE.icache.size_bytes,
        align_up(layout.end_address, MACHINE.page_size),
    )


@pytest.mark.parametrize("workload", benchmark_names())
def test_kernels_satisfy_every_invariant(agreement_runner, workload):
    events = agreement_runner.events(
        workload, LayoutPolicy.WAY_PLACEMENT, MACHINE.icache.line_size
    )
    violations = sanitize_events(
        events,
        MACHINE.icache,
        _fitted_wpa(agreement_runner, workload),
        itlb_entries=MACHINE.itlb_entries,
        page_size=MACHINE.page_size,
        energy_params=agreement_runner.energy_params,
        organisation=agreement_runner.organisation,
    )
    assert violations == []


@pytest.mark.parametrize("workload", benchmark_names())
def test_family_tiers_agree_with_the_kernels(agreement_runner, workload):
    """family replay ≡ per-cell kernels on every bundled workload's trace."""
    events = agreement_runner.events(
        workload, LayoutPolicy.WAY_PLACEMENT, MACHINE.icache.line_size
    )
    fitted = _fitted_wpa(agreement_runner, workload)
    shared = {
        "page_size": MACHINE.page_size,
        "itlb_entries": MACHINE.itlb_entries,
    }
    members = [
        BatchMember("baseline", dict(shared)),
        BatchMember("way-placement", {"wpa_size": 4096, **shared}),
        BatchMember(
            "way-placement",
            {"wpa_size": align_up(max(fitted // 2, 4096), MACHINE.page_size), **shared},
        ),
        BatchMember("way-placement", {"wpa_size": fitted, **shared}),
    ]
    family = family_counters(events, MACHINE.icache, members)
    for member, counters in zip(members, family):
        kernel = fast_counters(
            member.scheme, events, MACHINE.icache, **dict(member.options)
        )
        assert counters == kernel, f"family != kernel for {member} on {workload}"


@pytest.mark.parametrize("workload", benchmark_names())
def test_static_bounds_bracket_every_engine_tier(agreement_runner, workload):
    """The absint counter bounds contain all three tiers' replay results.

    This is the S008 invariant exercised explicitly: for the baseline and
    the fitted way-placement configuration, every FetchCounters field from
    the reference schemes, the vectorized kernels, and family replay must
    land inside the static ``[lower, upper]`` bracket.
    """
    from repro.analysis.absint import bounds_for_options

    events = agreement_runner.events(
        workload, LayoutPolicy.WAY_PLACEMENT, MACHINE.icache.line_size
    )
    shared = {
        "page_size": MACHINE.page_size,
        "itlb_entries": MACHINE.itlb_entries,
    }
    members = [
        BatchMember("baseline", dict(shared)),
        BatchMember(
            "way-placement",
            {"wpa_size": _fitted_wpa(agreement_runner, workload), **shared},
        ),
    ]
    family = family_counters(events, MACHINE.icache, members)
    for member, family_result in zip(members, family):
        options = dict(member.options)
        bounds = bounds_for_options(member.scheme, events, MACHINE.icache, options)
        assert bounds is not None, f"{member} must be modelled"
        scheme_cls = (
            BaselineScheme if member.scheme == "baseline" else WayPlacementScheme
        )
        tiers = {
            "reference": scheme_cls(MACHINE.icache, **options).run(events),
            "fast": fast_counters(member.scheme, events, MACHINE.icache, **options),
            "family": family_result,
        }
        for tier, counters in tiers.items():
            violations = bounds.violations(counters)
            rendered = "; ".join(v.render() for v in violations)
            assert violations == [], f"{tier} escapes bounds on {workload}: {rendered}"


def test_hooked_reference_schemes_match_the_kernels(agreement_runner):
    events = agreement_runner.events(
        "crc", LayoutPolicy.WAY_PLACEMENT, MACHINE.icache.line_size
    )
    wpa = _fitted_wpa(agreement_runner, "crc")
    hook = SanitizerHook(
        WayPlacementScheme(
            MACHINE.icache,
            wpa_size=wpa,
            itlb_entries=MACHINE.itlb_entries,
            page_size=MACHINE.page_size,
        )
    )
    reference = hook.run(events)
    kernel = way_placement_counters(
        events,
        MACHINE.icache,
        wpa_size=wpa,
        itlb_entries=MACHINE.itlb_entries,
        page_size=MACHINE.page_size,
    )
    assert hook.violations == []
    assert reference == kernel


def test_hooked_baseline_matches_the_plain_run(agreement_runner):
    events = agreement_runner.events(
        "crc", LayoutPolicy.WAY_PLACEMENT, MACHINE.icache.line_size
    )
    hooked = SanitizerHook(
        BaselineScheme(
            MACHINE.icache,
            itlb_entries=MACHINE.itlb_entries,
            page_size=MACHINE.page_size,
        )
    ).run(events)
    plain = BaselineScheme(
        MACHINE.icache,
        itlb_entries=MACHINE.itlb_entries,
        page_size=MACHINE.page_size,
    ).run(events)
    assert hooked == plain


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("scheme", ["baseline", "way-placement"])
def test_sanitized_runner_reports_cleanly(engine, scheme):
    runner = ExperimentRunner(
        eval_instructions=20_000,
        profile_instructions=8_000,
        engine=engine,
        sanitize=True,
    )
    report = runner.report(
        "crc",
        scheme,
        MACHINE,
        wpa_size=4096 if scheme == "way-placement" else 0,
    )
    assert report.counters.fetches > 0


def test_sanitized_runner_spawn_spec_carries_the_flag():
    runner = ExperimentRunner(
        eval_instructions=20_000, profile_instructions=8_000, sanitize=True
    )
    assert runner.spawn_spec()["sanitize"] is True


def test_sanitizer_error_surfaces_through_the_simulator(monkeypatch):
    # A fault injected into the kernel output propagates as SanitizerError
    # rather than silently pricing corrupt numbers.
    from repro.sim import simulator as sim_module
    from repro.sim.simulator import Simulator

    runner = ExperimentRunner(eval_instructions=20_000, profile_instructions=8_000)
    events = runner.events("crc", LayoutPolicy.WAY_PLACEMENT, MACHINE.icache.line_size)
    clean = Simulator(MACHINE, runner.energy_params, sanitize=True)
    clean.run_events(events, "way-placement", wpa_size=4096)  # must not raise

    real = sim_module.fast_counters

    def tampered(scheme, trace, geometry, **options):
        counters = real(scheme, trace, geometry, **options)
        counters.hint_false_positives += 1
        return counters

    monkeypatch.setattr(sim_module, "fast_counters", tampered)
    bad = Simulator(MACHINE, runner.energy_params, sanitize=True)
    with pytest.raises(SanitizerError):
        bad.run_events(events, "way-placement", wpa_size=4096)
