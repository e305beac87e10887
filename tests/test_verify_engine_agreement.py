"""Sanitizer-vs-engine agreement: the fast kernels obey every invariant.

Every bundled workload's evaluation trace replays through the vectorized
``engine.kernels`` and then through the full post-hoc sanitizer array
checks — zero violations expected; a WPA sweep's per-cell kernel
counters must come back bit-identical to the reference schemes on every
workload, and Figure 6's own cells on two workloads at each of its nine
cache geometries; and both tiers' counters must sit inside the abstract
interpretation's static bounds (the S008 invariant).  One session-scoped
runner serves all parametrized cases so profiling, layout, and trace
generation happen once per benchmark.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.engine.kernels import fast_counters, way_placement_counters
from repro.errors import SanitizerError
from repro.experiments.figures import (
    FIGURE6_CACHE_SIZES,
    FIGURE6_WAYS,
    FIGURE6_WPA_SIZES,
)
from repro.experiments.runner import ExperimentRunner
from repro.layout.placement import LayoutPolicy
from repro.schemes import BaselineScheme, WayPlacementScheme
from repro.schemes.base import make_scheme
from repro.sim.machine import XSCALE_BASELINE
from repro.sim.simulator import scheme_options
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


def _scheme_class(scheme):
    return BaselineScheme if scheme == "baseline" else WayPlacementScheme


@pytest.mark.parametrize("workload", benchmark_names())
def test_kernels_agree_with_the_reference_schemes(agreement_runner, workload):
    """per-cell kernels ≡ reference schemes over a WPA sweep, every workload."""
    events = agreement_runner.events(
        workload, LayoutPolicy.WAY_PLACEMENT, MACHINE.icache.line_size
    )
    fitted = _fitted_wpa(agreement_runner, workload)
    shared = {
        "page_size": MACHINE.page_size,
        "itlb_entries": MACHINE.itlb_entries,
    }
    configs = [
        ("baseline", dict(shared)),
        ("way-placement", {"wpa_size": 4096, **shared}),
        (
            "way-placement",
            {"wpa_size": align_up(max(fitted // 2, 4096), MACHINE.page_size), **shared},
        ),
        ("way-placement", {"wpa_size": fitted, **shared}),
    ]
    for scheme, options in configs:
        kernel = fast_counters(scheme, events, MACHINE.icache, **options)
        reference = _scheme_class(scheme)(MACHINE.icache, **options).run(events)
        assert kernel == reference, f"{scheme} {options} diverges on {workload}"


# At this budget these two evict, with both mandated-way and round-robin
# fills, in every way-placement cell of Figure 6; smaller footprints such as
# crc's and sha's never evict at any of its geometries.
@pytest.mark.parametrize("workload", ["cjpeg", "tiffdither"])
def test_kernels_agree_on_the_figure6_geometries(agreement_runner, workload):
    """Figure 6's cells — baseline on the original layout, way-placement at
    each Figure 6 WPA size on the profile-chained layout — replay
    field-for-field like the reference schemes at all nine geometries."""
    cells = [("baseline", LayoutPolicy.ORIGINAL, 0)] + [
        ("way-placement", LayoutPolicy.WAY_PLACEMENT, wpa) for wpa in FIGURE6_WPA_SIZES
    ]
    for size in FIGURE6_CACHE_SIZES:
        for ways in FIGURE6_WAYS:
            machine = XSCALE_BASELINE.with_icache(size, ways)
            for scheme, policy, wpa in cells:
                events = agreement_runner.events(
                    workload, policy, machine.icache.line_size
                )
                options = scheme_options(machine, scheme, wpa_size=wpa)
                kernel = fast_counters(scheme, events, machine.icache, **options)
                reference = make_scheme(scheme, machine.icache, **options).run(events)
                assert kernel is not None
                assert asdict(kernel) == asdict(reference), (
                    f"{scheme} {options} diverges on {workload} at "
                    f"{size // 1024}KB/{ways}-way"
                )


@pytest.mark.parametrize("workload", benchmark_names())
def test_static_bounds_bracket_every_engine_tier(agreement_runner, workload):
    """The absint counter bounds contain both tiers' replay results.

    This is the S008 invariant exercised explicitly: for the baseline and
    the fitted way-placement configuration, every FetchCounters field from
    the reference schemes and the vectorized kernels must land inside the
    static ``[lower, upper]`` bracket.
    """
    from repro.analysis.absint import bounds_for_options

    events = agreement_runner.events(
        workload, LayoutPolicy.WAY_PLACEMENT, MACHINE.icache.line_size
    )
    shared = {
        "page_size": MACHINE.page_size,
        "itlb_entries": MACHINE.itlb_entries,
    }
    configs = [
        ("baseline", dict(shared)),
        (
            "way-placement",
            {"wpa_size": _fitted_wpa(agreement_runner, workload), **shared},
        ),
    ]
    for scheme, options in configs:
        bounds = bounds_for_options(scheme, events, MACHINE.icache, options)
        assert bounds is not None, f"{scheme} {options} must be modelled"
        tiers = {
            "reference": _scheme_class(scheme)(MACHINE.icache, **options).run(events),
            "fast": fast_counters(scheme, events, MACHINE.icache, **options),
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
