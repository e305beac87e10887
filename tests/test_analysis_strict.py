"""Strict-mode pre-flight: the runner must refuse bad configurations."""

from __future__ import annotations

import dataclasses

import pytest

from repro.energy.params import EnergyParams
from repro.errors import AnalysisError
from repro.experiments.runner import ExperimentRunner
from repro.sim.machine import XSCALE_BASELINE

FAST = dict(eval_instructions=20_000, profile_instructions=8_000)


def test_strict_runner_accepts_good_config():
    runner = ExperimentRunner(strict=True, **FAST)
    report = runner.report("crc", "way-placement", wpa_size=2048)
    assert report.cycles > 0


def test_strict_runner_rejects_unaligned_wpa():
    runner = ExperimentRunner(strict=True, **FAST)
    with pytest.raises(AnalysisError, match="L004") as excinfo:
        runner.report("crc", "way-placement", wpa_size=1536)
    assert any(d.rule_id == "L004" for d in excinfo.value.diagnostics)


def test_strict_runner_rejects_nonconserving_energy():
    params = EnergyParams(way_mux_pj=1e6)
    runner = ExperimentRunner(strict=True, energy_params=params, **FAST)
    with pytest.raises(AnalysisError, match="C001"):
        runner.report("crc", "baseline")


def test_failed_preflight_is_not_memoised():
    runner = ExperimentRunner(strict=True, **FAST)
    for _ in range(2):  # failure must not be cached as a pass
        with pytest.raises(AnalysisError):
            runner.report("crc", "way-placement", wpa_size=1536)
    assert runner._preflighted == set()


def test_non_strict_runner_does_not_preflight():
    # The same energy params that strict mode refuses (C001) simulate
    # fine on a default runner: the pre-flight must be opt-in.
    params = EnergyParams(way_mux_pj=1e6)
    runner = ExperimentRunner(strict=False, energy_params=params, **FAST)
    assert runner.strict is False
    report = runner.report("crc", "baseline")
    assert report.cycles > 0
    assert runner._preflighted == set()


def test_preflight_is_memoised():
    runner = ExperimentRunner(strict=True, **FAST)
    runner.preflight("crc", runner._resolve_layout_policy("way-placement", None))
    before = set(runner._preflighted)
    runner.preflight("crc", runner._resolve_layout_policy("way-placement", None))
    assert set(runner._preflighted) == before and len(before) == 1


def test_preflight_is_keyed_by_page_size():
    # A 1KB WPA passes at 1KB pages, but is not a multiple of 2KB pages
    # (L004): a pass memoised at one page size must not cover another.
    runner = ExperimentRunner(strict=True, **FAST)
    runner.report("crc", "way-placement", wpa_size=1024)
    large_pages = dataclasses.replace(XSCALE_BASELINE, page_size=2048)
    with pytest.raises(AnalysisError, match="L004") as excinfo:
        runner.report("crc", "way-placement", large_pages, wpa_size=1024)
    assert any(d.rule_id == "L004" for d in excinfo.value.diagnostics)


def test_spawn_spec_carries_strict_flag():
    assert ExperimentRunner(strict=True, **FAST).spawn_spec()["strict"] is True
    assert ExperimentRunner(strict=False, **FAST).spawn_spec()["strict"] is False
