"""Tests for the deterministic fault-injection (chaos) harness."""

import errno

import pytest

from repro.errors import ResilienceError, SanitizerError
from repro.resilience import chaos
from repro.resilience.chaos import (
    ChaosConfig,
    ChaosRule,
    InjectedFault,
    chaos_point,
    corrupt_file,
)


def one_rule(**kwargs):
    kwargs.setdefault("site", "cell")
    kwargs.setdefault("fault", "raise")
    return ChaosConfig(seed=0, rules=(ChaosRule(**kwargs),))


class TestValidation:
    def test_unknown_site_and_fault_are_rejected(self):
        with pytest.raises(ResilienceError, match="unknown chaos site"):
            ChaosRule(site="nowhere", fault="raise").validate()
        with pytest.raises(ResilienceError, match="unknown chaos fault"):
            ChaosRule(site="cell", fault="meteor").validate()

    def test_probability_and_delay_bounds(self):
        with pytest.raises(ResilienceError, match="probability"):
            ChaosRule(site="cell", fault="raise", probability=1.5).validate()
        with pytest.raises(ResilienceError, match="delay_s"):
            ChaosRule(site="cell", fault="hang", delay_s=-1).validate()


class TestChaosPoint:
    def test_noop_without_installed_config(self):
        chaos.uninstall()
        chaos_point("cell", "anything")  # must not raise

    def test_raise_fault(self):
        with chaos.active(one_rule(fault="raise")):
            with pytest.raises(InjectedFault):
                chaos_point("cell", "crc:baseline")

    def test_environment_faults_carry_errno(self):
        with chaos.active(one_rule(fault="enospc")):
            with pytest.raises(OSError) as info:
                chaos_point("cell", "k")
        assert info.value.errno == errno.ENOSPC
        with chaos.active(one_rule(fault="eacces")):
            with pytest.raises(OSError) as info:
                chaos_point("cell", "k")
        assert info.value.errno == errno.EACCES

    def test_sanitizer_fault(self):
        with chaos.active(one_rule(fault="sanitizer")):
            with pytest.raises(SanitizerError):
                chaos_point("cell", "k")

    def test_times_budget_is_per_rule(self):
        with chaos.active(one_rule(times=2)):
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    chaos_point("cell", "k")
            chaos_point("cell", "k")  # budget spent: no-op

    def test_zero_times_disables_and_negative_is_unlimited(self):
        with chaos.active(one_rule(times=0)):
            chaos_point("cell", "k")
        with chaos.active(one_rule(times=-1)):
            for _ in range(5):
                with pytest.raises(InjectedFault):
                    chaos_point("cell", "k")

    def test_match_filters_by_substring(self):
        with chaos.active(one_rule(match="way-placement", times=-1)):
            chaos_point("cell", "crc:baseline:wpa0")
            with pytest.raises(InjectedFault):
                chaos_point("cell", "crc:way-placement:wpa8192")

    def test_site_must_match(self):
        with chaos.active(one_rule(site="kernel", times=-1)):
            chaos_point("cell", "k")
            with pytest.raises(InjectedFault):
                chaos_point("kernel", "k")

    def test_probability_draws_are_deterministic(self):
        def fires(seed):
            outcomes = []
            with chaos.active(
                ChaosConfig(
                    seed=seed,
                    rules=(
                        ChaosRule("cell", "raise", times=-1, probability=0.5),
                    ),
                )
            ):
                for index in range(20):
                    try:
                        chaos_point("cell", f"key{index}")
                        outcomes.append(False)
                    except InjectedFault:
                        outcomes.append(True)
            return outcomes

        first = fires(seed=11)
        assert fires(seed=11) == first
        assert any(first) and not all(first)
        assert fires(seed=12) != first

    def test_active_context_restores_previous_state(self):
        chaos.uninstall()
        with chaos.active(one_rule()):
            assert chaos.current() is not None
        assert chaos.current() is None


class TestCorruptFile:
    def test_truncates_matching_file(self, tmp_path):
        victim = tmp_path / "entry.npz"
        victim.write_bytes(b"x" * 1000)
        config = ChaosConfig(
            seed=0, rules=(ChaosRule("store.save", "truncate", match="entry"),)
        )
        with chaos.active(config):
            corrupt_file("store.save", "entry.npz", victim)
        assert victim.stat().st_size == 500

    def test_noop_without_matching_rule(self, tmp_path):
        victim = tmp_path / "entry.npz"
        victim.write_bytes(b"x" * 1000)
        with chaos.active(one_rule(site="store.save", fault="truncate", match="zzz")):
            corrupt_file("store.save", "entry.npz", victim)
        assert victim.stat().st_size == 1000
