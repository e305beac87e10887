"""Tests for the ``repro verify`` subcommand."""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.verify.certify as certify
from repro.analysis.absint import BoundsViolation
from repro.cli import main

FAST = ["--eval-instructions", "20000", "--profile-instructions", "8000"]


def test_verify_clean_benchmark(capsys):
    assert main(["verify", "crc", *FAST]) == 0
    captured = capsys.readouterr()
    assert "certified" in captured.out
    assert "1/1 workload(s) certified" in captured.out
    # Wall time is recorded on stderr, keeping stdout deterministic.
    assert "verified 1 workload(s) in" in captured.err


def test_verify_json_payload(capsys):
    assert main(["verify", "crc", "--format", "json", *FAST]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"] == {"certified": 1, "failed": 0, "total": 1}
    certificate = payload["certificates"][0]
    assert certificate["benchmark"] == "crc"
    assert certificate["ok"] is True
    assert certificate["wpa_proof"]["holds"] is True
    assert certificate["sanitized"] is True
    assert certificate["sanitizer_violations"] == []


def test_verify_json_output_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        assert main(["verify", "crc", "sha", "--format", "json", *FAST]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_verify_oversized_wpa_fails(capsys):
    # 64KB WPA on a 32KB cache: the injectivity proof must fail.
    assert main(["verify", "crc", "--wpa-kb", "64", *FAST]) == 2
    out = capsys.readouterr().out
    assert "V005" in out
    assert "FAILED" in out


def test_verify_unaligned_wpa_fails(capsys):
    assert main(["verify", "crc", "--wpa-kb", "1", "--page-kb", "2", *FAST]) == 2
    out = capsys.readouterr().out
    assert "V006" in out


def test_verify_page_size_reaches_every_layer(capsys):
    # sha's binary ends 7KB in: at 2KB pages its fitted WPA is 8KB, in
    # the certificate and in the replayed way-placement entry alike.
    assert main(["verify", "sha", "--page-kb", "2", "--format", "json", *FAST]) == 0
    (certificate,) = json.loads(capsys.readouterr().out)["certificates"]
    assert certificate["wpa_size"] % 2048 == 0
    for config in certificate["configs"]:
        assert config["wpa_size"] % 2048 == 0
    (way_placement,) = [
        c for c in certificate["configs"] if c["scheme"] == "way-placement"
    ]
    assert way_placement["wpa_size"] == certificate["wpa_size"]


def test_verify_page_larger_than_the_cache_fails(capsys):
    # No WPA within the 32KB cache is a whole number of 64KB pages, so the
    # way-placement entry cannot be replayed and the certificate fails.
    assert main(["verify", "crc", "--page-kb", "64", *FAST]) == 2
    out = capsys.readouterr().out
    assert "FAILED" in out and "configs=1/2" in out
    assert "L004" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "crc"],
        ["analyze", "--interference"],
        ["verify", "--all-workloads"],
        ["lint", "crc"],
    ],
)
def test_removed_commands_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, *FAST])
    assert excinfo.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_verify_unknown_benchmark_errors(capsys):
    assert main(["verify", "no-such-benchmark", *FAST]) == 1
    assert "unknown benchmarks" in capsys.readouterr().err


def test_verify_select_restricts_rules(capsys):
    # Restricting to program rules still runs the proof and sanitizer, so
    # a bad WPA fails via the proof even when V rules are deselected.
    assert main(["verify", "crc", "--select", "P", "--wpa-kb", "64", *FAST]) == 2
    out = capsys.readouterr().out
    assert "V005" not in out  # the rule was deselected...
    assert "proof=FAILS" in out  # ...but the proof still carries the verdict


def test_verify_ignore_drops_rules(capsys):
    # Ignoring the rule that catches an oversized WPA removes it from the
    # diagnostics; the proof still fails the workload.
    assert main(["verify", "crc", "--ignore", "V", "--wpa-kb", "64", *FAST]) == 2
    out = capsys.readouterr().out
    assert "V005" not in out
    assert "proof=FAILS" in out


def test_verify_unknown_selector_errors(capsys):
    assert main(["verify", "crc", "--select", "Z", *FAST]) == 1
    assert "matches no rule" in capsys.readouterr().err


def test_verify_text_lists_warnings(capsys):
    # The original layout leaves the hot code where it falls (L003): a
    # warning does not fail the workload, but the text verdict shows it
    # with its hint indented under it.
    assert main(["verify", "crc", "--layout", "original", *FAST]) == 0
    out = capsys.readouterr().out
    assert "diagnostics=1" in out
    assert "L003 warning" in out
    assert "\n        hint: " in out
    assert "1/1 workload(s) certified" in out


def test_verify_text_counts_configs(capsys):
    assert main(["verify", "crc", *FAST]) == 0
    out = capsys.readouterr().out
    assert "configs=2/2" in out
    assert "1/1 workload(s) certified" in out


def test_verify_json_configs_bracket_the_engine(capsys):
    outputs = []
    for _ in range(2):
        assert main(["verify", "crc", "bitcount", "--format", "json", *FAST]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    payload = json.loads(outputs[0])
    assert payload["summary"] == {"certified": 2, "failed": 0, "total": 2}
    for certificate in payload["certificates"]:
        assert certificate["ok"] is True
        order = [(c["scheme"], c["layout"]) for c in certificate["configs"]]
        assert order == [
            ("baseline", "original"),
            ("way-placement", "way-placement"),
        ]
        for config in certificate["configs"]:
            assert config["ok"] is True
            assert (config["wpa_size"] == 0) == (config["scheme"] == "baseline")
            absint = config["absint"]
            assert absint["bounds_hold"] is True
            assert absint["violations"] == []
            assert absint["fixpoint"]["converged"] is True
            low, high = absint["energy_bracket_pj"]
            assert low <= absint["energy_pj"] <= high
            for field, (lower, upper) in absint["bounds"].items():
                assert lower <= upper, field


def test_verify_crc_conflict_replay_matches(capsys):
    assert main(["verify", "crc", "--format", "json", *FAST]) == 0
    (certificate,) = json.loads(capsys.readouterr().out)["certificates"]
    for config in certificate["configs"]:
        interference = config["interference"]
        assert interference["ok"] is True
        assert interference["replay"]["misses_match"] is True
        assert interference["violations"] == {}
        assert set(interference["trace_certified_sets"]) <= set(
            range(interference["sets"])
        )


def test_verify_tampered_bounds_exit_code(capsys, monkeypatch):
    real = certify._certify_config

    def tampered(*args, **kwargs):
        config = real(*args, **kwargs)
        if config.scheme != "baseline":
            return config
        return dataclasses.replace(
            config, bounds_violations=(BoundsViolation("misses", 10**9, 0, 1),)
        )

    monkeypatch.setattr(certify, "_certify_config", tampered)
    assert main(["verify", "crc", *FAST]) == 2
    out = capsys.readouterr().out
    assert "FAILED" in out and "configs=1/2" in out
    assert (
        "baseline/original: misses = 1000000000 outside static bounds [0, 1]"
        in out
    )


def test_verify_tampered_replay_exit_code(capsys, monkeypatch):
    real = certify.conflict_replay

    def tampered(events, geometry, wpa_size=0):
        replay = real(events, geometry, wpa_size)
        return dataclasses.replace(replay, total_misses=replay.total_misses + 1)

    monkeypatch.setattr(certify, "conflict_replay", tampered)
    assert main(["verify", "crc", *FAST]) == 2
    out = capsys.readouterr().out
    assert "FAILED" in out and "configs=0/2" in out
    assert "way-placement/way-placement: replay misses" in out

    assert main(["verify", "crc", "--format", "json", *FAST]) == 2
    (certificate,) = json.loads(capsys.readouterr().out)["certificates"]
    assert certificate["ok"] is False
    # the sanitizer's own replay is untouched: only the entries fail
    assert certificate["sanitizer_violations"] == []
    for config in certificate["configs"]:
        assert config["ok"] is False
        assert config["absint"]["bounds_hold"] is True
        replay = config["interference"]["replay"]
        assert replay["misses_match"] is False
        assert replay["total_misses"] == replay["measured_misses"] + 1


def test_certificate_runs_each_analysis_once(monkeypatch):
    import repro.analysis.absint.analysis as absint_analysis
    import repro.analysis.interference.graph as interference_graph
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(eval_instructions=20_000, profile_instructions=8_000)
    calls = {"fixpoint": 0, "graph": 0}

    def counted(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        return wrapper

    fixpoint = counted("fixpoint", absint_analysis.analyze_cache)
    monkeypatch.setattr(absint_analysis, "analyze_cache", fixpoint)
    monkeypatch.setattr(certify, "analyze_cache", fixpoint)
    monkeypatch.setattr(
        interference_graph,
        "build_interference_graph",
        counted("graph", interference_graph.build_interference_graph),
    )
    assert certify.certify_workload(runner, "crc").ok
    # One of each per configuration: the profile-chained entry reuses what
    # the A and I rules computed on the certificate's own context.
    assert calls == {"fixpoint": 2, "graph": 2}
