"""Tests for the ``repro verify`` subcommand."""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.analysis.absint.bounds as static_bounds
import repro.verify.certify as certify
from repro.cli import main
from repro.verify.sanitizer import SanitizerViolation

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


def test_verify_page_size_reaches_every_layer(capsys, monkeypatch):
    # sha's binary ends 7KB in: at 2KB pages its fitted WPA is 8KB, in the
    # certificate and in the sanitized replay alike.
    replays = []
    real = certify.sanitize_events

    def spy(events, geometry, wpa_size, **kwargs):
        replays.append((wpa_size, kwargs["page_size"]))
        return real(events, geometry, wpa_size, **kwargs)

    monkeypatch.setattr(certify, "sanitize_events", spy)
    assert main(["verify", "sha", "--page-kb", "2", "--format", "json", *FAST]) == 0
    (certificate,) = json.loads(capsys.readouterr().out)["certificates"]
    assert certificate["wpa_size"] % 2048 == 0
    assert replays == [(certificate["wpa_size"], 2048)]


def test_verify_page_larger_than_the_cache_fails(capsys):
    # No WPA within the 32KB cache is a whole number of 64KB pages, so L004
    # fires and the certificate fails.
    assert main(["verify", "crc", "--page-kb", "64", *FAST]) == 2
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "L004" in out


def test_verify_tampered_replay_exit_code(capsys, monkeypatch):
    # A sanitized replay that reports a violation fails the certificate.
    violation = SanitizerViolation("S001", "counter-consistency", "injected fault")
    monkeypatch.setattr(certify, "sanitize_events", lambda *a, **k: [violation])
    assert main(["verify", "crc", *FAST]) == 2
    out = capsys.readouterr().out
    assert "FAILED" in out and "sanitizer=1" in out
    assert "    S001 counter-consistency: injected fault" in out

    assert main(["verify", "crc", "--format", "json", *FAST]) == 2
    (certificate,) = json.loads(capsys.readouterr().out)["certificates"]
    assert certificate["ok"] is False
    assert certificate["sanitizer_violations"] == [
        {
            "invariant": "S001",
            "name": "counter-consistency",
            "message": "injected fault",
        }
    ]


def test_verify_tampered_bounds_exit_code(capsys, monkeypatch):
    # The sanitized replay checks both kernels against the static footprint
    # bounds (S008): a bracket the baseline cannot meet fails the certificate.
    real = static_bounds.bounds_for_options

    def tampered(scheme, events, geometry, options):
        bounds = real(scheme, events, geometry, options)
        if scheme != "baseline":
            return bounds
        return dataclasses.replace(
            bounds,
            lower=dataclasses.replace(bounds.lower, misses=0),
            upper=dataclasses.replace(bounds.upper, misses=1),
        )

    monkeypatch.setattr(static_bounds, "bounds_for_options", tampered)
    assert main(["verify", "crc", *FAST]) == 2
    out = capsys.readouterr().out
    assert "FAILED" in out and "sanitizer=1" in out
    (line,) = [line for line in out.splitlines() if "S008" in line]
    assert line.startswith("    S008 static-bounds-bracketing: baseline: misses = ")
    assert line.endswith(" outside static bounds [0, 1]")

    assert main(["verify", "crc", "--format", "json", *FAST]) == 2
    (certificate,) = json.loads(capsys.readouterr().out)["certificates"]
    assert certificate["ok"] is False
    assert [v["invariant"] for v in certificate["sanitizer_violations"]] == ["S008"]


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
