"""The bench regression gate: ``compare_snapshots`` and its CLI face.

The gate guards the engine speedup ratios in ``BENCH_engine.json``.
Policy under test: a guarded metric may improve or drift slightly, but
dropping more than the tolerance below the baseline fails; a metric
missing from the current snapshot fails (a silently skipped bench must
not pass); one missing from the baseline is reported and skipped.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.experiments.bench import (
    DEFAULT_BASELINE,
    GUARDED,
    compare_snapshots,
    load_metrics,
)


def _metrics(**overrides):
    """A full metrics block with every guarded field present."""
    base = {
        "grid.wpa_sweep_16": {"family_speedup": 4.0},
        "grid.wpa_sweep_256": {"family_speedup": 10.0},
    }
    for metric, fields in overrides.items():
        base[metric] = fields
    return base


class TestCompareSnapshots:
    def test_identical_snapshots_pass(self):
        comparison = compare_snapshots(_metrics(), _metrics())
        assert comparison.ok
        assert [v.status for v in comparison.verdicts] == ["ok"] * len(GUARDED)
        assert "bench regression gate passed" in comparison.render()

    def test_improvement_and_small_drift_pass(self):
        current = _metrics(
            **{
                "grid.wpa_sweep_16": {"family_speedup": 9.0},
                "grid.wpa_sweep_256": {"family_speedup": 8.5},
            }
        )
        assert compare_snapshots(current, _metrics(), tolerance=0.20).ok

    def test_drop_beyond_tolerance_fails(self):
        current = _metrics(**{"grid.wpa_sweep_16": {"family_speedup": 3.0}})
        comparison = compare_snapshots(current, _metrics(), tolerance=0.20)
        assert not comparison.ok
        assert any("grid.wpa_sweep_16" in failure for failure in comparison.failures)
        assert "FAILED" in comparison.render()

    def test_drop_at_the_floor_passes(self):
        current = _metrics(**{"grid.wpa_sweep_16": {"family_speedup": 3.2}})
        assert compare_snapshots(current, _metrics(), tolerance=0.20).ok

    def test_metric_missing_from_current_fails(self):
        current = _metrics()
        del current["grid.wpa_sweep_256"]
        comparison = compare_snapshots(current, _metrics())
        assert not comparison.ok
        assert any("missing" in failure for failure in comparison.failures)

    def test_metric_missing_from_baseline_is_skipped(self):
        baseline = _metrics()
        del baseline["grid.wpa_sweep_256"]
        comparison = compare_snapshots(_metrics(), baseline)
        assert comparison.ok
        assert any(v.status == "SKIP" for v in comparison.verdicts)
        assert "not in baseline" in comparison.render()

    @pytest.mark.parametrize("tolerance", [-0.1, 1.0, 2.5])
    def test_tolerance_must_be_a_fraction(self, tolerance):
        with pytest.raises(ReproError):
            compare_snapshots(_metrics(), _metrics(), tolerance=tolerance)


class TestLoadMetrics:
    def test_reads_the_metrics_block(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"metrics": _metrics()}))
        assert load_metrics(path) == _metrics()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_metrics(tmp_path / "absent.json")

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="not valid JSON"):
            load_metrics(path)

    def test_missing_metrics_block_raises(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"walls": {}}))
        with pytest.raises(ReproError, match="no 'metrics' block"):
            load_metrics(path)

    def test_committed_baseline_carries_every_guarded_metric(self):
        metrics = load_metrics(DEFAULT_BASELINE)
        for metric, field in GUARDED:
            assert metrics[metric][field] > 0, (metric, field)


def _snapshot(tmp_path, name, metrics):
    path = tmp_path / name
    path.write_text(json.dumps({"metrics": metrics}))
    return str(path)


class TestCli:
    def test_passing_gate_exits_zero(self, tmp_path, capsys):
        current = _snapshot(tmp_path, "current.json", _metrics())
        baseline = _snapshot(tmp_path, "baseline.json", _metrics())
        assert main(["bench", "compare", current, "--baseline", baseline]) == 0
        assert "bench regression gate passed" in capsys.readouterr().out

    def test_failing_gate_exits_one(self, tmp_path, capsys):
        current = _snapshot(
            tmp_path,
            "current.json",
            _metrics(**{"grid.wpa_sweep_16": {"family_speedup": 1.0}}),
        )
        baseline = _snapshot(tmp_path, "baseline.json", _metrics())
        assert main(["bench", "compare", current, "--baseline", baseline]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_tolerance_flag_is_honoured(self, tmp_path):
        current = _snapshot(
            tmp_path,
            "current.json",
            _metrics(**{"grid.wpa_sweep_16": {"family_speedup": 3.9}}),
        )
        baseline = _snapshot(tmp_path, "baseline.json", _metrics())
        argv = ["bench", "compare", current, "--baseline", baseline]
        assert main(argv + ["--tolerance", "0.1"]) == 0
        assert main(argv + ["--tolerance", "0.01"]) == 1

    def test_default_baseline_self_compare_passes(self):
        assert main(["bench", "compare", str(DEFAULT_BASELINE)]) == 0
