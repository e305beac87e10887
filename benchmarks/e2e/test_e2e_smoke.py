"""Smoke test of the end-to-end benchmark on a reduced suite and budget.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Not part of tier 1: it runs ``run.py --smoke`` (crc and sha, 20k/8k
instructions, one sample per workload) as a user would, in subprocesses.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, out: Path, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--smoke", "--repeats", "1",
         "--out", str(out), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("seed1") / "results.json"
    process = run_bench("--seed", "1", "--trace", "1", out=out)
    assert process.returncode == 0, process.stdout + process.stderr
    return process.stdout, json.loads(out.read_text())


def test_every_metric_is_printed_with_its_unit(traced):
    stdout, results = traced
    lines = stdout.splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for workload in results["workloads"]:
        for metric in SPEC["end_to_end"]:
            assert any(
                line.split()[:2] == [metric["name"], metric["unit"]] for line in lines
            ), metric["name"]
        for metric in SPEC["per_layer"]:
            printed = last["metrics"][f"{workload}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]


def test_cold_and_warm_digests_are_identical(traced):
    _, results = traced
    cold, warm = (results["workloads"][name]["cells_digest"] for name in ("fig4-cold", "fig4-warm"))
    assert cold["timed"] == warm["timed"]


def test_traced_and_untraced_digests_are_identical(traced):
    _, results = traced
    for entry in results["workloads"].values():
        assert entry["cells_digest"]["traced"] == entry["cells_digest"]["timed"][0]


def test_layer_self_times_account_for_the_traced_wall(traced):
    _, results = traced
    for entry in results["workloads"].values():
        layers = entry["layers"]
        accounted = sum(
            value for key, value in layers.items()
            if key.endswith(".s") and key != "experiments.wall.s"
        )
        assert accounted == pytest.approx(layers["experiments.wall.s"], rel=0.05)


def test_the_seed_reaches_the_walk(traced, tmp_path):
    _, results = traced
    out = tmp_path / "results.json"
    process = run_bench("--seed", "2", "--workload", "fig4-warm", out=out)
    assert process.returncode == 0, process.stdout + process.stderr
    seed2 = json.loads(out.read_text())["workloads"]["fig4-warm"]["cells_digest"]["timed"]
    assert seed2 != results["workloads"]["fig4-warm"]["cells_digest"]["timed"]


def test_compare_accepts_a_run_against_itself_and_refuses_another_seed(traced, tmp_path):
    _, results = traced
    first, other = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(json.dumps(results))
    results["settings"]["seed"] = 2
    other.write_text(json.dumps(results))
    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run(compare + [str(first), str(first)], capture_output=True, text=True)
    # Noisy set-up samples may leave a pair unresolved, never regressed.
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout
    refused = subprocess.run(compare + [str(first), str(other)], capture_output=True, text=True)
    assert refused.returncode == 2


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out"))
    process = run_bench(out=tmp_path / "results.json", cwd=tmp_path)
    assert process.returncode != 0
    assert not process.stdout.strip()
