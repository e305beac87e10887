"""End-to-end benchmark of the paper experiments.

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                 [--seconds S | --repeats N] [--trace 0|1]
                                 [--out results.json]

Runs the Section 6 experiments (``figure4``, ``figure6``, the full
``report``) through the public API, each timed sample in a fresh child
process, one experiment at a time (a closed loop with one client).  The
workloads (see ``child.WORKLOADS``) are sampled round-robin, either a fixed
number of ``--repeats`` (default 5) or until each has run for ``--seconds``.
Warm workloads share one store primed by an untimed cold run.

Every simulated cell is checked: against the priming run and the other
samples of the invocation, against ``golden.json`` (seeds 1 and 2 at the
library's default budget), and, for a seeded sample of cells, against the
reference schemes.  ``--trace 1`` adds one traced child per workload,
whose spans are written to ``spans.json`` beside ``--out``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (cells) and ``metrics``, the medians of the
``end_to_end`` metrics of ``BENCHMARK.json`` (with ``--trace 1``, its
``per_layer`` metrics), prefixed by the workload name when more than one
workload ran.  Exits 1 when a check failed, 2 when the benchmark cannot
run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from child import PRIME, WORKLOADS, Workload
from compare import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden.json"
GOLDEN_SEEDS = (1, 2)

CHILD_TIMEOUT_S = 120
#: Set-up is short and noisy, so every invocation measures it this many
#: extra times besides once per timed sample.
SETUP_SAMPLES = 5
#: Fast-path cells per workload re-simulated on the reference schemes.
ORACLE_CELLS = 24

#: Reported beside the ``end_to_end`` metrics but not listed there, since
#: those must be non-zero on every workload: the failed share of cells,
#: and the paper checklist, which only ``report`` computes.
EXTRA_METRICS = {
    "fail_rate": {"unit": "fraction", "better": "lower"},
    "checklist_passed": {"unit": "count", "better": "higher"},
}

Run = Dict[str, Any]

_child_ids = itertools.count()


class ChildError(Exception):
    pass


def _wait_group(pgid: int, timeout: float) -> bool:
    """Wait until no process of group ``pgid`` is left."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.02)
    return False


def run_child(work: Path, spec: Dict[str, Any]) -> Run:
    """Run ``child.py`` on ``spec`` in its own process group; return its result.

    Adds ``elapsed_s`` (spawn to exit) and ``setup_s`` (spawn to a
    constructed runner, on the system-wide monotonic clock).
    """
    number = next(_child_ids)
    spec = dict(spec, result=str(work / f"result-{number}.json"))
    spec_path = work / f"spec-{number}.json"
    spec_path.write_text(json.dumps(spec))
    log_path = work / f"child-{number}.log"
    # No REPRO_* knob of the caller's may change what is measured.
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work))
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=work,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            process.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            # Grid workers and the shared-memory resource tracker live in the
            # child's process group; none may outlive it.
            if process.poll() is None or not _wait_group(process.pid, 5.0):
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                process.wait()
                _wait_group(process.pid, 5.0)
        ended = time.monotonic()
    if process.returncode != 0:
        tail = log_path.read_text(errors="replace").strip().splitlines()[-5:]
        raise ChildError(f"child exited with {process.returncode}: " + " | ".join(tail))
    result = json.loads(Path(spec["result"]).read_text())
    result["elapsed_s"] = ended - spawned
    result["setup_s"] = result["t_ready"] - spawned
    return result


def attempt(function: Any, *args: Any, **kwargs: Any) -> Run:
    """A child's result, or ``{"error": ...}`` when it failed."""
    try:
        return function(*args, **kwargs)
    except ChildError as error:
        return {"error": str(error)}


def first_ok(runs: List[Run]) -> Run:
    return next((run for run in runs if "error" not in run), {})


class Bench:
    """One invocation: its settings and scratch directory."""

    def __init__(self, args: argparse.Namespace, work: Path):
        self.args = args
        self.work = work
        self.seed = args.seed
        self.loadavg_start = list(os.getloadavg())

    def spec(self, workload: Workload, store: Path, **extra: Any) -> Dict[str, Any]:
        return {
            "mode": "run",
            "experiment": workload.experiment,
            "jobs": workload.jobs,
            "seed": self.seed,
            "store": str(store),
            "smoke": self.args.smoke,
            "trace": False,
            "oracle": 0,
            **extra,
        }

    def sample(self, name: str, **extra: Any) -> Run:
        """One child of workload ``name``: warm on the primed store, cold on a new one."""
        workload = WORKLOADS[name]
        if workload.warm:
            return run_child(self.work, self.spec(workload, self.work / "warm", **extra))
        store = self.work / f"cold-{next(_child_ids)}"
        try:
            return run_child(self.work, self.spec(workload, store, **extra))
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def collect(self, names: List[str]) -> Dict[str, Any]:
        """Prime, measure set-up, sample round-robin, then trace."""
        prime = None
        if any(WORKLOADS[name].warm for name in names):
            prime = attempt(run_child, self.work, self.spec(PRIME, self.work / "warm"))
        setups = [
            attempt(run_child, self.work, self.spec(PRIME, self.work / "unused", mode="setup"))
            for _ in range(SETUP_SAMPLES)
        ]
        samples: Dict[str, List[Run]] = {name: [] for name in names}
        spent = dict.fromkeys(names, 0.0)
        active = list(names)
        while active:
            for name in list(active):
                # The first sample of each workload also runs the oracle check.
                oracle = 0 if samples[name] else ORACLE_CELLS
                result = attempt(self.sample, name, oracle=oracle)
                samples[name].append(result)
                spent[name] += result.get("elapsed_s", 0.0)
                if self.args.repeats is not None:
                    done = len(samples[name]) >= self.args.repeats
                else:
                    done = spent[name] >= self.args.seconds
                if done or "error" in result:
                    active.remove(name)
        traced = {}
        if self.args.trace:
            for name in names:
                spans = self.work / f"spans-{name}.json"
                run_id = f"{name}-seed{self.seed}-{os.getpid()}"
                result = attempt(self.sample, name, trace=True, run_id=run_id, spans=str(spans))
                if "error" not in result:
                    result["spans"] = json.loads(spans.read_text())
                traced[name] = result
        return {"prime": prime, "setups": setups, "samples": samples, "traced": traced}


def load_golden(settings: Dict[str, Any]) -> Optional[Dict[str, str]]:
    """Golden cell digests for this seed, if recorded at this budget."""
    if settings["smoke"] or not GOLDEN.exists():
        return None
    golden = json.loads(GOLDEN.read_text())
    if any(golden[key] != settings[key] for key in ("eval_instructions", "profile_instructions")):
        return None
    return golden["cells"].get(str(settings["seed"]))


def check(
    runs: List[Run], prime: Optional[Run], golden: Optional[Dict[str, str]]
) -> Dict[str, Any]:
    """Count attempted and failed cells over a workload's timed and traced runs.

    A cell fails when its run failed, when the experiment did not simulate
    it, or when its digest differs from the priming run or an earlier run,
    from the golden record, or from the reference schemes.
    """
    reference: Dict[str, str] = dict(prime.get("cells", {})) if prime else {}
    expected = max(
        (len(run.get("cells", ())) + len(run.get("missing", ())) for run in runs), default=1
    )
    attempted = failed = 0
    problems: List[str] = []
    if prime is not None and "error" in prime:
        problems.append(f"priming failed: {prime['error']}")
    for run in runs:
        if "error" in run:
            attempted += expected
            failed += expected
            problems.append(run["error"])
            continue
        bad = set(run["missing"])
        for cell, digest in run["cells"].items():
            if reference.setdefault(cell, digest) != digest:
                bad.add(cell)
            if golden is not None and golden.get(cell) != digest:
                bad.add(cell)
        bad.update(run.get("oracle", {}).get("mismatched", ()))
        attempted += len(run["cells"]) + len(run["missing"])
        failed += len(bad)
        if bad:
            problems.append(f"{len(bad)} cell(s) differ, e.g. {sorted(bad)[:3]}")
    return {"attempted": attempted, "failed": failed, "problems": problems}


def metric_samples(
    name: str, runs: List[Run], setups: List[Run], checks: Dict[str, Any]
) -> Dict[str, List[float]]:
    ok = [run for run in runs if "error" not in run]
    values = {
        "wall_s": [run["wall_s"] for run in ok],
        "setup_s": [run["setup_s"] for run in setups + ok if "error" not in run],
        # Distinct cells simulated, each at the evaluation budget.
        "sim_minstr_per_s": [
            len(run["cells"]) * run["eval_instructions"] / run["wall_s"] / 1e6 for run in ok
        ],
        "peak_rss_mb": [run["peak_rss_mb"] for run in ok],
        "paper_err_pp": [run["paper"]["paper_err_pp"] for run in ok],
        "fail_rate": [checks["failed"] / max(1, checks["attempted"])],
    }
    if WORKLOADS[name].experiment == "report":
        values["checklist_passed"] = [sum(run["paper"]["checklist"]) for run in ok]
    return {key: value for key, value in values.items() if value}


def cells_digest(run: Optional[Run]) -> Optional[str]:
    """One digest over a run's per-cell digests (``None`` for a failed run)."""
    if not run or "cells" not in run:
        return None
    return hashlib.sha256(json.dumps(run["cells"], sort_keys=True).encode()).hexdigest()[:16]


def build_results(
    bench: Bench, names: List[str], collected: Dict[str, Any], spec: Dict[str, Any]
) -> Dict[str, Any]:
    describe = {metric["name"]: metric for metric in spec["end_to_end"]}
    describe.update(EXTRA_METRICS)
    first = first_ok([run for runs in collected["samples"].values() for run in runs])
    settings = {
        "seed": bench.seed,
        "eval_instructions": first.get("eval_instructions"),
        "profile_instructions": first.get("profile_instructions"),
        "smoke": bench.args.smoke,
        "jobs": {name: WORKLOADS[name].jobs for name in names},
        "seconds": bench.args.seconds,
        "repeats": bench.args.repeats,
    }
    golden = load_golden(settings)
    results: Dict[str, Any] = {
        "settings": settings,
        "environment": {
            "python": platform.python_version(),
            "numpy": first.get("numpy"),
            "nproc": os.cpu_count(),
            "loadavg_start": bench.loadavg_start,
            "loadavg_end": list(os.getloadavg()),
            "platform": platform.platform(),
        },
        "golden": "checked" if golden is not None else f"none for seed {bench.seed} at this budget",
        "workloads": {},
    }
    for name in names:
        timed = collected["samples"][name]
        traced = collected["traced"].get(name)
        checks = check(timed + ([traced] if traced else []), collected["prime"], golden)
        samples = metric_samples(name, timed, collected["setups"], checks)
        entry: Dict[str, Any] = {
            "metrics": {
                key: {**describe[key], "samples": values, **summarize(values)}
                for key, values in samples.items()
            },
            "checks": checks,
            "cells_digest": {
                "timed": [cells_digest(run) for run in timed],
                "traced": cells_digest(traced),
            },
            "paper": first_ok(timed).get("paper", {}).get("numbers", {}),
            "oracle": first_ok(timed).get("oracle"),
        }
        if traced is not None and "error" not in traced:
            untraced = summarize(samples["wall_s"])["median"] if "wall_s" in samples else 0.0
            overhead = 100 * (traced["wall_s"] - untraced) / untraced if untraced else 0.0
            entry["layers"] = dict(traced["layers"], trace_overhead_pct=overhead)
        results["workloads"][name] = entry
    return results


def render(results: Dict[str, Any], spec: Dict[str, Any]) -> None:
    """Print every metric by name with its unit, then the checks."""
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    settings = results["settings"]
    print(
        f"e2e benchmark: seed {settings['seed']}, budget {settings['eval_instructions']} "
        f"evaluated / {settings['profile_instructions']} profiled instructions, "
        f"golden: {results['golden']}"
    )
    for name, entry in results["workloads"].items():
        checks = entry["checks"]
        print(f"\n[{name}]  attempted {checks['attempted']} cells, failed {checks['failed']}")
        print(f"  {'metric':<22} {'unit':<10} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'min':>11} {'max':>11} {'n':>3}")
        for key, metric in entry["metrics"].items():
            print(
                f"  {key:<22} {metric['unit']:<10} {metric['median']:>11.5g} "
                f"{metric['q1']:>11.5g} {metric['q3']:>11.5g} {metric['min']:>11.5g} "
                f"{metric['max']:>11.5g} {metric['n']:>3}"
            )
        for key, value in entry["paper"].items():
            print(f"  paper: {key} = {value:.3f}")
        if entry["oracle"]:
            print(f"  oracle: {entry['oracle']['checked']} cells re-simulated on the "
                  f"reference schemes, {len(entry['oracle']['mismatched'])} differ")
        for problem in checks["problems"]:
            print(f"  PROBLEM: {problem}")
        layers = entry.get("layers")
        if layers:
            print("  layers (traced run, self time):")
            for key, unit in units.items():
                print(f"    {key:<44} {unit:<10} {layers[key]:>12.5g}")
            accounted = sum(
                value for key, value in layers.items()
                if key.endswith(".s") and key != "experiments.wall.s"
            )
            print(f"    self times cover {100 * accounted / layers['experiments.wall.s']:.2f}% "
                  "of the traced wall")
            if settings["jobs"][name] > 1:
                print("    note: spans inside grid workers are lost; their time is "
                      "resilience.run_grid self time")


def final_line(results: Dict[str, Any], spec: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    workloads = results["workloads"]
    metrics = {}
    complete = True
    for name, entry in workloads.items():
        prefix = f"{name}." if len(workloads) > 1 else ""
        if trace:
            values = entry.get("layers", {})
        else:
            values = {key: metric["median"] for key, metric in entry["metrics"].items()}
        for metric in listed:
            if metric["name"] in values:
                value = values[metric["name"]]
                metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
            else:
                complete = False
    checks = [entry["checks"] for entry in workloads.values()]
    return {
        "correct": complete and not any(check["problems"] for check in checks),
        "attempted": sum(check["attempted"] for check in checks),
        "failed": sum(check["failed"] for check in checks),
        "metrics": metrics,
    }


def regen_golden(bench: Bench) -> None:
    """Rewrite ``golden.json`` from cold ``report`` runs of the golden seeds."""
    report = WORKLOADS["report-warm-j2"]
    golden: Dict[str, Any] = {"cells": {}}
    for seed in GOLDEN_SEEDS:
        bench.seed = seed
        store = bench.work / f"golden-{seed}"
        result = run_child(bench.work, bench.spec(report, store))
        if result["missing"]:
            raise ChildError(f"seed {seed}: cells not simulated: {result['missing'][:3]}")
        golden["eval_instructions"] = result["eval_instructions"]
        golden["profile_instructions"] = result["profile_instructions"]
        golden["cells"][str(seed)] = result["cells"]
        shutil.rmtree(store, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    counts = ", ".join(
        f"{len(cells)} cells for seed {seed}" for seed, cells in golden["cells"].items()
    )
    print(f"wrote {GOLDEN} ({counts})")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--seconds", type=float, help="sample each workload for this long")
    length.add_argument("--repeats", type=int, help="samples per workload (default 5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced run per workload and report per-layer metrics")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "results.json",
                        help="results file; spans.json and scratch stores go beside it")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite golden.json (only in a change to the benchmark itself)")
    # Reduced suite and budget for the smoke test only.
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None and args.repeats is None:
        args.repeats = 5
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2e benchmark: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or list(WORKLOADS)
    out_dir = args.out.resolve().parent
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(args, work)
    try:
        if args.regen_golden:
            regen_golden(bench)
            return 0
        collected = bench.collect(names)
    except ChildError as error:
        print(f"e2e benchmark: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = build_results(bench, names, collected, spec)
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    if args.trace:
        spans = {name: run["spans"] for name, run in collected["traced"].items() if "spans" in run}
        (out_dir / "spans.json").write_text(json.dumps(spans) + "\n")
    render(results, spec)
    line = final_line(results, spec, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] and not line["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
