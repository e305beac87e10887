"""Compare two end-to-end benchmark results.

    python benchmarks/e2e/compare.py PARENT CHANGE [--paired]

PARENT and CHANGE are each a results file written by ``run.py --out`` or a
directory of them; the samples of a directory's files are pooled in file
name order.  For every (workload, metric) pair this prints both medians,
both interquartile ranges (IQR), the sample counts and a verdict:

* ``within-bound``: the change's median is no worse than the parent's by
  more than the metric's bound;
* ``regressed``: it is worse by more than the bound;
* ``unresolved``: either side's IQR, as a share of its median, is wider
  than the bound, so the runs cannot tell, unless every sample of the
  change reads better than every sample of the parent.

Bounds are the ``end_to_end`` bounds of ``BENCHMARK.json``, as recorded in
the parent's results; metrics that are not listed there (``fail_rate``,
``checklist_passed``) have bound 0.

``--paired`` applies the claim rule for a gain instead: pair sample i of
the parent with sample i of the change, and claim a gain only when the
change wins at least nine tenths of the pairs (ties count for neither) and
the medians differ by more than the parent's IQR.  For proper pairs, run
each side alternately with ``--repeats 1`` into two directories.

Results whose budget, seed, benchmarks or workload settings differ are
refused.  Exits 1 when any pair regressed (or, with ``--paired``, when no
gain can be claimed), 2 on refusal.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

#: Settings two results must share to be comparable.
SETTINGS = (
    "eval_instructions", "profile_instructions", "seed", "smoke", "jobs", "seconds", "repeats"
)


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles (as ``statistics.quantiles(n=4)``), min/max and n."""
    ordered = sorted(values)
    median = statistics.median(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else [median] * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }


def load_results(path: Path) -> Dict[str, Any]:
    """One result, pooling the samples of every file in a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no results in {path}")
    merged: Dict[str, Any] = {}
    for file in files:
        result = json.loads(file.read_text())
        if not merged:
            merged = result
            continue
        if result["settings"] != merged["settings"]:
            raise SystemExit(f"{file}: settings differ from {files[0]}")
        for workload, entry in result["workloads"].items():
            metrics = merged["workloads"].setdefault(workload, {"metrics": {}})["metrics"]
            for name, metric in entry["metrics"].items():
                if name in metrics:
                    metrics[name]["samples"] += metric["samples"]
                else:
                    metrics[name] = metric
    return merged


def _worse(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of it."""
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:
        return float("inf") if delta > 0 else 0.0
    return delta / abs(parent)


def _spread(summary: Dict[str, Any]) -> float:
    width = summary["q3"] - summary["q1"]
    return width / abs(summary["median"]) if summary["median"] else (float("inf") if width else 0.0)


def _all_better(parent: List[float], change: List[float], better: str) -> bool:
    if better == "lower":
        return max(change) < min(parent)
    return min(change) > max(parent)


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    a, b = summarize(parent), summarize(change)
    if max(_spread(a), _spread(b)) > bound and not _all_better(parent, change, better):
        return "unresolved"
    return "regressed" if _worse(a["median"], b["median"], better) > bound else "within-bound"


def paired_verdict(parent: List[float], change: List[float], better: str) -> str:
    if len(parent) != len(change):
        return f"no-gain (unpaired: {len(parent)} vs {len(change)} samples)"
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if (b < a if better == "lower" else b > a))
    a, b = summarize(parent), summarize(change)
    gap = b["median"] - a["median"] if better == "higher" else a["median"] - b["median"]
    claim = wins >= 0.9 * len(pairs) and gap > a["q3"] - a["q1"]
    return f"{'gain' if claim else 'no-gain'} ({wins}/{len(pairs)} pairs won)"


def compare(parent: Dict[str, Any], change: Dict[str, Any], paired: bool) -> int:
    mismatched = [
        key for key in SETTINGS if parent["settings"].get(key) != change["settings"].get(key)
    ]
    if mismatched or set(parent["workloads"]) != set(change["workloads"]):
        print(f"refusing to compare: settings differ ({', '.join(mismatched) or 'workloads'})")
        return 2
    header = f"{'workload':<16} {'metric':<18} {'parent':>22} {'change':>22} {'n':>7}  verdict"
    print(header)
    print("-" * len(header))
    status = 0
    for workload in sorted(parent["workloads"]):
        metrics_a = parent["workloads"][workload]["metrics"]
        metrics_b = change["workloads"][workload]["metrics"]
        for name in sorted(set(metrics_a) & set(metrics_b)):
            samples_a, samples_b = metrics_a[name]["samples"], metrics_b[name]["samples"]
            better = metrics_a[name]["better"]
            if paired:
                result = paired_verdict(samples_a, samples_b, better)
                status |= not result.startswith("gain")
            else:
                result = verdict(samples_a, samples_b, better, metrics_a[name].get("bound", 0.0))
                status |= result == "regressed"
            a, b = summarize(samples_a), summarize(samples_b)
            print(
                f"{workload:<16} {name:<18} "
                f"{a['median']:>11.4g} ±{a['q3'] - a['q1']:<9.3g} "
                f"{b['median']:>11.4g} ±{b['q3'] - b['q1']:<9.3g} "
                f"{a['n']:>3}/{b['n']:<3}  {result}"
            )
    return status


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--paired", action="store_true", help="apply the claim rule for a gain")
    args = parser.parse_args(argv)
    return compare(load_results(args.parent), load_results(args.change), args.paired)


if __name__ == "__main__":
    sys.exit(main())
