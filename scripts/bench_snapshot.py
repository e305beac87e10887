#!/usr/bin/env python
"""Run the engine/throughput benches and snapshot the numbers.

Executes ``benchmarks/test_bench_engine.py`` (kernel speedup, the 16- and
256-point WPA family sweeps, warm store loads, cold vs warm parallel
grids, warm-cache startup) with ``$REPRO_BENCH_JSON`` pointed at a scratch
file, then assembles ``BENCH_engine.json`` at the repository root: replay
events/sec per engine, family-replay wall times and speedups, plus enough
environment metadata to compare snapshots across machines.
Wall times are best-of-N (``--repeats``, default 3) so the checked-in
speedup claims aren't single-run noise; N is recorded in the snapshot's
``environment`` block.  The file is meant to be checked in, so the bench
trajectory of the repository is visible in history — and
``python -m repro.cli bench compare`` gates CI on it.

Usage::

    python scripts/bench_snapshot.py            # writes BENCH_engine.json
    python scripts/bench_snapshot.py --output somewhere/else.json --repeats 5
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = ["benchmarks/test_bench_engine.py"]


def run_benches(metrics_path: Path, repeats: int) -> int:
    env = dict(os.environ)
    env["REPRO_BENCH_JSON"] = str(metrics_path)
    env["REPRO_BENCH_REPEATS"] = str(repeats)
    env.setdefault("PYTHONPATH", str(REPO_ROOT / "src"))
    command = [
        sys.executable,
        "-m",
        "pytest",
        "-q",
        "-p",
        "no:cacheprovider",
        *BENCH_FILES,
    ]
    print("+", " ".join(command), flush=True)
    return subprocess.call(command, cwd=REPO_ROOT, env=env)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_engine.json"),
        help="where to write the snapshot (default: BENCH_engine.json)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="best-of-N wall times per metric (default: 3; recorded in the "
        "snapshot's environment block)",
    )
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    with tempfile.TemporaryDirectory() as scratch:
        metrics_path = Path(scratch) / "metrics.json"
        status = run_benches(metrics_path, args.repeats)
        if status != 0:
            print(f"benches failed (exit {status}); no snapshot written")
            return status
        try:
            metrics = json.loads(metrics_path.read_text())
        except (OSError, ValueError):
            print("benches wrote no metrics; is record_metric wired up?")
            return 1

    import numpy

    snapshot = {
        "generated": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat(),
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
            "bench_repeats": args.repeats,
        },
        "metrics": metrics,
    }
    output = Path(args.output)
    output.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
