"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-benchmarks``
    The 23-benchmark suite with per-benchmark shape parameters.
``table1``
    Print the paper's Table 1 machine configuration.
``figure4`` / ``figure5`` / ``figure6``
    Regenerate a figure (optionally on a benchmark subset).  Grid commands
    (these, ``report`` and ``export``) run one supervised grid, in-process
    or on ``--jobs`` workers, under ``--timeout`` (see
    docs/robustness.md).  With the trace cache on, an interrupted grid
    resumes when the same command runs again: each finished cell waits
    in the cache until its grid completes.
``simulate``
    Run one (benchmark, scheme, geometry, WPA) combination and print the
    normalised result plus the activity counters behind it.
``inspect``
    Show the compiler pass's work on one benchmark: chains, weights,
    prefix coverage.
``choose-wpa``
    Run the OS's way-placement-area selection policy.
``cache``
    Inspect (``stats``) or empty (``clear``) the persistent trace cache
    (see docs/performance.md).
``verify``
    Full workload certification (see docs/verification.md): every static
    rule of docs/analysis.md (``--select``/``--ignore`` pick rules), the
    symbolic WPA placement proof and a sanitized kernel replay.  Exit 2
    when any workload fails.
``bench compare``
    Gate on the checked-in bench snapshot (``BENCH_engine.json``):
    fail when a guarded engine speedup drops more than the tolerance.
``chaos``
    Seeded chaos drill (see docs/robustness.md): inject a deterministic
    fault schedule — worker crashes and hangs, sanitizer trips, cell and
    disk faults — into a supervised parallel grid across a seed matrix,
    and fail unless every run is bit-identical to a fault-free run with
    all incidents recovered.  ``--json`` emits the summary for machines.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List, Optional, cast

from repro.errors import ReproError
from repro.experiments.figures import figure4, figure5, figure6
from repro.experiments.formatting import render_table
from repro.experiments.runner import ExperimentRunner
from repro.layout.placement import LayoutPolicy
from repro.layout.wpa_select import choose_wpa_size
from repro.sim.machine import XSCALE_BASELINE, table1_rows
from repro.utils.bitops import is_power_of_two
from repro.workloads.mibench import MIBENCH_BENCHMARKS, benchmark_names

KB = 1024

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Instruction Cache Energy Saving Through "
            "Compiler Way-Placement' (DATE 2008)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-benchmarks", help="list the benchmark suite")
    sub.add_parser("table1", help="print the Table 1 machine configuration")

    for name, description in (
        ("figure4", "per-benchmark energy and ED (32KB/32-way, 32KB WPA)"),
        ("figure5", "way-placement area size sweep"),
        ("figure6", "cache size x associativity grid"),
    ):
        figure = sub.add_parser(name, help=description)
        figure.add_argument(
            "--benchmarks",
            nargs="+",
            metavar="NAME",
            help="restrict to these benchmarks (default: full suite)",
        )
        _add_replay_arguments(figure)
        _add_jobs_argument(figure)

    simulate = sub.add_parser("simulate", help="run one configuration")
    simulate.add_argument("--benchmark", required=True, choices=benchmark_names())
    simulate.add_argument(
        "--scheme",
        default="way-placement",
        choices=[
            "baseline",
            "way-placement",
            "way-memoization",
            "way-prediction",
            "filter-cache",
        ],
    )
    simulate.add_argument("--wpa-kb", type=int, default=32, help="WPA size in KB")
    simulate.add_argument("--cache-kb", type=int, default=32)
    simulate.add_argument("--ways", type=int, default=32)
    simulate.add_argument("--line-bytes", type=int, default=32)
    simulate.add_argument(
        "--layout",
        default=None,
        choices=[policy.value for policy in LayoutPolicy],
        help="override the scheme's default layout pairing",
    )
    _add_replay_arguments(simulate)

    inspect = sub.add_parser("inspect", help="show the compiler pass's work")
    inspect.add_argument("--benchmark", required=True, choices=benchmark_names())
    _add_budget_arguments(inspect)

    choose = sub.add_parser("choose-wpa", help="run the OS's WPA size policy")
    choose.add_argument("--benchmark", required=True, choices=benchmark_names())
    choose.add_argument("--page-kb", type=_power_of_two, default=1)
    _add_budget_arguments(choose)

    report = sub.add_parser(
        "report", help="full reproduction report (all figures + checklist)"
    )
    report.add_argument("--output", help="write the markdown report to this file")
    report.add_argument("--benchmarks", nargs="+", metavar="NAME")
    _add_replay_arguments(report)
    _add_jobs_argument(report)

    export = sub.add_parser("export", help="figure data as CSV or JSON")
    export.add_argument("--figure", required=True, choices=["4", "5", "6"])
    export.add_argument("--format", default="csv", choices=["csv", "json"])
    export.add_argument("--output", help="write to this file instead of stdout")
    export.add_argument("--benchmarks", nargs="+", metavar="NAME")
    _add_replay_arguments(export)
    _add_jobs_argument(export)

    cache = sub.add_parser(
        "cache", help="manage the persistent trace cache ($REPRO_CACHE_DIR)"
    )
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument(
        "--dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or .repro_cache)",
    )

    verify = sub.add_parser(
        "verify",
        help="certify workloads: rules + WPA proof + sanitized replay",
    )
    verify.add_argument(
        "targets",
        nargs="*",
        metavar="BENCHMARK",
        help="benchmarks to certify (default: every built-in benchmark)",
    )
    verify.add_argument("--format", default="text", choices=["text", "json"])
    verify.add_argument(
        "--select",
        action="append",
        metavar="RULES",
        help="comma-separated rule ids or prefixes to run (e.g. V,P)",
    )
    verify.add_argument(
        "--ignore",
        action="append",
        metavar="RULES",
        help="comma-separated rule ids or prefixes to skip (e.g. C003)",
    )
    verify.add_argument(
        "--layout",
        default=LayoutPolicy.WAY_PLACEMENT.value,
        choices=[policy.value for policy in LayoutPolicy],
        help="layout policy to certify under (default: way-placement)",
    )
    verify.add_argument(
        "--wpa-kb",
        type=int,
        default=None,
        help="WPA size to certify against (default: fitted to the binary)",
    )
    verify.add_argument(
        "--page-kb",
        type=_power_of_two,
        default=1,
        help="page size in KB for the rules, the proof and every replay "
        "(default 1)",
    )
    _add_replay_arguments(verify)

    bench = sub.add_parser("bench", help="benchmark snapshot utilities")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    compare = bench_sub.add_parser(
        "compare",
        help="gate on the checked-in bench snapshot (speedup regressions)",
    )
    compare.add_argument("current", help="freshly generated snapshot to check")
    compare.add_argument(
        "--baseline",
        default=None,
        help="checked-in snapshot to compare against (default: BENCH_engine.json)",
    )
    compare.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed fractional speedup drop before failing (default: 0.20)",
    )

    chaos_drill = sub.add_parser(
        "chaos",
        help=(
            "seeded chaos drill: inject a deterministic fault schedule "
            "into a supervised grid and require bit-identical recovery"
        ),
    )
    chaos_drill.add_argument(
        "--seeds",
        default="0",
        metavar="N,N,...",
        help="comma-separated seed matrix (default: 0)",
    )
    chaos_drill.add_argument(
        "--jobs", type=int, default=2, help="worker processes (default 2)"
    )
    chaos_drill.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_path",
        help="write the deterministic summary JSON to PATH ('-' for stdout)",
    )

    return parser


def _power_of_two(value: str) -> int:
    """argparse type for ``--page-kb``: page sizes are powers of two."""
    parsed = int(value)
    if not is_power_of_two(parsed):
        raise argparse.ArgumentTypeError(f"{parsed} is not a positive power of two")
    return parsed


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--eval-instructions",
        type=int,
        default=None,
        help="evaluation trace length (default 400000 or $REPRO_EVAL_INSTRUCTIONS)",
    )
    parser.add_argument(
        "--profile-instructions",
        type=int,
        default=None,
        help="profiling trace length (default 100000 or $REPRO_PROFILE_INSTRUCTIONS)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "trace cache directory, or 'off' to disable "
            "(default: $REPRO_CACHE_DIR or .repro_cache)"
        ),
    )


def _add_replay_arguments(parser: argparse.ArgumentParser) -> None:
    """The budgets plus the flags that only matter to commands that replay."""
    _add_budget_arguments(parser)
    parser.add_argument(
        "--engine",
        default=None,
        choices=["fast", "reference"],
        help="replay engine (default fast: vectorized kernels where a "
        "scheme has one; 'reference' runs the object-model schemes; see "
        "docs/performance.md)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="check sanitizer invariants on every simulation "
        "(see docs/verification.md; fails loudly on any violation)",
    )


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the experiment grid (default 1: in-process)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget per worker; a killed worker's cells run in "
            "the parent (default: no timeout)"
        ),
    )


def _make_runner(args: argparse.Namespace) -> ExperimentRunner:
    return ExperimentRunner(
        eval_instructions=getattr(args, "eval_instructions", None),
        profile_instructions=getattr(args, "profile_instructions", None),
        engine=getattr(args, "engine", None),
        cache_dir=getattr(args, "cache_dir", None),
        sanitize=getattr(args, "sanitize", False),
        timeout_s=getattr(args, "timeout", None),
    )


def _cmd_list_benchmarks() -> int:
    rows = [
        [
            name,
            f"{spec.code_kb:.1f}",
            str(spec.num_functions),
            str(spec.kernel_functions),
            f"{spec.mem_density:.2f}",
        ]
        for name, spec in MIBENCH_BENCHMARKS.items()
    ]
    print(
        render_table(
            "Benchmark suite (synthetic MiBench stand-ins)",
            ["name", "code KB", "functions", "kernels", "mem density"],
            rows,
        )
    )
    return 0


def _cmd_table1() -> int:
    print(
        render_table(
            "Table 1: Baseline system configuration",
            ["Parameter", "Configuration"],
            [list(row) for row in table1_rows()],
        )
    )
    return 0


#: The figure experiments by number (``figure4`` / ``export --figure 4``).
_FIGURES: Dict[str, Callable[..., Any]] = {"4": figure4, "5": figure5, "6": figure6}


def _validate_benchmarks(names: Optional[List[str]]) -> None:
    if names:
        unknown = set(names) - set(benchmark_names())
        if unknown:
            raise ReproError(f"unknown benchmarks: {sorted(unknown)}")


def _cmd_figure(args: argparse.Namespace) -> int:
    _validate_benchmarks(args.benchmarks)
    runner = _make_runner(args)
    figure = _FIGURES[args.command.removeprefix("figure")]
    print(figure(runner, benchmarks=args.benchmarks, jobs=args.jobs).render())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    machine = XSCALE_BASELINE.with_icache(
        args.cache_kb * KB, args.ways, args.line_bytes
    )
    wpa_size = args.wpa_kb * KB if args.scheme == "way-placement" else 0
    layout_policy = LayoutPolicy(args.layout) if args.layout else None
    result = runner.normalised(
        args.benchmark,
        args.scheme,
        machine,
        wpa_size=wpa_size,
        layout_policy=layout_policy,
    )
    report = runner.report(
        args.benchmark,
        args.scheme,
        machine,
        wpa_size=wpa_size,
        layout_policy=layout_policy,
    )
    counters = report.counters
    print(f"benchmark : {args.benchmark}")
    print(f"scheme    : {args.scheme} on {machine.icache.describe()}")
    if wpa_size:
        print(f"WPA       : {args.wpa_kb}KB")
    print(f"layout    : {report.layout_description}")
    print()
    print(f"normalised I-cache energy : {result.icache_energy_pct:6.1f}%")
    print(f"normalised delay          : {result.delay:8.3f}")
    print(f"ED product                : {result.ed_product:8.3f}")
    print()
    print(
        render_table(
            "activity counters",
            ["counter", "value"],
            [
                ["fetches", f"{counters.fetches:,}"],
                ["line transitions", f"{counters.line_events:,}"],
                ["full searches", f"{counters.full_searches:,}"],
                ["single-way checks", f"{counters.single_way_searches:,}"],
                ["links followed", f"{counters.link_followed:,}"],
                ["match lines precharged", f"{counters.ways_precharged:,}"],
                ["misses", f"{counters.misses:,}"],
                ["hint false +/-", f"{counters.hint_false_positives}/{counters.hint_false_negatives}"],
                ["I-TLB misses", f"{counters.itlb_misses:,}"],
                ["cycles", f"{report.cycles:,}"],
            ],
        )
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.layout.chains import build_chains

    runner = _make_runner(args)
    program = runner.workload(args.benchmark).program
    profile = runner.profile(args.benchmark)
    layout = runner.layout(args.benchmark, LayoutPolicy.WAY_PLACEMENT)
    weights = {
        block.uid: profile.count_of(block.uid) * block.num_instructions
        for block in program.blocks()
    }
    chains = sorted(build_chains(program), key=lambda c: -c.weight(weights))
    print(
        f"{args.benchmark}: {len(program.functions)} functions, "
        f"{program.num_blocks} blocks, {program.size_bytes / KB:.1f}KB, "
        f"{len(chains)} chains"
    )
    rows = []
    for rank, chain in enumerate(chains[:12], start=1):
        head = program.block_by_uid(chain.head)
        size = sum(program.block_by_uid(u).size_bytes for u in chain.uids)
        rows.append(
            [
                str(rank),
                f"{head.function}:{head.label}",
                str(len(chain)),
                str(size),
                f"{chain.weight(weights):,}",
                f"{layout.address_of(chain.head):#x}",
            ]
        )
    print(
        render_table(
            "heaviest chains (way-placement order)",
            ["rank", "head", "blocks", "bytes", "instrs executed", "placed at"],
            rows,
        )
    )
    return 0


def _cmd_choose_wpa(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    program = runner.workload(args.benchmark).program
    profile = runner.profile(args.benchmark)
    layout = runner.layout(args.benchmark, LayoutPolicy.WAY_PLACEMENT)
    choice = choose_wpa_size(
        program,
        layout,
        profile.block_counts,
        XSCALE_BASELINE.icache,
        page_size=args.page_kb * KB,
        edge_counts=profile.edge_counts,
    )
    print(f"benchmark          : {args.benchmark}")
    print(f"chosen WPA size    : {choice.wpa_size // KB}KB")
    print(f"profiled coverage  : {100 * choice.coverage:.1f}%")
    print(f"boundary crossings : {choice.crossing_rate:.6f} per instruction")
    print()
    print(
        render_table(
            "candidate ranking (estimated tag energy, lower is better)",
            ["WPA", "estimate"],
            [
                [f"{size // KB}KB", f"{estimate:.4f}"]
                for size, estimate in choice.ranking
            ],
        )
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import reproduction_report

    _validate_benchmarks(args.benchmarks)
    runner = _make_runner(args)
    text = reproduction_report(runner, benchmarks=args.benchmarks, jobs=args.jobs)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import (
        figure4_records,
        figure5_records,
        figure6_records,
        records_to_csv,
        records_to_json,
    )

    _validate_benchmarks(args.benchmarks)
    runner = _make_runner(args)
    to_records = {"4": figure4_records, "5": figure5_records, "6": figure6_records}
    result = _FIGURES[args.figure](runner, benchmarks=args.benchmarks, jobs=args.jobs)
    records = to_records[args.figure](result)
    text = records_to_csv(records) if args.format == "csv" else records_to_json(records)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"figure {args.figure} data written to {args.output}")
    else:
        print(text)
    return 0


def _split_selectors(values: Optional[List[str]]) -> Optional[List[str]]:
    """Flatten repeated/comma-separated ``--select``/``--ignore`` values."""
    if not values:
        return None
    selectors: List[str] = []
    for value in values:
        selectors.extend(part.strip() for part in value.split(",") if part.strip())
    return selectors or None


def _cmd_verify(args: argparse.Namespace) -> int:
    import dataclasses
    import time

    from repro.analysis import Analyzer
    from repro.verify.certify import (
        certify_workload,
        render_certificates_json,
        render_certificates_text,
    )

    targets = args.targets or list(benchmark_names())
    _validate_benchmarks(targets)
    analyzer = Analyzer(
        select=_split_selectors(args.select), ignore=_split_selectors(args.ignore)
    )
    runner = _make_runner(args)
    policy = LayoutPolicy(args.layout)
    machine = dataclasses.replace(XSCALE_BASELINE, page_size=args.page_kb * KB)
    started = time.perf_counter()
    certificates = [
        certify_workload(
            runner,
            benchmark,
            policy=policy,
            machine=machine,
            wpa_size=args.wpa_kb * KB if args.wpa_kb is not None else None,
            analyzer=analyzer,
        )
        for benchmark in targets
    ]
    elapsed = time.perf_counter() - started
    if args.format == "json":
        print(render_certificates_json(certificates))
    else:
        print(render_certificates_text(certificates))
    # Wall time goes to stderr so stdout stays byte-for-byte deterministic.
    print(
        f"verified {len(certificates)} workload(s) in {elapsed:.2f}s",
        file=sys.stderr,
    )
    return 0 if all(certificate.ok for certificate in certificates) else 2


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.bench import (
        DEFAULT_BASELINE,
        DEFAULT_TOLERANCE,
        compare_snapshots,
        load_metrics,
    )

    # Only 'compare' exists today; argparse rejects anything else.
    current = load_metrics(Path(args.current))
    baseline_path = Path(args.baseline) if args.baseline else DEFAULT_BASELINE
    baseline = load_metrics(baseline_path)
    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    comparison = compare_snapshots(current, baseline, tolerance)
    print(comparison.render())
    return 0 if comparison.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience.drill import run_matrix

    try:
        seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    except ValueError:
        print(f"error: bad --seeds value {args.seeds!r}", file=sys.stderr)
        return 2

    summary = run_matrix(seeds, jobs=args.jobs)
    for run in summary["runs"]:
        print(f"chaos drill seed={run['seed']}:")
        for line in run["schedule"]:
            print(f"  {line}")
        for incident in run["incidents"]:
            print(f"  {incident}")
        verdict = "OK" if run["ok"] else "FAIL"
        print(
            f"  {verdict}: identical={run['identical']} "
            f"recovered={run['recovered']} "
            f"({len(run['incidents'])} incident(s))"
        )

    if args.json_path is not None:
        payload = json.dumps(summary, indent=2, sort_keys=True)
        if args.json_path == "-":
            print(payload)
        else:
            from pathlib import Path

            Path(args.json_path).write_text(payload + "\n")
    if summary["ok"]:
        print(
            f"OK: {len(summary['runs'])} drill(s) bit-identical to the "
            f"fault-free run; every incident recovered"
        )
        return 0
    failed = sum(1 for run in summary["runs"] if not run["ok"])
    print(f"FAIL: {failed} of {len(summary['runs'])} drill(s) failed")
    return 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.engine.store import TraceStore

    store = TraceStore.resolve(args.dir)
    if store is None:
        print("trace cache is disabled")
        return 0
    if args.action == "stats":
        stats = store.stats()
        counts = cast(Dict[str, int], stats["entries"])
        kind_bytes = cast(Dict[str, int], stats["kind_bytes"])
        total_bytes = cast(int, stats["total_bytes"])
        quarantined = cast(int, stats["quarantined"])
        print(f"cache directory : {stats['dir']}")
        print(f"entries         : {sum(counts.values())}")
        print(f"size            : {total_bytes / KB:.1f}KB")
        for kind, count in sorted(counts.items()):
            print(f"  {kind:<8}: {count} entries, {kind_bytes[kind] / KB:.1f}KB")
        if quarantined:
            quarantine_bytes = cast(int, stats["quarantine_bytes"])
            print(
                f"quarantine      : {quarantined} entries, "
                f"{quarantine_bytes / KB:.1f}KB (undeletable corrupt entries; "
                f"'repro cache clear' removes them)"
            )
        if stats["writes_disabled"]:
            print("writes          : DISABLED (earlier write failure)")
    else:
        removed = store.clear()
        print(f"removed {removed} entries from {store.root}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-benchmarks":
            return _cmd_list_benchmarks()
        if args.command == "table1":
            return _cmd_table1()
        if args.command in ("figure4", "figure5", "figure6"):
            return _cmd_figure(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        if args.command == "choose-wpa":
            return _cmd_choose_wpa(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
