"""Shared fixtures: small hand-built programs and a reduced-budget runner."""

from __future__ import annotations

import pytest

from repro import (
    ExperimentRunner,
    ProgramBuilder,
    branch_models_for,
    load_benchmark,
    LARGE_INPUT,
    SMALL_INPUT,
)
from repro.trace.branch_model import BernoulliBranch, BranchModelMap, LoopBranch


def build_toy_program():
    """A two-function program with a loop, a call, and a diamond.

    Layout (original order)::

        main:   entry -> loop_head -> body(call helper) -> latch(-> loop_head)
                -> cond(-> skip) -> taken_path -> skip -> fin(ret)
        helper: h0 -> h1(ret)
    """
    builder = ProgramBuilder("toy")
    main = builder.function("main")
    main.block("entry", 3)
    main.block("loop_head", 2)
    main.block("body", 4, call="helper")
    main.block("latch", 2, branch="loop_head")
    main.block("cond", 2, branch="skip")
    main.block("taken_path", 3)
    main.block("skip", 2)
    main.block("fin", 1, ret=True)
    helper = builder.function("helper")
    helper.block("h0", 5)
    helper.block("h1", 2, ret=True)
    return builder.build(entry="main")


@pytest.fixture()
def toy_program():
    return build_toy_program()


@pytest.fixture()
def toy_models(toy_program):
    """Deterministic-ish branch behaviour for the toy program."""
    return BranchModelMap(
        {
            toy_program.uid_of_label("main", "latch"): LoopBranch(4, 4),
            toy_program.uid_of_label("main", "cond"): BernoulliBranch(0.5),
        }
    )


@pytest.fixture(scope="session")
def fast_runner():
    """An ExperimentRunner with budgets small enough for unit tests."""
    return ExperimentRunner(eval_instructions=80_000, profile_instructions=30_000)


@pytest.fixture(scope="session")
def lint_all_workloads():
    """Static-analysis diagnostics for every bundled synthetic workload.

    Runs the full rule set over each benchmark's program, way-placement
    layout, profile, and the XScale cache geometry with a fitted WPA.
    Session-scoped because profiling all benchmarks is the expensive part.
    """
    from repro.analysis import Analyzer
    from repro.layout.placement import LayoutPolicy
    from repro.workloads import benchmark_names

    runner = ExperimentRunner(
        eval_instructions=20_000, profile_instructions=8_000
    )
    policy = LayoutPolicy.WAY_PLACEMENT
    analyzer = Analyzer()
    results = {}
    for benchmark in benchmark_names():
        wpa_size = runner.fitted_wpa_size(benchmark, policy)
        context = runner.analysis_context(benchmark, policy, wpa_size=wpa_size)
        results[benchmark] = analyzer.run(context)
    return results


@pytest.fixture(scope="session")
def paper_grid():
    """Figures 4-6 on all 23 benchmarks at 20k/8k, run once in-process,
    with the cells and reports of their one grid."""
    from tests.test_golden_grid import run_paper_grid

    return run_paper_grid(jobs=1)


@pytest.fixture(scope="session")
def crc_workload():
    return load_benchmark("crc")


@pytest.fixture(scope="session")
def crc_small_models(crc_workload):
    return branch_models_for(crc_workload, SMALL_INPUT)


@pytest.fixture(scope="session")
def crc_large_models(crc_workload):
    return branch_models_for(crc_workload, LARGE_INPUT)
