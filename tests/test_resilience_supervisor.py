"""Tests for supervised grid execution: the recovery ladder end to end.

The acceptance bar (see docs/robustness.md): a seeded chaos run that
crashes workers, hangs workers, and injects store faults mid-grid must
still return reports bit-identical to a fault-free serial run, with a
FailureReport describing every recovery; and an interrupted grid must
resume from its journal, re-executing only the missing cells.
"""

import dataclasses
import warnings

import pytest

from repro.engine.grid import GridCell
from repro.errors import CellFailure, RetriesExhausted, SchemeError
from repro.experiments.runner import ExperimentRunner
from repro.resilience import chaos
from repro.resilience.chaos import ChaosConfig, ChaosRule
from repro.resilience.journal import ResumeJournal, cell_content_key, grid_digest
from repro.resilience.policy import ResilienceConfig
from repro.resilience.supervisor import run_cell
from repro.sim.machine import XSCALE_BASELINE
from repro.sim.simulator import resolve_engine

KB = 1024

CELLS = [
    GridCell("crc", "baseline"),
    GridCell("crc", "way-placement", wpa_size=8 * KB),
    GridCell("sha", "baseline"),
    GridCell("sha", "way-placement", wpa_size=8 * KB),
]


def make_runner(cache_dir="off", **kwargs):
    kwargs.setdefault("eval_instructions", 8_000)
    kwargs.setdefault("profile_instructions", 4_000)
    return ExperimentRunner(cache_dir=cache_dir, **kwargs)


def fault_free_reports():
    return make_runner().run_grid(CELLS, jobs=1)


class TestRunCell:
    """The per-cell rung of the ladder, in isolation."""

    def test_transient_fault_falls_back_to_reference_engine(self):
        runner = make_runner()
        failures = []
        rule = ChaosRule("cell", "raise", match="crc:baseline", times=1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            report = run_cell(runner, CELLS[0], failures)
        assert report == make_runner().report("crc", "baseline")
        assert len(failures) == 1
        incident = failures[0]
        assert incident.recovered and incident.recovery == "engine-fallback"
        assert incident.attempts == 2
        assert "InjectedFault" in incident.causes[0]
        assert runner.engine is None  # original engine restored

    def test_sanitizer_failure_degrades_to_reference_engine(self):
        runner = make_runner()
        failures = []
        rule = ChaosRule("kernel", "sanitizer", match="crc:way-placement", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            report = run_cell(runner, CELLS[1], failures)
        # bit-identical despite running on the reference schemes
        assert report == make_runner().report(
            "crc", "way-placement", wpa_size=8 * KB
        )
        assert failures[0].recovery == "engine-fallback"
        assert runner.engine is None  # original engine restored

    def test_persistent_kernel_fault_falls_back(self):
        """A kernel fault that never clears still recovers via the
        reference engine (which skips the chaos-instrumented kernel)."""
        runner = make_runner()
        failures = []
        rule = ChaosRule("kernel", "raise", match="crc:way-placement", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            report = run_cell(runner, CELLS[1], failures)
        assert report.counters.fetches > 0
        assert failures[0].recovery == "engine-fallback"
        assert failures[0].attempts == 2  # the fast kernel, then reference

    def test_failure_on_the_reference_engine_is_fatal(self):
        runner = make_runner()
        failures = []
        rule = ChaosRule("cell", "raise", match="crc:baseline", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            with pytest.raises(RetriesExhausted) as info:
                run_cell(runner, CELLS[0], failures)
        assert info.value.attempts == 2
        [incident] = failures
        assert not incident.recovered and incident.recovery == "none"
        assert incident.attempts == 2 and len(incident.causes) == 2
        assert runner.engine is None  # original engine restored

    def test_failure_report_names_the_cache(self):
        # The same benchmark, scheme and WPA in two caches: a cell rule
        # matching one cache's label fails exactly that cell, and its
        # incident says which cache it was.
        small = XSCALE_BASELINE.with_icache(16 * KB, 8)
        cells = [
            GridCell("crc", "way-placement", wpa_size=8 * KB),
            GridCell("crc", "way-placement", small, wpa_size=8 * KB),
        ]
        runner = make_runner()
        rule = ChaosRule("cell", "raise", match=":icache=16384/8/32", times=1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            got = runner.run_grid(cells)
        assert got == make_runner().run_grid(cells)
        [incident] = runner.last_failures
        assert incident.recovered and incident.recovery == "engine-fallback"
        assert incident.cell == "crc:way-placement:wpa8192:icache=16384/8/32"

    def test_static_errors_fail_immediately(self):
        runner = make_runner()
        failures = []
        cell = GridCell("crc", "no-such-scheme")
        with pytest.raises(RetriesExhausted) as info:
            run_cell(runner, cell, failures)
        assert info.value.attempts == 1  # no second attempt for config errors
        assert isinstance(info.value.__cause__, SchemeError)
        assert not failures[0].recovered


class TestChaosGridAcceptance:
    """Crash + hang + store faults mid-grid; results still bit-identical."""

    def test_supervised_grid_survives_seeded_chaos(self, tmp_path):
        want = fault_free_reports()
        config = ChaosConfig(
            seed=13,
            rules=(
                # first crc worker dies at its entry point
                ChaosRule("worker", "crash", match="crc@1", times=1),
                # first sha worker hangs until the supervisor kills it
                ChaosRule("worker", "hang", match="sha@1", times=1, delay_s=60.0),
                # the vectorized kernel trips the sanitizer once per process
                ChaosRule("kernel", "sanitizer", match="crc:way-placement", times=1),
                # and the trace store hits a full disk on first write
                ChaosRule("store.save", "enospc", match="blocks:", times=1),
            ),
        )
        runner = make_runner(
            tmp_path / "cache",
            resilience=ResilienceConfig(retries=2, timeout_s=2.0),
        )
        with chaos.active(config):
            got = runner.run_grid(CELLS, jobs=2)

        assert got == want  # bit-identical, not merely close
        assert runner.last_failures, "chaos incidents must be reported"
        assert all(failure.recovered for failure in runner.last_failures)
        recoveries = {failure.recovery for failure in runner.last_failures}
        assert "fresh-worker" in recoveries
        causes = " ".join(
            cause for failure in runner.last_failures for cause in failure.causes
        )
        assert "crashed" in causes
        assert "timed out" in causes
        summary = runner.last_grid
        assert summary.total == len(CELLS)
        assert summary.failed == ()
        assert len(summary.executed) == len(CELLS)

    def test_serial_chaos_grid_is_also_bit_identical(self):
        want = fault_free_reports()
        config = ChaosConfig(
            seed=7,
            rules=(
                ChaosRule("cell", "raise", match="sha:baseline", times=1),
                ChaosRule("kernel", "sanitizer", match="crc:way-placement", times=-1),
            ),
        )
        runner = make_runner()
        with chaos.active(config):
            got = runner.run_grid(CELLS, jobs=1)
        assert got == want
        assert len(runner.last_failures) == 2
        recoveries = {f.recovery for f in runner.last_failures}
        assert recoveries == {"engine-fallback"}


class TestLocalPool:
    """The parallel path: forked workers, one per benchmark chunk, each
    loading its own traces from the store."""

    def test_warm_parallel_grid_builds_nothing_in_the_parent(
        self, tmp_path, monkeypatch
    ):
        """On a warm store the parent only schedules: no workload is built
        before (or instead of) the workers, and the reports are
        bit-identical to a serial run."""
        import repro.experiments.runner as runner_module

        cache = tmp_path / "cache"
        want = make_runner(cache).run_grid(CELLS, jobs=1)
        built = []
        load_benchmark = runner_module.load_benchmark

        def counting(name):
            built.append(name)
            return load_benchmark(name)

        monkeypatch.setattr(runner_module, "load_benchmark", counting)
        runner = make_runner(cache)
        got = runner.run_grid(CELLS, jobs=2)
        assert got == want
        assert built == []
        assert len(runner.last_grid.executed) == len(CELLS)

    def test_cold_parallel_grid_matches_serial_and_warms_the_store(
        self, tmp_path, monkeypatch
    ):
        """On a cold store the workers derive and persist their own traces:
        the reports are bit-identical to a storeless serial run, and a
        second parallel run over the same store builds nothing in the
        parent."""
        import repro.experiments.runner as runner_module

        cache = tmp_path / "cold-cache"
        want = fault_free_reports()
        runner = make_runner(cache)
        got = runner.run_grid(CELLS, jobs=2)
        assert got == want
        assert len(runner.last_grid.executed) == len(CELLS)

        built = []
        load_benchmark = runner_module.load_benchmark

        def counting(name):
            built.append(name)
            return load_benchmark(name)

        monkeypatch.setattr(runner_module, "load_benchmark", counting)
        assert make_runner(cache).run_grid(CELLS, jobs=2) == want
        assert built == []

    def test_worker_store_degradation_warns_once_in_parent(self, tmp_path):
        """One degrade warning for a whole pool of failing workers."""
        from repro.engine import store as store_module

        store_module._warned_write_failure = False
        try:
            runner = make_runner(
                tmp_path / "cache",
                resilience=ResilienceConfig(retries=3, timeout_s=10.0),
            )
            rule = ChaosRule("store.save", "enospc", times=-1)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with chaos.active(ChaosConfig(seed=3, rules=(rule,))):
                    got = runner.run_grid(CELLS, jobs=2)
            assert got == fault_free_reports()
            degrade = [w for w in caught if "trace cache write" in str(w.message)]
            assert len(degrade) == 1
        finally:
            store_module._warned_write_failure = False


class TestLadderChaos:
    """Worker replacement + a kernel sanitizer trip in the replacement,
    all in one supervised parallel run."""

    SWEEP_CELLS = [
        GridCell("crc", "way-placement", wpa_size=4 * KB),
        GridCell("crc", "way-placement", wpa_size=8 * KB),
        GridCell("sha", "way-placement", wpa_size=4 * KB),
        GridCell("sha", "way-placement", wpa_size=8 * KB),
    ]

    def test_hung_worker_and_kernel_trip_recover(self):
        want = make_runner(engine="reference").run_grid(self.SWEEP_CELLS, jobs=1)
        runner = make_runner(
            resilience=ResilienceConfig(retries=2, timeout_s=2.0),
        )
        config = ChaosConfig(
            seed=13,
            rules=(
                # the first crc worker hangs until the supervisor kills it
                ChaosRule("worker", "hang", match="crc@1", times=1, delay_s=60.0),
                # in its replacement, one way-placement kernel trips the
                # sanitizer and its cell falls back to the reference engine
                ChaosRule("kernel", "sanitizer", match="crc:way-placement", times=1),
            ),
        )
        with chaos.active(config):
            got = runner.run_grid(self.SWEEP_CELLS, jobs=2)
        assert got == want
        incidents = runner.last_failures
        assert all(f.recovered for f in incidents)
        recoveries = {f.recovery for f in incidents}
        assert {"fresh-worker", "engine-fallback"} <= recoveries
        causes = " ".join(c for f in incidents for c in f.causes)
        assert "timed out" in causes


class TestChaosDrill:
    def test_build_rules_is_deterministic(self):
        from repro.resilience.drill import build_rules

        assert build_rules(13) == build_rules(13)
        sites = {rule.site for rule in build_rules(13)}
        assert {"worker", "kernel", "cell", "store.save"} == sites

    def test_seeded_drill_stays_bit_identical(self):
        from repro.resilience.drill import run_drill

        summary = run_drill(seed=5)
        assert summary["ok"], summary["incidents"]
        assert summary["identical"] and summary["recovered"]


class TestPartialCompletion:
    """Satellite: completed work is adopted before a failure surfaces."""

    def test_serial_failure_keeps_completed_cells(self):
        runner = make_runner(resilience=ResilienceConfig(retries=0))
        rule = ChaosRule("cell", "raise", match="sha:way-placement", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            with pytest.raises(CellFailure) as info:
                runner.run_grid(CELLS, jobs=1)
        for cell in CELLS[:3]:
            assert runner.has_report(cell), "completed cells must be adopted"
        assert not runner.has_report(CELLS[3])
        assert runner.last_grid.failed == (cell_content_key(CELLS[3]),)
        fatal = [f for f in info.value.failures if not f.recovered]
        assert len(fatal) == 1 and fatal[0].benchmark == "sha"

    def test_parallel_failure_keeps_other_chunks_and_partial_chunks(self):
        """A chunk that fails mid-way ships its completed cells back; the
        supervisor adopts them (and every other chunk) before raising."""
        runner = make_runner(resilience=ResilienceConfig(retries=0))
        rule = ChaosRule("cell", "raise", match="sha:way-placement", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            with pytest.raises(CellFailure):
                runner.run_grid(CELLS, jobs=2)
        for cell in CELLS[:3]:
            assert runner.has_report(cell)
        assert not runner.has_report(CELLS[3])

    def test_cell_failure_chains_the_underlying_error(self):
        runner = make_runner(resilience=ResilienceConfig(retries=0))
        rule = ChaosRule("cell", "raise", match="crc", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            with pytest.raises(CellFailure) as info:
                runner.run_grid(CELLS[:2], jobs=1)
        assert isinstance(info.value.__cause__, RetriesExhausted)


class TestResumeAcceptance:
    """Interrupt a grid, resume it, re-execute only the missing cells."""

    def test_interrupted_grid_resumes_from_journal(self, tmp_path):
        cache = tmp_path / "cache"
        fail_fast = ResilienceConfig(retries=0)
        first = make_runner(cache, resilience=fail_fast)
        rule = ChaosRule("cell", "raise", match="sha:way-placement", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            with pytest.raises(CellFailure):
                first.run_grid(CELLS, jobs=1)

        # the journal holds exactly the three completed cells
        key = grid_digest(first.spawn_spec(), [cell_content_key(c) for c in CELLS])
        journal = ResumeJournal.for_grid(cache, key)
        completed = journal.load()
        assert set(completed) == {cell_content_key(c) for c in CELLS[:3]}

        # a fresh process resumes: only the missing cell re-executes
        resumed = make_runner(
            cache, resilience=dataclasses.replace(fail_fast, resume=True)
        )
        reports = resumed.run_grid(CELLS, jobs=1)
        assert reports == fault_free_reports()
        summary = resumed.last_grid
        assert set(summary.resumed) == {cell_content_key(c) for c in CELLS[:3]}
        assert summary.executed == (cell_content_key(CELLS[3]),)
        # clean completion deletes the journal
        assert not journal.path.exists()

    def test_cache_clear_discards_grid_journals(self, tmp_path):
        cache = tmp_path / "cache"
        first = make_runner(cache, resilience=ResilienceConfig(retries=0))
        rule = ChaosRule("cell", "raise", match="sha:way-placement", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            with pytest.raises(CellFailure):
                first.run_grid(CELLS, jobs=1)
        key = grid_digest(first.spawn_spec(), [cell_content_key(c) for c in CELLS])
        journal = ResumeJournal.for_grid(cache, key)
        assert journal.path.exists()

        # the journal is counted like a store entry, and then it is gone
        entries = sum(first.store.entries().values())
        assert first.store.clear() == entries + 1
        assert not journal.path.exists()

        # so a resumed rerun adopts nothing from before the clear
        resumed = make_runner(cache, resilience=ResilienceConfig(resume=True))
        assert resumed.run_grid(CELLS, jobs=1) == fault_free_reports()
        assert resumed.last_grid.resumed == ()
        assert len(resumed.last_grid.executed) == len(CELLS)

    def test_resume_of_a_different_grid_re_executes_everything(self, tmp_path):
        cache = tmp_path / "cache"
        config = ResilienceConfig(resume=True)
        runner = make_runner(cache, resilience=config)
        runner.run_grid(CELLS[:2], jobs=1)
        # different eval budget => different grid digest => cold resume
        other = make_runner(cache, eval_instructions=9_000, resilience=config)
        other.run_grid(CELLS[:2], jobs=1)
        assert other.last_grid.resumed == ()
        assert len(other.last_grid.executed) == 2


class TestRunnerSurface:
    def test_runner_validates_resilience_config(self):
        from repro.errors import ResilienceError

        with pytest.raises(ResilienceError):
            make_runner(resilience=ResilienceConfig(retries=-2))

    def test_default_config_reports_clean_summary(self):
        runner = make_runner()
        runner.run_grid(CELLS[:2], jobs=1)
        assert runner.last_failures == []
        assert runner.last_grid.failed == ()
        # re-running is all memo hits
        runner.run_grid(CELLS[:2], jobs=1)
        assert len(runner.last_grid.memoised) == 2
        assert runner.last_grid.executed == ()


class TestPerCellGrid:
    def test_default_runner_sweep_matches_reference(self):
        # No engine argument: every cell of a WPA sweep replays on its fast
        # kernel, none falls back, and each equals the reference engine.
        cells = [GridCell("crc", "baseline")] + [
            GridCell("crc", "way-placement", wpa_size=size * KB)
            for size in (4, 8, 16)
        ]
        runner = make_runner()
        assert resolve_engine(runner.engine) == "fast"
        reports = runner.run_grid(cells)
        assert runner.last_failures == []
        assert len(runner.last_grid.executed) == len(cells)

        reference_reports = make_runner(engine="reference").run_grid(cells)
        for cell, report, reference_report in zip(cells, reports, reference_reports):
            assert report.counters == reference_report.counters, cell
            assert report.breakdown == reference_report.breakdown, cell
            assert report.cycles == reference_report.cycles, cell

    def test_sweep_in_two_geometries_matches_reference(self):
        # A Figure 6 style grid: each cell replays on its own kernel, the
        # cells of one geometry sharing the per-trace arrays.
        small = XSCALE_BASELINE.with_icache(16 * KB, 4)
        cells = [
            GridCell("crc", "baseline"),
            GridCell("crc", "baseline", small),
        ] + [
            GridCell("crc", "way-placement", machine, wpa_size=size * KB)
            for machine in (XSCALE_BASELINE, small)
            for size in (4, 8, 16)
        ]
        reports = make_runner().run_grid(cells)
        reference_reports = make_runner(engine="reference").run_grid(cells)
        for cell, report, reference_report in zip(cells, reports, reference_reports):
            assert report.counters == reference_report.counters, cell
            assert report.breakdown == reference_report.breakdown, cell
            assert report.cycles == reference_report.cycles, cell


class TestCliFlags:
    def test_supervision_flags_reach_the_runner(self):
        from repro.cli import _make_runner, build_parser

        args = build_parser().parse_args(
            [
                "figure4",
                "--benchmarks",
                "crc",
                "--retries",
                "5",
                "--timeout",
                "30",
                "--resume",
            ]
        )
        runner = _make_runner(args)
        config = runner.resilience
        assert config.retries == 5
        assert config.timeout_s == 30.0
        assert config.resume is True

    def test_chaos_seed_flags_are_mutually_exclusive(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--seed", "1", "--seeds", "1,2"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_no_flags_means_no_explicit_config(self):
        from repro.cli import _make_runner, build_parser

        args = build_parser().parse_args(["figure4", "--benchmarks", "crc"])
        assert _make_runner(args).resilience is None
