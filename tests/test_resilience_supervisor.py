"""Tests for supervised grid execution: the recovery ladder end to end.

The acceptance bar (see docs/robustness.md): a seeded chaos run that
crashes workers, hangs workers, and injects store faults mid-grid must
still return reports bit-identical to a fault-free serial run, with a
FailureReport describing every recovery; and an interrupted grid, run
again on the same store with no flag, must re-execute only the missing
cells.
"""

import os
import warnings

import pytest

from repro.engine.grid import GridCell
from repro.errors import CellFailure, RetriesExhausted, SchemeError
from repro.experiments.runner import ExperimentRunner
from repro.resilience import chaos
from repro.resilience.chaos import ChaosConfig, ChaosRule
from repro.resilience.supervisor import run_cell, supervise_grid
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
                # the crc worker dies at its entry point
                ChaosRule("worker", "crash", match="crc", times=1),
                # the sha worker hangs until the supervisor kills it
                ChaosRule("worker", "hang", match="sha", times=1, delay_s=60.0),
                # the vectorized kernel trips the sanitizer once per process
                ChaosRule("kernel", "sanitizer", match="crc:way-placement", times=1),
                # and the trace store hits a full disk on first write
                ChaosRule("store.save", "enospc", match="blocks:", times=1),
            ),
        )
        runner = make_runner(
            tmp_path / "cache",
            timeout_s=2.0,
        )
        with chaos.active(config):
            got = runner.run_grid(CELLS, jobs=2)

        assert got == want  # bit-identical, not merely close
        assert runner.last_failures, "chaos incidents must be reported"
        assert all(failure.recovered for failure in runner.last_failures)
        recoveries = {failure.recovery for failure in runner.last_failures}
        assert "in-process" in recoveries
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
                timeout_s=10.0,
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
    """A hung worker's cells run in the parent, where a kernel sanitizer
    trip falls back to the reference engine, all in one supervised
    parallel run."""

    SWEEP_CELLS = [
        GridCell("crc", "way-placement", wpa_size=4 * KB),
        GridCell("crc", "way-placement", wpa_size=8 * KB),
        GridCell("sha", "way-placement", wpa_size=4 * KB),
        GridCell("sha", "way-placement", wpa_size=8 * KB),
    ]

    def test_hung_worker_and_kernel_trip_recover(self):
        want = make_runner(engine="reference").run_grid(self.SWEEP_CELLS, jobs=1)
        runner = make_runner(
            timeout_s=2.0,
        )
        config = ChaosConfig(
            seed=13,
            rules=(
                # the crc worker hangs until the supervisor kills it
                ChaosRule("worker", "hang", match="crc", times=1, delay_s=60.0),
                # in the parent, one way-placement kernel trips the
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
        assert {"in-process", "engine-fallback"} <= recoveries
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

    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_drill_tears_a_store_write_and_reads_it_back(self, seed, monkeypatch):
        """The schedule's truncate rule fires, and the drill's fault-free
        re-run on the same store loads the torn entry and discards it."""
        from repro.engine import store as store_module
        from repro.engine.store import TraceStore
        from repro.resilience.drill import run_drill

        torn, discarded = [], []
        corrupt_file = store_module.corrupt_file

        def tearing(site, key, path):
            size = os.path.getsize(path)
            corrupt_file(site, key, path)
            if os.path.getsize(path) < size:
                torn.append(key.split(":", 1)[0])

        discard = TraceStore._discard

        def discarding(store, path):
            discarded.append(path.name.split("-", 1)[0])
            discard(store, path)

        monkeypatch.setattr(store_module, "corrupt_file", tearing)
        monkeypatch.setattr(TraceStore, "_discard", discarding)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary = run_drill(seed=seed, jobs=1)
        assert summary["ok"], summary["incidents"]
        assert torn == ["events"]
        assert discarded == ["events"]


class TestPartialCompletion:
    """Satellite: completed work is adopted before a failure surfaces."""

    def test_serial_failure_keeps_completed_cells(self):
        runner = make_runner()
        rule = ChaosRule("cell", "raise", match="sha:way-placement", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            with pytest.raises(CellFailure) as info:
                runner.run_grid(CELLS, jobs=1)
        for cell in CELLS[:3]:
            assert runner.has_report(cell), "completed cells must be adopted"
        assert not runner.has_report(CELLS[3])
        assert runner.last_grid.failed == (CELLS[3].key,)
        fatal = [f for f in info.value.failures if not f.recovered]
        assert len(fatal) == 1 and fatal[0].benchmark == "sha"

    def test_parallel_failure_keeps_other_chunks_and_partial_chunks(self):
        """A chunk that fails mid-way ships its completed cells back; the
        supervisor adopts them (and every other chunk) before raising."""
        runner = make_runner()
        rule = ChaosRule("cell", "raise", match="sha:way-placement", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            with pytest.raises(CellFailure):
                runner.run_grid(CELLS, jobs=2)
        for cell in CELLS[:3]:
            assert runner.has_report(cell)
        assert not runner.has_report(CELLS[3])

    def test_static_error_in_a_worker_runs_once_more_in_the_parent(self):
        """A worker that reports a failed cell hands it to the parent,
        which runs it once: one cell incident per engine ladder, one
        unrecovered worker incident, and the other worker's cell kept."""
        bad, good = GridCell("crc", "no-such-scheme"), GridCell("sha", "baseline")
        runner = make_runner()
        with pytest.raises(CellFailure):
            runner.run_grid([bad, good], jobs=2)
        assert runner.has_report(good)
        assert runner.last_grid.failed == (bad.key,)
        cell_incidents = [
            f for f in runner.last_failures if f.site == "cell" and f.benchmark == "crc"
        ]
        assert len(cell_incidents) == 2  # the worker's ladder, then the parent's
        [worker] = [f for f in runner.last_failures if f.site == "worker"]
        assert worker.benchmark == "crc"
        assert worker.attempts == 2
        assert worker.recovery == "none" and not worker.recovered
        assert "RetriesExhausted" in worker.causes[0]

    def test_cell_failure_chains_the_underlying_error(self):
        runner = make_runner()
        rule = ChaosRule("cell", "raise", match="crc", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            with pytest.raises(CellFailure) as info:
                runner.run_grid(CELLS[:2], jobs=1)
        assert isinstance(info.value.__cause__, RetriesExhausted)


def interrupt(cache, **kwargs):
    """Run CELLS on ``cache`` with the last cell failing on both engines;
    returns the interrupted runner."""
    runner = make_runner(cache, **kwargs)
    rule = ChaosRule("cell", "raise", match="sha:way-placement", times=-1)
    with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
        with pytest.raises(CellFailure):
            runner.run_grid(CELLS, jobs=1)
    return runner


class TestResumeAcceptance:
    """Interrupt a grid, run it again with no flag, re-execute only the
    missing cells."""

    def test_interrupted_grid_resumes_by_running_again(self, tmp_path):
        cache = tmp_path / "cache"
        first = interrupt(cache)
        # the store holds exactly the three completed cells
        assert first.store.entries()["report"] == 3

        # a fresh process runs the grid again: only the missing cell runs
        again = make_runner(cache)
        reports = again.run_grid(CELLS, jobs=1)
        assert reports == fault_free_reports()
        summary = again.last_grid
        assert set(summary.resumed) == {c.key for c in CELLS[:3]}
        assert summary.executed == (CELLS[3].key,)
        # clean completion deletes every report entry
        assert again.store.entries()["report"] == 0

    def test_parallel_run_again_executes_only_the_failed_cells(self, tmp_path):
        cache = tmp_path / "cache"
        interrupt(cache)
        again = make_runner(cache)
        assert again.run_grid(CELLS, jobs=2) == fault_free_reports()
        assert again.last_grid.executed == (CELLS[3].key,)
        assert len(again.last_grid.resumed) == 3
        assert again.store.entries()["report"] == 0

    def test_cache_clear_discards_stored_reports(self, tmp_path):
        cache = tmp_path / "cache"
        first = interrupt(cache)
        # report entries are counted like every other entry, then gone
        entries = first.store.entries()
        assert entries["report"] == 3
        assert first.store.clear() == sum(entries.values())

        # so running again adopts nothing from before the clear
        again = make_runner(cache)
        assert again.run_grid(CELLS, jobs=1) == fault_free_reports()
        assert again.last_grid.resumed == ()
        assert len(again.last_grid.executed) == len(CELLS)

    def test_resume_of_a_different_grid_re_executes_everything(self, tmp_path):
        """A budget change is a different grid: nothing is adopted."""
        cache = tmp_path / "cache"
        interrupt(cache)
        other = make_runner(cache, eval_instructions=9_000)
        other.run_grid(CELLS, jobs=1)
        assert other.last_grid.resumed == ()
        assert len(other.last_grid.executed) == len(CELLS)

    def test_an_engine_change_adopts_nothing(self, tmp_path):
        cache = tmp_path / "cache"
        interrupt(cache)
        other = make_runner(cache, engine="reference")
        assert other.run_grid(CELLS, jobs=1) == fault_free_reports()
        assert other.last_grid.resumed == ()
        assert len(other.last_grid.executed) == len(CELLS)

    def test_a_changed_source_digest_adopts_nothing(self, tmp_path, monkeypatch):
        """Reports computed by other code are never adopted."""
        from repro.engine import store as store_module

        cache = tmp_path / "cache"
        interrupt(cache)
        monkeypatch.setattr(store_module, "source_digest", lambda: "other-code")
        other = make_runner(cache)
        assert other.run_grid(CELLS, jobs=1) == fault_free_reports()
        assert other.last_grid.resumed == ()
        assert len(other.last_grid.executed) == len(CELLS)

    def test_source_digest_waits_for_the_first_stored_grid(self, tmp_path):
        """Building a runner never hashes the package's source."""
        from repro.engine.store import source_digest

        source_digest.cache_clear()
        runner = make_runner(tmp_path / "cache")
        assert source_digest.cache_info().misses == 0
        runner.run_grid(CELLS[:1], jobs=1)
        assert source_digest.cache_info().misses == 1


class TestRunnerSurface:
    def test_runner_validates_timeout(self):
        from repro.errors import ResilienceError

        with pytest.raises(ResilienceError):
            make_runner(timeout_s=-2.0)
        with pytest.raises(ResilienceError):
            supervise_grid(make_runner(), CELLS[:1], timeout_s=0)

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
            ["figure4", "--benchmarks", "crc", "--timeout", "30"]
        )
        assert _make_runner(args).timeout_s == 30.0

    def test_no_flags_means_no_explicit_config(self):
        from repro.cli import _make_runner, build_parser

        args = build_parser().parse_args(["figure4", "--benchmarks", "crc"])
        assert _make_runner(args).timeout_s is None
