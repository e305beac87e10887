"""Tests for grid checkpoint–resume: content keys, serialization, journal."""

import json
import warnings

import pytest

from repro.engine.grid import GridCell
from repro.experiments.runner import ExperimentRunner
from repro.resilience.journal import (
    ResumeJournal,
    cell_content_key,
    grid_digest,
    report_from_dict,
    report_to_dict,
)
from repro.resilience.policy import ResilienceConfig
from repro.sim.machine import XSCALE_BASELINE

KB = 1024


def make_runner(cache_dir, **kwargs):
    kwargs.setdefault("eval_instructions", 8_000)
    kwargs.setdefault("profile_instructions", 4_000)
    return ExperimentRunner(cache_dir=cache_dir, **kwargs)


class TestContentKeys:
    def test_key_distinguishes_every_cell_axis(self):
        base = GridCell("crc", "baseline")
        variants = [
            GridCell("sha", "baseline"),
            GridCell("crc", "way-placement"),
            GridCell("crc", "baseline", wpa_size=8 * KB),
            GridCell("crc", "baseline", l0_size=256),
            GridCell(
                "crc", "baseline", machine=XSCALE_BASELINE.with_icache(16 * KB, 16, 32)
            ),
        ]
        keys = {cell_content_key(cell) for cell in variants}
        assert cell_content_key(base) not in keys
        assert len(keys) == len(variants)

    def test_grid_digest_covers_result_bearing_spec_fields(self):
        cells = [cell_content_key(GridCell("crc", "baseline"))]
        spec = {"eval_instructions": 8000, "profile_instructions": 4000, "seed": 1}
        assert grid_digest(spec, cells) == grid_digest(dict(spec), list(cells))
        changed = dict(spec, eval_instructions=9000)
        assert grid_digest(changed, cells) != grid_digest(spec, cells)
        assert grid_digest(spec, cells + ["extra"]) != grid_digest(spec, cells)

    def test_grid_digest_ignores_execution_only_settings(self):
        """Changing cache dir / engine / sanitizing must not orphan a journal."""
        cells = ["k"]
        spec = {"eval_instructions": 8000, "seed": 1, "cache_dir": "/a", "engine": None}
        other = dict(spec, cache_dir="/b", engine="reference", sanitize=True)
        assert grid_digest(spec, cells) == grid_digest(other, cells)

    def test_cell_order_does_not_matter(self):
        spec = {"seed": 1}
        assert grid_digest(spec, ["a", "b"]) == grid_digest(spec, ["b", "a"])


class TestReportSerialization:
    def test_report_roundtrips_bit_identically(self, fast_runner):
        report = fast_runner.report("crc", "way-placement", wpa_size=8 * KB)
        payload = json.loads(json.dumps(report_to_dict(report)))
        assert report_from_dict(payload) == report


class TestResumeJournal:
    def test_record_flush_load_roundtrip(self, tmp_path, fast_runner):
        report = fast_runner.report("crc", "baseline")
        journal = ResumeJournal.for_grid(tmp_path, "g1")
        journal.record("cell-key", report)
        journal.flush()
        fresh = ResumeJournal.for_grid(tmp_path, "g1")
        completed = fresh.load()
        assert set(completed) == {"cell-key"}
        assert report_from_dict(completed["cell-key"]) == report

    def test_foreign_or_corrupt_journal_loads_empty(self, tmp_path, fast_runner):
        journal = ResumeJournal.for_grid(tmp_path, "g1")
        journal.record("k", fast_runner.report("crc", "baseline"))
        journal.flush()
        assert ResumeJournal.for_grid(tmp_path, "other-grid").load() == {}
        journal.path.write_text("{torn")
        assert ResumeJournal.for_grid(tmp_path, "g1").load() == {}

    def test_missing_journal_loads_empty(self, tmp_path):
        assert ResumeJournal.for_grid(tmp_path, "g1").load() == {}

    def test_discard_removes_the_file(self, tmp_path, fast_runner):
        journal = ResumeJournal.for_grid(tmp_path, "g1")
        journal.record("k", fast_runner.report("crc", "baseline"))
        journal.flush()
        assert journal.path.exists()
        journal.discard()
        assert not journal.path.exists()
        journal.discard()  # idempotent

    def test_unwritable_journal_degrades_with_one_warning(
        self, tmp_path, fast_runner
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        journal = ResumeJournal(blocker / "grids" / "j.json", "g1")
        journal.record("k", fast_runner.report("crc", "baseline"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            journal.flush()
            journal.flush()
        messages = [w for w in caught if "journal write failed" in str(w.message)]
        assert len(messages) == 1
        assert journal._disabled

    def test_flush_appends_jsonl_records_under_a_header(self, tmp_path, fast_runner):
        """The journal is header + one self-contained JSON record per line,
        and flushing appends only what accumulated since the last flush."""
        journal = ResumeJournal.for_grid(tmp_path, "g1")
        journal.record("k1", fast_runner.report("crc", "baseline"))
        journal.flush()
        first_size = journal.path.stat().st_size
        journal.record("k2", fast_runner.report("sha", "baseline"))
        journal.flush()
        leftovers = [
            p for p in journal.path.parent.iterdir() if p.name != journal.path.name
        ]
        assert leftovers == []
        lines = journal.path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"version": 2, "grid_key": "g1"}
        assert [json.loads(line)["cell"] for line in lines[1:]] == ["k1", "k2"]
        # append-only: the first flush's bytes are a prefix of the file
        assert journal.path.read_text().encode()[:first_size]
        assert journal.path.stat().st_size > first_size

    def test_torn_trailing_line_loses_only_that_record(self, tmp_path, fast_runner):
        """A crash mid-append tears at most the last line; the loader skips
        it with one warning and only the torn cell re-executes."""
        journal = ResumeJournal.for_grid(tmp_path, "g1")
        journal.record("k1", fast_runner.report("crc", "baseline"))
        journal.record("k2", fast_runner.report("sha", "baseline"))
        journal.flush()
        lines = journal.path.read_text().splitlines()
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        journal.path.write_text(torn)  # tear the trailing (k2) record
        fresh = ResumeJournal.for_grid(tmp_path, "g1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            completed = fresh.load()
        assert set(completed) == {"k1"}
        messages = [w for w in caught if "corrupt record" in str(w.message)]
        assert len(messages) == 1

    def test_garbage_records_are_skipped_with_one_warning(
        self, tmp_path, fast_runner
    ):
        journal = ResumeJournal.for_grid(tmp_path, "g1")
        journal.record("k1", fast_runner.report("crc", "baseline"))
        journal.flush()
        with open(journal.path, "a") as handle:
            handle.write("not json at all\n")
            handle.write('{"neither": "cell", "nor": "report"}\n')
            handle.write('{"cell": 17, "report": "not-a-dict"}\n')
        fresh = ResumeJournal.for_grid(tmp_path, "g1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            completed = fresh.load()
        assert set(completed) == {"k1"}
        messages = [w for w in caught if "3 corrupt record" in str(w.message)]
        assert len(messages) == 1

    def test_duplicate_cell_records_are_replay_safe(self, tmp_path, fast_runner):
        """A cell recorded twice (a resumed run) loads once; the engines
        are bit-identical so the last occurrence wins."""
        report = fast_runner.report("crc", "baseline")
        journal = ResumeJournal.for_grid(tmp_path, "g1")
        journal.record("k", report)
        journal.record("k", report)
        journal.flush()
        fresh = ResumeJournal.for_grid(tmp_path, "g1")
        completed = fresh.load()
        assert set(completed) == {"k"}
        assert report_from_dict(completed["k"]) == report

    def test_journal_with_lease_lines_still_resumes(self, tmp_path):
        """A journal written by the retired sharded backend interleaves
        shard-lease lines with cell lines.  Resume adopts every recorded
        cell; the lease lines are skipped under the one-time corrupt-record
        warning."""
        cells = TestJournalLifecycleInGrids.CELLS
        cache = tmp_path / "cache"
        want = make_runner("off").run_grid(cells, jobs=1)
        keys = [cell_content_key(cell) for cell in cells]
        grid_key = grid_digest(make_runner(cache).spawn_spec(), keys)
        path = ResumeJournal.for_grid(cache, grid_key).path
        path.parent.mkdir(parents=True)
        lines = [{"version": 2, "grid_key": grid_key}]
        for attempt, (key, report) in enumerate(zip(keys, want), start=1):
            lease = {"shard": f"crc:{attempt}", "worker": attempt, "attempt": 1, "cells": [key]}
            lines.append({"lease": lease})
            lines.append({"cell": key, "report": report_to_dict(report)})
        path.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))

        runner = make_runner(cache, resilience=ResilienceConfig(resume=True))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = runner.run_grid(cells, jobs=1)
        assert got == want
        assert set(runner.last_grid.resumed) == set(keys)
        assert runner.last_grid.executed == ()
        messages = [w for w in caught if "2 corrupt record" in str(w.message)]
        assert len(messages) == 1


class TestJournalLifecycleInGrids:
    CELLS = [
        GridCell("crc", "baseline"),
        GridCell("crc", "way-placement", wpa_size=8 * KB),
    ]

    def test_clean_grid_leaves_no_journal(self, tmp_path):
        runner = make_runner(tmp_path / "cache")
        runner.run_grid(self.CELLS, jobs=1)
        grids = tmp_path / "cache" / "grids"
        assert not grids.exists() or list(grids.iterdir()) == []

    def test_resume_without_store_is_rejected(self):
        from repro.errors import ResilienceError

        runner = make_runner("off", resilience=ResilienceConfig(resume=True))
        with pytest.raises(ResilienceError, match="resume"):
            runner.run_grid(self.CELLS, jobs=1)
