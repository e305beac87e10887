"""Checkpoint–resume journal for supervised experiment grids.

A long grid that dies at cell 180 of 200 should not owe the world 180
simulations.  The supervisor checkpoints every completed cell's full
:class:`~repro.sim.report.SimulationReport` into a *grid journal*: one
JSONL file, content-keyed by a digest of the runner spec and the cell
list.  The first line is a header naming the format version and grid key;
every following line is one self-contained record of a completed cell's
report.  Flushing *appends* only the records written since the last
flush, so checkpoint cost is proportional to progress, not to grid size.

Records are replay-safe: a cell recorded twice (a resumed run) carries the
identical report both times, and :meth:`ResumeJournal.load` keeps the last
occurrence.  A crash mid-append can tear at most the trailing line; the
loader skips corrupt records with a one-time warning and the affected
cells simply re-execute.  Records it does not recognise — including the
shard-lease lines older journals carry — are skipped the same way.

Reports serialize losslessly: every field is an ``int``, ``str``, or IEEE
double (JSON round-trips doubles exactly), so a resumed cell's report is
bit-identical to the one the interrupted run computed.  ``--resume`` loads
the journal, adopts the completed reports into the runner's memo, and
re-executes only the missing cells; a grid that finishes cleanly deletes
its journal.

Journal I/O faults never kill a run: a journal that cannot be written
degrades to no-checkpointing with a one-time warning, and a corrupt or
foreign journal loads as empty.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Sequence, Union

from repro.cache.access import FetchCounters
from repro.cache.geometry import CacheGeometry
from repro.energy.cache_model import EnergyBreakdown
from repro.energy.processor import ProcessorReport
from repro.sim.report import SimulationReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.grid import GridCell

__all__ = [
    "ResumeJournal",
    "cell_content_key",
    "grid_digest",
    "report_from_dict",
    "report_to_dict",
]

_FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# Content keys
# ---------------------------------------------------------------------------
def cell_content_key(cell: "GridCell") -> str:
    """A stable string identifying one cell's full configuration."""
    machine = cell.machine
    geometry = machine.icache
    policy = cell.layout_policy.value if cell.layout_policy is not None else "default"
    return (
        f"{cell.benchmark}|{cell.scheme}"
        f"|icache={geometry.size_bytes}/{geometry.ways}/{geometry.line_size}"
        f"/{geometry.address_bits}"
        f"|wpa={cell.wpa_size}|layout={policy}|sls={cell.same_line_skip}"
        f"|l0={cell.l0_size}|page={machine.page_size}|itlb={machine.itlb_entries}"
    )


def grid_digest(spec: Mapping[str, Any], cell_keys: Sequence[str]) -> str:
    """Digest of (runner spec, cell set) identifying a resumable grid.

    Only result-bearing spec fields participate: the cache directory,
    engine choice, and strict/sanitize switches do not change the numbers
    a grid produces, so changing them must not orphan a journal.
    """
    digest = hashlib.sha256()
    for name in (
        "eval_instructions",
        "profile_instructions",
        "organisation",
        "seed",
        "energy_params",
    ):
        digest.update(f"{name}={spec.get(name)!r}\n".encode())
    for key in sorted(cell_keys):
        digest.update(f"cell={key}\n".encode())
    return digest.hexdigest()[:24]


# ---------------------------------------------------------------------------
# Lossless SimulationReport serialization
# ---------------------------------------------------------------------------
def report_to_dict(report: SimulationReport) -> Dict[str, Any]:
    """A JSON-able form of ``report`` that round-trips bit-identically."""
    return {
        "benchmark": report.benchmark,
        "scheme": report.scheme,
        "layout_description": report.layout_description,
        "geometry": dataclasses.asdict(report.geometry),
        "wpa_size": report.wpa_size,
        "counters": dataclasses.asdict(report.counters),
        "cycles": report.cycles,
        "breakdown": dataclasses.asdict(report.breakdown),
        "processor": {
            "instructions": report.processor.instructions,
            "cycles": report.processor.cycles,
            "breakdown": dataclasses.asdict(report.processor.breakdown),
            "core_pj": report.processor.core_pj,
        },
    }


def report_from_dict(payload: Mapping[str, Any]) -> SimulationReport:
    """Rebuild the exact :class:`SimulationReport` serialized by
    :func:`report_to_dict`."""
    processor = payload["processor"]
    return SimulationReport(
        benchmark=payload["benchmark"],
        scheme=payload["scheme"],
        layout_description=payload["layout_description"],
        geometry=CacheGeometry(**payload["geometry"]),
        wpa_size=payload["wpa_size"],
        counters=FetchCounters(**payload["counters"]),
        cycles=payload["cycles"],
        breakdown=EnergyBreakdown(**payload["breakdown"]),
        processor=ProcessorReport(
            instructions=processor["instructions"],
            cycles=processor["cycles"],
            breakdown=EnergyBreakdown(**processor["breakdown"]),
            core_pj=processor["core_pj"],
        ),
    )


# ---------------------------------------------------------------------------
# The journal file
# ---------------------------------------------------------------------------
class ResumeJournal:
    """Append-only on-disk record of a grid's completed cells."""

    def __init__(self, path: Union[str, Path], grid_key: str):
        self.path = Path(path)
        self.grid_key = grid_key
        self.completed: Dict[str, Dict[str, Any]] = {}
        self._pending: List[str] = []
        self._disabled = False

    @classmethod
    def for_grid(
        cls, root: Union[str, Path], grid_key: str
    ) -> "ResumeJournal":
        """The journal of grid ``grid_key`` under cache directory ``root``."""
        return cls(Path(root) / "grids" / f"grid-{grid_key}.jsonl", grid_key)

    # -- reading ------------------------------------------------------------
    def load(self) -> Dict[str, Dict[str, Any]]:
        """Completed cells of a previous identical run (empty when none).

        An unreadable, stale-format, or foreign-grid journal loads as
        empty: resuming then simply re-executes everything.  A journal
        with corrupt *records* — a line torn by a crash mid-append, or
        trailing garbage — loses only those records: they are skipped with
        a one-time warning and the affected cells re-execute, instead of
        the whole journal (or the run) being thrown away.
        """
        try:
            lines = self.path.read_text().splitlines()
        except (OSError, UnicodeDecodeError):
            return {}
        if not lines:
            return {}
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            return {}
        if (
            not isinstance(header, dict)
            or header.get("version") != _FORMAT_VERSION
            or header.get("grid_key") != self.grid_key
        ):
            return {}
        completed: Dict[str, Dict[str, Any]] = {}
        skipped = 0
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(record, dict):
                skipped += 1
                continue
            if isinstance(record.get("cell"), str) and isinstance(
                record.get("report"), dict
            ):
                # Replay-safe: duplicate records carry identical reports,
                # so the last occurrence simply wins.
                completed[record["cell"]] = record["report"]
            else:
                skipped += 1
        if skipped:
            warnings.warn(
                f"grid journal {self.path.name} held {skipped} corrupt "
                f"record(s) (a crash mid-checkpoint?); skipping them — the "
                f"affected cell(s) will re-execute",
                RuntimeWarning,
                stacklevel=2,
            )
        self.completed = completed
        return self.completed

    # -- writing ------------------------------------------------------------
    def record(self, cell_key: str, report: SimulationReport) -> None:
        """Checkpoint one completed cell (buffered until :meth:`flush`)."""
        payload = report_to_dict(report)
        self.completed[cell_key] = payload
        self._pending.append(
            json.dumps({"cell": cell_key, "report": payload}, sort_keys=True)
        )

    def flush(self) -> None:
        """Append the records buffered since the last flush to disk.

        The first flush writes the header line.  A crash mid-append can
        tear at most the trailing line, which :meth:`load` recovers from
        by skipping it.
        """
        if self._disabled or not self._pending:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists()
            with open(self.path, "a") as handle:
                if fresh:
                    header = {
                        "version": _FORMAT_VERSION,
                        "grid_key": self.grid_key,
                    }
                    handle.write(json.dumps(header, sort_keys=True) + "\n")
                for line in self._pending:
                    handle.write(line + "\n")
            self._pending.clear()
        except OSError as error:
            self._disabled = True
            warnings.warn(
                f"grid journal write failed ({error}); continuing without "
                f"checkpoints",
                RuntimeWarning,
                stacklevel=2,
            )

    def discard(self) -> None:
        """Delete the journal (a cleanly finished grid needs no checkpoint)."""
        try:
            self.path.unlink()
        except OSError:
            pass
