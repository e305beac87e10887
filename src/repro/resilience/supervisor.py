"""Supervised grid execution: retry, timeout, crash isolation, fallback.

This is the engine room behind
:meth:`repro.experiments.runner.ExperimentRunner.run_grid`, which every
experiment calls at any ``jobs`` (``jobs=1`` runs in-process).  Where
the old fan-out handed hundreds of cells to a bare ``ProcessPoolExecutor``
— one crash, hang, or disk fault aborting the whole grid and discarding
every finished report — the supervisor walks a recovery ladder and keeps
every success:

1. **Per-cell retry** with exponential backoff and deterministic jitter
   (:meth:`~repro.resilience.policy.ResilienceConfig.backoff_delay`);
2. **Engine fallback**: a cell whose vectorized kernel raises, or whose
   sanitizer fires, re-runs on the pure-Python reference schemes (they are
   bit-identical, so the numbers cannot change);
3. **Fresh worker**: a crashed or timed-out worker process's remaining
   cells are requeued on a newly spawned worker;
4. **In-process fallback**: a chunk that keeps dying in workers runs in the
   parent itself before the supervisor gives up.

Completed reports are always adopted into the runner's memo and
checkpointed to the grid's :class:`~repro.resilience.journal.ResumeJournal`
*before* any failure surfaces, so a partial grid is never wasted work.
Every incident is recorded as a
:class:`~repro.resilience.policy.FailureReport`; unrecovered failures raise
:class:`~repro.errors.CellFailure` with those reports attached.

The parallel portion runs on one local pool (:func:`_run_parallel`): one
forked worker per benchmark chunk, each loading its traces from the
persistent store itself (mmap'd, so workers replaying the same entry share
its pages).
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import (
    CellFailure,
    ResilienceError,
    RetriesExhausted,
    SanitizerError,
    SchemeError,
)
from repro.resilience import chaos
from repro.resilience.journal import (
    ResumeJournal,
    cell_content_key,
    grid_digest,
    report_from_dict,
)
from repro.resilience.policy import (
    FailureReport,
    FallbackPolicy,
    ResilienceConfig,
    cause_chain,
    is_retryable,
    render_failures,
)
from repro.sim.report import SimulationReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.grid import GridCell

__all__ = ["GridSummary", "run_cell", "run_cells", "supervise_grid"]

#: Seconds between scheduler polls of the active worker set.
_POLL_INTERVAL_S = 0.01
#: Grace period for draining a just-died worker's result pipe.
_DRAIN_TIMEOUT_S = 0.2


@dataclass(frozen=True)
class GridSummary:
    """What one supervised grid actually did, by cell content key."""

    total: int
    memoised: Tuple[str, ...]
    resumed: Tuple[str, ...]
    executed: Tuple[str, ...]
    failed: Tuple[str, ...]
    failures: Tuple[FailureReport, ...]
    #: Planner decisions: families formed and the cells they covered.
    #: Counts include retried chunk attempts (they describe planner
    #: activity, not distinct cells).
    families: int = 0
    family_cells: int = 0
    #: The largest memory growth of any worker process over its at-spawn
    #: baseline (KB; proportional set size on Linux, so shared trace pages
    #: are billed fractionally).
    peak_worker_rss_kb: int = 0
    #: Always 0: nothing attaches shared-memory traces any more.  Kept
    #: because ``benchmarks/e2e/tracing.py`` reads them.
    plane_attached: int = 0
    plane_degraded: int = 0


def _new_stats() -> Dict[str, Any]:
    """Mutable execution-stats accumulator threaded through :func:`run_cells`."""
    return {
        "families": 0,
        "family_cells": 0,
        "peak_rss_kb": 0,
        "store_degraded": None,
    }


def _peak_rss_kb() -> int:
    """This process's memory footprint in KB (0 where unavailable).

    Workers sample this at entry and at exit; the difference — the growth
    attributable to the worker's own loads and replay — is what the grid
    summary aggregates, cancelling whatever the parent had resident at
    fork time.  On Linux the sample is Pss from ``smaps_rollup``, which
    attributes pages shared between siblings (mmap'd store entries)
    fractionally — plain RSS bills a shared page at full price in every
    worker mapping it, hiding the sharing entirely.
    Elsewhere it falls back to peak RSS via ``ru_maxrss``.
    """
    try:
        with open("/proc/self/smaps_rollup", "rb") as rollup:
            for line in rollup:
                if line.startswith(b"Pss:"):
                    return int(line.split()[1])
    except Exception:
        pass
    try:
        import resource

        peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return 0
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KB on Linux
        peak //= 1024
    return peak


def _merge_stats(into: Dict[str, Any], other: Dict[str, Any]) -> None:
    into["families"] += other["families"]
    into["family_cells"] += other["family_cells"]
    into["peak_rss_kb"] = max(into["peak_rss_kb"], other["peak_rss_kb"])
    degraded = other["store_degraded"]
    if degraded:
        # Workers suppress their own copy of the cache-degradation warning
        # (see store.suppress_write_warnings); the parent relays exactly
        # one on their behalf, deduplicated by the store module's global.
        into["store_degraded"] = degraded
        from repro.engine import store as store_module

        store_module.warn_write_failure(
            degraded, "cache writes failed in a worker process"
        )


# ---------------------------------------------------------------------------
# Per-cell supervision (runs in the parent and inside every worker)
# ---------------------------------------------------------------------------
def run_cell(
    runner: Any,
    cell: "GridCell",
    config: ResilienceConfig,
    failures: List[FailureReport],
    site: str = "cell",
) -> SimulationReport:
    """Simulate one cell under the retry/backoff/engine-fallback ladder.

    Raises :class:`~repro.errors.RetriesExhausted` (with the last
    underlying error chained) once every rung is spent; appends a
    :class:`FailureReport` for both recovered and fatal incidents.
    """
    token = f"{cell.benchmark}:{cell.scheme}:wpa{cell.wpa_size}"
    causes: List[str] = []
    attempts = 0
    downgraded = False
    while True:
        attempts += 1
        previous_engine = runner.engine
        if downgraded:
            runner.engine = "reference"
        try:
            chaos.chaos_point("cell", token)
            report = runner.report(**cell.report_kwargs())
        except Exception as error:
            causes.extend(cause_chain(error))
            fallback_open = (
                config.fallback is FallbackPolicy.REFERENCE
                and not downgraded
                and previous_engine != "reference"
            )
            if isinstance(error, SanitizerError) and fallback_open:
                downgraded = True
                continue
            if is_retryable(error) and attempts <= config.retries:
                time.sleep(config.backoff_delay(attempts - 1, token))
                continue
            if is_retryable(error) and fallback_open:
                downgraded = True
                continue
            failures.append(
                FailureReport(
                    site=site,
                    benchmark=cell.benchmark,
                    cell=token,
                    attempts=attempts,
                    causes=tuple(causes),
                    recovery="none",
                    recovered=False,
                )
            )
            raise RetriesExhausted(
                f"cell {token} failed after {attempts} attempt(s)",
                attempts=attempts,
            ) from error
        else:
            if causes:
                failures.append(
                    FailureReport(
                        site=site,
                        benchmark=cell.benchmark,
                        cell=token,
                        attempts=attempts,
                        causes=tuple(causes),
                        recovery="engine-fallback" if downgraded else "retry",
                        recovered=True,
                    )
                )
            return report
        finally:
            runner.engine = previous_engine


# ---------------------------------------------------------------------------
# Chunk execution: families first, then the per-cell ladder
# ---------------------------------------------------------------------------
def _plans_families(runner: Any) -> bool:
    """Does this chunk replay families?

    Yes when the runner's engine resolves to ``fast`` and the runner can
    execute a family.  An invalid engine name (a :class:`SchemeError`)
    answers no, so the per-cell path surfaces the proper error; any other
    exception propagates.
    """
    if not hasattr(runner, "report_family"):
        return False
    from repro.sim.simulator import resolve_engine

    try:
        return resolve_engine(getattr(runner, "engine", None)) == "fast"
    except SchemeError:
        return False


def run_cells(
    runner: Any,
    cells: Sequence["GridCell"],
    config: ResilienceConfig,
    failures: List[FailureReport],
    emit: Callable[[int, SimulationReport], None],
    fail: Callable[[int, BaseException], None],
    stats: Optional[Dict[str, Any]] = None,
) -> None:
    """Simulate a chunk of cells, replaying trace-sharing families at once.

    ``emit(index, report)`` is called for every completed cell and
    ``fail(index, error)`` for every cell that exhausted the ladder, both
    with indices into ``cells``.  Under the ``fast`` engine, cells are
    first coalesced into families (:func:`repro.engine.grid.plan_families`)
    and each family replays with one trace traversal; a family that fails
    for *any* reason — sanitizer trip, kernel bug, injected fault —
    records a recovered :class:`FailureReport` and its members fall to the
    per-cell retry/backoff/engine-fallback ladder of :func:`run_cell`.
    Families never weaken supervision.  ``stats``, when given, accumulates
    the planner decisions (families, cells covered) for
    :class:`GridSummary`.
    """
    singles = list(range(len(cells)))
    if len(cells) > 1 and _plans_families(runner):
        from repro.engine.grid import plan_families

        families, singles = plan_families(cells, runner._resolve_layout_policy)
        for family in families:
            members = [cells[index] for index in family.indices]
            if stats is not None:
                stats["families"] += 1
                stats["family_cells"] += len(members)
            try:
                reports = runner.report_family(members)
            except Exception as error:
                failures.append(
                    FailureReport(
                        site="family",
                        benchmark=family.benchmark,
                        cell=(
                            f"{family.benchmark}:{family.layout_policy.value}"
                            f":{len(members)}-cell family"
                        ),
                        attempts=1,
                        causes=tuple(cause_chain(error)),
                        recovery="per-cell",
                        recovered=True,
                    )
                )
                singles.extend(family.indices)
                continue
            for index, report in zip(family.indices, reports):
                emit(index, report)
        singles.sort()
    for index in singles:
        try:
            emit(index, run_cell(runner, cells[index], config, failures))
        except RetriesExhausted as error:
            fail(index, error)


# ---------------------------------------------------------------------------
# Worker processes (one per benchmark-chunk attempt)
# ---------------------------------------------------------------------------
def _chunk_worker_main(
    spec: Dict[str, Any],
    config: ResilienceConfig,
    chaos_config: Optional[chaos.ChaosConfig],
    benchmark: str,
    attempt: int,
    cells: Tuple["GridCell", ...],
    conn: Connection,
) -> None:
    """Worker entry point: simulate one benchmark chunk, ship results back.

    Sends ``(status, results, failures, error, stats)`` where ``results``
    maps chunk indices to finished reports — partial on failure, so the
    parent adopts whatever completed before anything went wrong — and
    ``stats`` carries the chunk's planner decisions (see
    :func:`_new_stats`).
    """
    rss_baseline = _peak_rss_kb()
    results: List[Tuple[int, SimulationReport]] = []
    failures: List[FailureReport] = []
    stats = _new_stats()
    error: Optional[str] = None
    try:
        if chaos_config is not None:
            chaos.install(chaos_config)
        from repro.engine import store as store_module

        # The parent relays one degradation warning for all workers (see
        # _merge_stats); a per-process copy from every worker is noise.
        store_module.suppress_write_warnings()
        chaos.chaos_point("worker", f"{benchmark}@{attempt}")
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(**spec)

        def emit(index: int, report: SimulationReport) -> None:
            results.append((index, report))

        def fail(index: int, exc: BaseException) -> None:
            nonlocal error
            error = f"{type(exc).__name__}: {exc}"

        run_cells(runner, cells, config, failures, emit, fail, stats)
        store = getattr(runner, "store", None)
        if store is not None and getattr(store, "writes_disabled", False):
            stats["store_degraded"] = str(store.root)
        stats["peak_rss_kb"] = max(0, _peak_rss_kb() - rss_baseline)
        conn.send(("done", results, failures, error, stats))
    except BaseException as exc:  # noqa: B036 - report, then die
        try:
            conn.send(
                ("fatal", results, failures, f"{type(exc).__name__}: {exc}", stats)
            )
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


def _mp_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


@dataclass
class _Chunk:
    """One benchmark's remaining cells plus its supervision state."""

    benchmark: str
    cells: List["GridCell"]
    attempts: int = 0
    ready_at: float = 0.0

    def __post_init__(self) -> None:
        self.causes: List[str] = []


@dataclass
class _Active:
    chunk: _Chunk
    process: Any
    conn: Connection
    deadline: Optional[float]


def _stop_worker(entry: _Active) -> None:
    process = entry.process
    try:
        process.terminate()
        process.join(2.0)
        if process.is_alive():
            process.kill()
            process.join(5.0)
    finally:
        try:
            entry.conn.close()
        except Exception:
            pass


Adopt = Callable[["GridCell", SimulationReport], None]


def _run_parallel(
    runner: Any,
    chunks: List[_Chunk],
    jobs: int,
    config: ResilienceConfig,
    failures: List[FailureReport],
    adopt: Adopt,
    stats: Dict[str, Any],
) -> List[_Chunk]:
    """Fan chunks across supervised worker processes.

    Returns the chunks that exhausted their worker attempts and must fall
    back to in-process execution in the parent.
    """
    context = _mp_context()
    spec = runner.spawn_spec()
    chaos_config = chaos.current()
    pending = list(chunks)
    active: List[_Active] = []
    exhausted: List[_Chunk] = []

    def launch(chunk: _Chunk) -> None:
        chunk.attempts += 1
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_chunk_worker_main,
            args=(
                spec,
                config,
                chaos_config,
                chunk.benchmark,
                chunk.attempts,
                tuple(chunk.cells),
                child_conn,
            ),
        )
        process.daemon = True
        process.start()
        child_conn.close()
        deadline = (
            time.monotonic() + config.timeout_s
            if config.timeout_s is not None
            else None
        )
        active.append(_Active(chunk, process, parent_conn, deadline))

    def settle(chunk: _Chunk, cause: str) -> None:
        """A worker attempt failed; requeue, or hand over to the parent."""
        chunk.causes.append(cause)
        if chunk.attempts <= config.retries:
            chunk.ready_at = time.monotonic() + config.backoff_delay(
                chunk.attempts - 1, chunk.benchmark
            )
            pending.append(chunk)
        else:
            exhausted.append(chunk)

    def absorb(entry: _Active, message: Tuple[Any, ...]) -> None:
        status, results, worker_failures, error, worker_stats = message
        failures.extend(worker_failures)
        _merge_stats(stats, worker_stats)
        chunk = entry.chunk
        finished = set()
        for index, report in results:
            adopt(chunk.cells[index], report)
            finished.add(index)
        remaining = [
            cell for index, cell in enumerate(chunk.cells) if index not in finished
        ]
        if not remaining and error is None and status == "done":
            if chunk.causes:
                failures.append(
                    FailureReport(
                        site="worker",
                        benchmark=chunk.benchmark,
                        cell=f"{chunk.benchmark} chunk",
                        attempts=chunk.attempts,
                        causes=tuple(chunk.causes),
                        recovery="fresh-worker",
                        recovered=True,
                    )
                )
            return
        chunk.cells = remaining if remaining else list(chunk.cells)
        settle(chunk, error or f"worker finished without results ({status})")

    while pending or active:
        now = time.monotonic()
        while len(active) < max(1, jobs):
            index = next(
                (i for i, chunk in enumerate(pending) if chunk.ready_at <= now),
                None,
            )
            if index is None:
                break
            launch(pending.pop(index))
        if not active:
            if pending:
                time.sleep(_POLL_INTERVAL_S)
            continue
        progressed = False
        still_active: List[_Active] = []
        for entry in active:
            message: Optional[Tuple[Any, ...]] = None
            if entry.conn.poll():
                try:
                    message = entry.conn.recv()
                except (EOFError, OSError):
                    message = None
            if message is not None:
                entry.process.join(5.0)
                try:
                    entry.conn.close()
                except Exception:
                    pass
                absorb(entry, message)
                progressed = True
            elif not entry.process.is_alive():
                # Drain the pipe once more: the child may have sent its
                # results in the instant before exiting.
                if entry.conn.poll(_DRAIN_TIMEOUT_S):
                    try:
                        message = entry.conn.recv()
                    except (EOFError, OSError):
                        message = None
                entry.process.join(5.0)
                try:
                    entry.conn.close()
                except Exception:
                    pass
                if message is not None:
                    absorb(entry, message)
                else:
                    settle(
                        entry.chunk,
                        f"worker crashed (exit code {entry.process.exitcode})",
                    )
                progressed = True
            elif entry.deadline is not None and now >= entry.deadline:
                _stop_worker(entry)
                settle(
                    entry.chunk,
                    f"worker timed out after {config.timeout_s}s",
                )
                progressed = True
            else:
                still_active.append(entry)
        active = still_active
        if not progressed:
            time.sleep(_POLL_INTERVAL_S)
    return exhausted


# ---------------------------------------------------------------------------
# The grid itself
# ---------------------------------------------------------------------------
def supervise_grid(
    runner: Any,
    cells: Sequence["GridCell"],
    jobs: int = 1,
    config: Optional[ResilienceConfig] = None,
) -> List[SimulationReport]:
    """Run a grid under supervision; returns reports in input order.

    See the module docstring for the recovery ladder.  The runner's memo
    is always left holding every report that completed, the run is
    checkpointed to a resume journal when a persistent cache directory is
    available, and the structured outcome lands on ``runner.last_grid`` /
    ``runner.last_failures``.
    """
    from repro.resilience.policy import DEFAULT_RESILIENCE

    cells = list(cells)
    jobs = max(1, int(jobs))
    config = (config or DEFAULT_RESILIENCE).validate()
    failures: List[FailureReport] = []
    stats = _new_stats()
    executed: Set[str] = set()
    failed: Set[str] = set()
    resumed: Set[str] = set()
    memoised: Set[str] = set()
    first_error: Optional[BaseException] = None

    # -- checkpoint journal -------------------------------------------------
    journal: Optional[ResumeJournal] = None
    store = getattr(runner, "store", None)
    if store is not None:
        key = grid_digest(
            runner.spawn_spec(), [cell_content_key(cell) for cell in cells]
        )
        journal = ResumeJournal.for_grid(store.root, key)
    elif config.resume:
        raise ResilienceError(
            "--resume needs a persistent cache directory to hold the grid "
            "journal; enable the trace cache or drop --resume"
        )
    if journal is not None and config.resume:
        completed = journal.load()
        for cell in cells:
            content = cell_content_key(cell)
            if content in completed and not runner.has_report(cell):
                runner.adopt_report(cell, report_from_dict(completed[content]))
                resumed.add(content)

    # -- figure out what still needs simulating -----------------------------
    groups: Dict[str, List["GridCell"]] = {}
    for cell in cells:
        content = cell_content_key(cell)
        if runner.has_report(cell):
            if content not in resumed:
                memoised.add(content)
            continue
        groups.setdefault(cell.benchmark, []).append(cell)

    def adopt(cell: "GridCell", report: SimulationReport) -> None:
        runner.adopt_report(cell, report)
        content = cell_content_key(cell)
        executed.add(content)
        if journal is not None:
            journal.record(content, report)

    def run_in_process(benchmark: str, group: List["GridCell"]) -> None:
        nonlocal first_error

        def emit(index: int, report: SimulationReport) -> None:
            adopt(group[index], report)

        def fail(index: int, error: BaseException) -> None:
            nonlocal first_error
            failed.add(cell_content_key(group[index]))
            if first_error is None:
                first_error = error

        run_cells(runner, group, config, failures, emit, fail, stats)
        if journal is not None:
            journal.flush()

    pending = {benchmark: group for benchmark, group in groups.items() if group}
    # Workers parallelize across benchmark chunks, so one benchmark gains
    # nothing from them.
    if jobs > 1 and len(pending) > 1:
        chunks = [
            _Chunk(benchmark, list(group)) for benchmark, group in pending.items()
        ]

        def adopt_and_flush(cell: "GridCell", report: SimulationReport) -> None:
            adopt(cell, report)
            if journal is not None:
                journal.flush()

        exhausted = _run_parallel(
            runner, chunks, jobs, config, failures, adopt_and_flush, stats
        )
        for chunk in exhausted:
            before = len(failed)
            run_in_process(chunk.benchmark, chunk.cells)
            failures.append(
                FailureReport(
                    site="worker",
                    benchmark=chunk.benchmark,
                    cell=f"{chunk.benchmark} chunk",
                    attempts=chunk.attempts,
                    causes=tuple(chunk.causes),
                    recovery="in-process" if len(failed) == before else "none",
                    recovered=len(failed) == before,
                )
            )
    else:
        for benchmark, group in pending.items():
            run_in_process(benchmark, group)

    # -- outcome ------------------------------------------------------------
    runner.last_failures = list(failures)
    runner.last_grid = GridSummary(
        total=len(cells),
        memoised=tuple(sorted(memoised)),
        resumed=tuple(sorted(resumed)),
        executed=tuple(sorted(executed)),
        failed=tuple(sorted(failed)),
        failures=tuple(failures),
        families=stats["families"],
        family_cells=stats["family_cells"],
        peak_worker_rss_kb=stats["peak_rss_kb"],
    )
    if failed:
        if journal is not None:
            journal.flush()
        print(render_failures(failures), file=sys.stderr)
        raise CellFailure(
            f"{len(failed)} grid cell(s) failed after retries; "
            f"{len(executed) + len(resumed) + len(memoised)} of {len(cells)} "
            f"cell(s) completed and were kept",
            failures=failures,
        ) from first_error
    if journal is not None:
        journal.discard()
    if failures:
        print(render_failures(failures), file=sys.stderr)
    return [runner.report(**cell.report_kwargs()) for cell in cells]
