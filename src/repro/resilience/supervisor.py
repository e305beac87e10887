"""Supervised grid execution: engine fallback, timeout, crash isolation.

This is the engine room behind
:meth:`repro.experiments.runner.ExperimentRunner.run_grid`, which every
experiment calls at any ``jobs`` (``jobs=1`` runs in-process).  Where
the old fan-out handed hundreds of cells to a bare ``ProcessPoolExecutor``
— one crash, hang, or disk fault aborting the whole grid and discarding
every finished report — the supervisor walks a recovery ladder and keeps
every success.  The ladder has one rung per failure site and no tuning
knobs:

1. **Engine fallback**: a cell that fails for any reason but a static
   configuration error — its vectorized kernel raises, its sanitizer
   fires, an I/O fault — runs once more on the pure-Python reference
   schemes (they are bit-identical, so the numbers cannot change);
2. **In-process fallback**: a worker that crashes, times out or reports
   a failed cell hands its unfinished cells to the parent, which runs
   them once after the pool drains;
3. **Give up**: a cell that fails there too raises
   :class:`~repro.errors.CellFailure`.

Every cell climbs the first rung on its own, in-process or in a worker:
the runner's engine (under the default ``fast``, its vectorized kernel),
then the reference engine.

Completed reports are always adopted into the runner's memo and
checkpointed to the grid's :class:`~repro.resilience.journal.ResumeJournal`
*before* any failure surfaces, so a partial grid is never wasted work.
Every incident is recorded as a
:class:`~repro.resilience.policy.FailureReport`; unrecovered failures raise
:class:`~repro.errors.CellFailure` with those reports attached.

The parallel portion runs on one local pool (:func:`_run_parallel`): one
forked worker per benchmark, each loading its traces from the persistent
store itself (mmap'd, so workers replaying the same entry share its
pages).
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
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

from repro.errors import CellFailure, ResilienceError, RetriesExhausted
from repro.resilience import chaos
from repro.resilience.journal import (
    ResumeJournal,
    cell_content_key,
    grid_digest,
    report_from_dict,
)
from repro.resilience.policy import (
    FailureReport,
    ResilienceConfig,
    cause_chain,
    is_retryable,
    render_failures,
)
from repro.sim.report import SimulationReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.grid import GridCell

__all__ = ["GridSummary", "run_cell", "run_cells", "supervise_grid"]

#: How long a settled worker may take to exit before it is killed.
_EXIT_GRACE_S = 5.0


@dataclass(frozen=True)
class GridSummary:
    """What one supervised grid actually did, by cell content key."""

    total: int
    memoised: Tuple[str, ...]
    resumed: Tuple[str, ...]
    executed: Tuple[str, ...]
    failed: Tuple[str, ...]
    failures: Tuple[FailureReport, ...]
    #: The largest memory growth of any worker process over its at-spawn
    #: baseline (KB; proportional set size on Linux, so shared trace pages
    #: are billed fractionally).
    peak_worker_rss_kb: int = 0
    #: Always 0: nothing attaches shared-memory traces any more.  Kept
    #: because ``benchmarks/e2e/tracing.py`` reads them.
    plane_attached: int = 0
    plane_degraded: int = 0


def _new_stats() -> Dict[str, Any]:
    """Mutable accumulator of what workers report back to the parent."""
    return {"peak_rss_kb": 0, "store_degraded": None}


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
    failures: List[FailureReport],
) -> SimulationReport:
    """Simulate one cell on the runner's engine, then on the reference one.

    A failure :func:`~repro.resilience.policy.is_retryable` accepts gets
    one more attempt with ``runner.engine = "reference"`` (the engine is
    restored afterwards), recorded as an ``engine-fallback`` incident.  A
    static configuration error, or a failure of that second attempt,
    appends an unrecovered :class:`FailureReport` and raises
    :class:`~repro.errors.RetriesExhausted` with the last underlying error
    chained.  The cell's label (its chaos key and ``FailureReport.cell``)
    names the cache the way the journal's content key does, e.g.
    ``crc:way-placement:wpa16384:icache=16384/8/32``.
    """
    geometry = cell.machine.icache
    token = (
        f"{cell.benchmark}:{cell.scheme}:wpa{cell.wpa_size}"
        f":icache={geometry.size_bytes}/{geometry.ways}/{geometry.line_size}"
    )
    causes: List[str] = []
    attempts = 0
    engine = runner.engine
    try:
        while True:
            attempts += 1
            try:
                chaos.chaos_point("cell", token)
                report = runner.report(**cell.report_kwargs())
            except Exception as error:
                causes.extend(cause_chain(error))
                if attempts == 1 and is_retryable(error):
                    runner.engine = "reference"
                    continue
                failures.append(
                    FailureReport(
                        site="cell",
                        benchmark=cell.benchmark,
                        cell=token,
                        attempts=attempts,
                        causes=tuple(causes),
                    )
                )
                raise RetriesExhausted(
                    f"cell {token} failed after {attempts} attempt(s)",
                    attempts=attempts,
                ) from error
            if causes:
                failures.append(
                    FailureReport(
                        site="cell",
                        benchmark=cell.benchmark,
                        cell=token,
                        attempts=attempts,
                        causes=tuple(causes),
                        recovery="engine-fallback",
                        recovered=True,
                    )
                )
            return report
    finally:
        runner.engine = engine


def run_cells(
    runner: Any,
    cells: Sequence["GridCell"],
    failures: List[FailureReport],
    emit: Callable[[int, SimulationReport], None],
    fail: Callable[[int, BaseException], None],
) -> None:
    """Simulate a chunk of cells, each through :func:`run_cell`.

    ``emit(index, report)`` is called for every completed cell and
    ``fail(index, error)`` for every cell that exhausted the ladder, both
    with indices into ``cells``.
    """
    for index, cell in enumerate(cells):
        try:
            emit(index, run_cell(runner, cell, failures))
        except RetriesExhausted as error:
            fail(index, error)


# ---------------------------------------------------------------------------
# Worker processes (one per benchmark)
# ---------------------------------------------------------------------------
def _chunk_worker_main(
    spec: Dict[str, Any],
    chaos_config: Optional[chaos.ChaosConfig],
    benchmark: str,
    cells: Tuple["GridCell", ...],
    conn: Connection,
) -> None:
    """Worker entry point: simulate one benchmark's cells, ship results back.

    Sends ``(status, results, failures, error, stats)`` where ``results``
    maps indices into ``cells`` to finished reports — partial on failure,
    so the parent adopts whatever completed before anything went wrong —
    and ``stats`` carries the worker's memory growth and any cache-write
    degradation (see :func:`_new_stats`).
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
        chaos.chaos_point("worker", benchmark)
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(**spec)

        def emit(index: int, report: SimulationReport) -> None:
            results.append((index, report))

        def fail(index: int, exc: BaseException) -> None:
            nonlocal error
            error = f"{type(exc).__name__}: {exc}"

        run_cells(runner, cells, failures, emit, fail)
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


Adopt = Callable[["GridCell", SimulationReport], None]
#: A worker that did not finish cleanly: its benchmark, the cells it left
#: unfinished, and why.
Handoff = Tuple[str, List["GridCell"], str]


def _run_parallel(
    runner: Any,
    groups: Dict[str, List["GridCell"]],
    jobs: int,
    timeout_s: Optional[float],
    failures: List[FailureReport],
    adopt: Adopt,
    stats: Dict[str, Any],
) -> List[Handoff]:
    """Run each benchmark's cells on its own worker, ``jobs`` at a time.

    The scheduler blocks on the active workers' result pipes and process
    sentinels, waking at the nearest deadline when ``timeout_s`` is set.
    A worker is settled by its message, its death, or its passed deadline
    (then it is killed at once); whatever results it shipped are adopted.
    Returns a :data:`Handoff` for every worker that crashed, timed out,
    failed fatally or reported a failed cell, for the parent to run.
    """
    context = _mp_context()
    spec = runner.spawn_spec()
    chaos_config = chaos.current()
    pending = list(groups.items())
    # One entry per running worker, keyed by its result pipe.
    active: Dict[Connection, Tuple[str, List["GridCell"], Any, Optional[float]]] = {}
    handoffs: List[Handoff] = []

    while pending or active:
        while pending and len(active) < jobs:
            benchmark, cells = pending.pop(0)
            parent_conn, child_conn = context.Pipe(duplex=False)
            process = context.Process(
                target=_chunk_worker_main,
                args=(spec, chaos_config, benchmark, tuple(cells), child_conn),
                daemon=True,
            )
            process.start()
            child_conn.close()
            deadline = None if timeout_s is None else time.monotonic() + timeout_s
            active[parent_conn] = (benchmark, cells, process, deadline)

        sentinels = [process.sentinel for _, _, process, _ in active.values()]
        deadlines = [d for _, _, _, d in active.values() if d is not None]
        ready = set(
            wait(
                [*active, *sentinels],
                max(0.0, min(deadlines) - time.monotonic()) if deadlines else None,
            )
        )
        now = time.monotonic()
        for conn, (benchmark, cells, process, deadline) in list(active.items()):
            expired = deadline is not None and now >= deadline
            if not expired and conn not in ready and process.sentinel not in ready:
                continue
            del active[conn]
            if expired:
                process.kill()
            message: Optional[Tuple[Any, ...]] = None
            try:
                if conn.poll():
                    message = conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
            process.join(_EXIT_GRACE_S)
            if process.is_alive():
                process.kill()
                process.join(_EXIT_GRACE_S)

            finished: Set[int] = set()
            if message is None:
                cause: Optional[str] = (
                    f"worker timed out after {timeout_s}s"
                    if expired
                    else f"worker crashed (exit code {process.exitcode})"
                )
            else:
                _, results, worker_failures, cause, worker_stats = message
                failures.extend(worker_failures)
                _merge_stats(stats, worker_stats)
                for index, report in results:
                    adopt(cells[index], report)
                    finished.add(index)
            if cause is not None:
                unfinished = [
                    cell for index, cell in enumerate(cells) if index not in finished
                ]
                handoffs.append((benchmark, unfinished, cause))
    return handoffs


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

    def run_in_process(group: List["GridCell"]) -> None:
        def emit(index: int, report: SimulationReport) -> None:
            adopt(group[index], report)

        def fail(index: int, error: BaseException) -> None:
            nonlocal first_error
            failed.add(cell_content_key(group[index]))
            if first_error is None:
                first_error = error

        run_cells(runner, group, failures, emit, fail)
        if journal is not None:
            journal.flush()

    # Workers parallelize across benchmarks, so one benchmark gains nothing
    # from them.
    if jobs > 1 and len(groups) > 1:

        def adopt_and_flush(cell: "GridCell", report: SimulationReport) -> None:
            adopt(cell, report)
            if journal is not None:
                journal.flush()

        handoffs = _run_parallel(
            runner, groups, jobs, config.timeout_s, failures, adopt_and_flush, stats
        )
        for benchmark, group, cause in handoffs:
            before = len(failed)
            run_in_process(group)
            recovered = len(failed) == before
            failures.append(
                FailureReport(
                    site="worker",
                    benchmark=benchmark,
                    cell=f"{benchmark} chunk",
                    attempts=2,  # the worker, then the parent
                    causes=(cause,),
                    recovery="in-process" if recovered else "none",
                    recovered=recovered,
                )
            )
    else:
        for group in groups.values():
            run_in_process(group)

    # -- outcome ------------------------------------------------------------
    runner.last_failures = list(failures)
    runner.last_grid = GridSummary(
        total=len(cells),
        memoised=tuple(sorted(memoised)),
        resumed=tuple(sorted(resumed)),
        executed=tuple(sorted(executed)),
        failed=tuple(sorted(failed)),
        failures=tuple(failures),
        peak_worker_rss_kb=stats["peak_rss_kb"],
    )
    if failed:
        if journal is not None:
            journal.flush()
        print(render_failures(failures), file=sys.stderr)
        raise CellFailure(
            f"{len(failed)} grid cell(s) failed; "
            f"{len(executed) + len(resumed) + len(memoised)} of {len(cells)} "
            f"cell(s) completed and were kept",
            failures=failures,
        ) from first_error
    if journal is not None:
        journal.discard()
    if failures:
        print(render_failures(failures), file=sys.stderr)
    return [runner.report(**cell.report_kwargs()) for cell in cells]
