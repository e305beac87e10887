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
2. **Fresh worker**: a crashed or timed-out worker process's remaining
   cells are requeued at once on a newly spawned worker, up to
   ``retries`` times;
3. **In-process fallback**: a chunk that keeps dying in workers runs in the
   parent itself before the supervisor gives up.

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
# Worker processes (one per benchmark-chunk attempt)
# ---------------------------------------------------------------------------
def _chunk_worker_main(
    spec: Dict[str, Any],
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
    ``stats`` carries the worker's memory growth and any cache-write
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
        chaos.chaos_point("worker", f"{benchmark}@{attempt}")
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


@dataclass
class _Chunk:
    """One benchmark's remaining cells plus its supervision state."""

    benchmark: str
    cells: List["GridCell"]
    attempts: int = 0

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
        """A worker attempt failed; requeue at once, or hand to the parent."""
        chunk.causes.append(cause)
        if chunk.attempts <= config.retries:
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
        while pending and len(active) < max(1, jobs):
            launch(pending.pop(0))
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

        run_cells(runner, group, failures, emit, fail)
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
