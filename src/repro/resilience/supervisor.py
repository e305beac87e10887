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

Completed reports are always adopted into the runner's memo *before*
any failure surfaces, so a partial grid is never wasted work.  With a
persistent store the parent also saves each one as a ``report`` entry of
the :class:`~repro.engine.store.TraceStore` as it arrives.  Before it
schedules anything, a grid adopts the stored reports of its cells, so an
interrupted grid resumes by being run again, with no flag; a grid that
completes deletes its cells' entries.  An entry's key is the cell's
:attr:`~repro.engine.grid.GridCell.key`, the runner's
:meth:`spawn_spec` without the cache directory (budgets, seed,
organisation, energy parameters, engine, sanitize switch) and
:func:`~repro.engine.store.source_digest`, so a change to any of them
adopts nothing.
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

from repro.errors import CellFailure, RetriesExhausted
from repro.resilience import chaos
from repro.resilience.policy import (
    FailureReport,
    cause_chain,
    check_timeout,
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
    """What one supervised grid actually did, by :attr:`GridCell.key`.

    ``memoised`` cells were already in the runner's memo, ``resumed`` ones
    were adopted from the store (an earlier, interrupted run of the grid),
    and ``executed`` ones were simulated.
    """

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
    names its benchmark, scheme, WPA and cache, e.g.
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
def _entry_keys(runner: Any, cells: Sequence["GridCell"]) -> Dict["GridCell", str]:
    """Each cell's ``report`` entry key (see the module docstring)."""
    from repro.engine.store import source_digest

    spec = {
        name: value
        for name, value in runner.spawn_spec().items()
        if name != "cache_dir"
    }
    suffix = f"|{spec!r}|src={source_digest()}"
    return {cell: cell.key + suffix for cell in cells}


def supervise_grid(
    runner: Any,
    cells: Sequence["GridCell"],
    jobs: int = 1,
    timeout_s: Optional[float] = None,
) -> List[SimulationReport]:
    """Run a grid under supervision; returns reports in input order.

    See the module docstring for the recovery ladder and the stored
    reports.  ``timeout_s`` is the wall-clock budget of one worker
    (``None``: no timeout).  The runner's memo is always left holding
    every report that completed, and the structured outcome lands on
    ``runner.last_grid`` / ``runner.last_failures``.
    """
    cells = list(cells)
    jobs = max(1, int(jobs))
    check_timeout(timeout_s)
    failures: List[FailureReport] = []
    stats = _new_stats()
    executed: Set[str] = set()
    failed: Set[str] = set()
    resumed: Set[str] = set()
    memoised: Set[str] = set()
    first_error: Optional[BaseException] = None

    # -- adopt what the memo and the store hold, group the rest -------------
    store = getattr(runner, "store", None)
    entry_keys = _entry_keys(runner, cells) if store is not None else {}
    groups: Dict[str, List["GridCell"]] = {}
    for cell in cells:
        if runner.has_report(cell):
            if cell.key not in resumed:
                memoised.add(cell.key)
            continue
        stored = store.load_report(entry_keys[cell]) if store is not None else None
        if stored is not None:
            runner.adopt_report(cell, stored)
            resumed.add(cell.key)
            continue
        groups.setdefault(cell.benchmark, []).append(cell)

    def adopt(cell: "GridCell", report: SimulationReport) -> None:
        runner.adopt_report(cell, report)
        executed.add(cell.key)
        if store is not None:
            store.save_report(entry_keys[cell], report)

    def run_in_process(group: List["GridCell"]) -> None:
        def emit(index: int, report: SimulationReport) -> None:
            adopt(group[index], report)

        def fail(index: int, error: BaseException) -> None:
            nonlocal first_error
            failed.add(group[index].key)
            if first_error is None:
                first_error = error

        run_cells(runner, group, failures, emit, fail)

    # Workers parallelize across benchmarks, so one benchmark gains nothing
    # from them.
    if jobs > 1 and len(groups) > 1:
        handoffs = _run_parallel(runner, groups, jobs, timeout_s, failures, adopt, stats)
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
        print(render_failures(failures), file=sys.stderr)
        raise CellFailure(
            f"{len(failed)} grid cell(s) failed; "
            f"{len(executed) + len(resumed) + len(memoised)} of {len(cells)} "
            f"cell(s) completed and were kept",
            failures=failures,
        ) from first_error
    if store is not None:
        # Nothing outlives a completed grid.  The end-to-end benchmark's
        # warm workloads rerun grids on one store and must replay every
        # cell; this delete can go once they clear report entries before
        # each sample themselves.
        store.delete_reports(entry_keys.values())
    if failures:
        print(render_failures(failures), file=sys.stderr)
    return [runner.report(**cell.report_kwargs()) for cell in cells]
