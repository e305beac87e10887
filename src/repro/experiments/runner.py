"""The experiment runner: memoised pipeline from benchmark name to results.

The pipeline stages and what they depend on (anything not in the key is
reused across experiments — the big win is that *block traces* are layout-
and geometry-independent, and *line-event traces* are geometry-independent,
so sweeping nine cache configurations re-simulates only the cache stage):

========================  =============================================
stage                      cache key
========================  =============================================
workload (synth program)   benchmark
profile (small input)      benchmark
layout                     benchmark, policy
block trace (large input)  benchmark
line events                benchmark, policy, line size
simulation report          benchmark, scheme, geometry, wpa, options
========================  =============================================

Two caches back the memoisation:

* an in-process dict per stage (as before);
* a **persistent** :class:`~repro.engine.store.TraceStore` (default
  ``.repro_cache/``, override or disable with ``REPRO_CACHE_DIR``) holding
  profiles, block traces, and line-event traces keyed by content — a fresh
  process with a warm cache performs no CFG walks at all.

Instruction budgets default to 400k evaluated / 100k profiled instructions
per benchmark and can be overridden by the ``REPRO_EVAL_INSTRUCTIONS`` /
``REPRO_PROFILE_INSTRUCTIONS`` environment variables (the harness trades
trace length for wall-clock time; results are stable well below the
defaults because the workloads are stationary loop nests).

Every experiment runs its (benchmark, scheme, geometry) cells through
:meth:`ExperimentRunner.run_grid`, the supervised grid of
:mod:`repro.resilience.supervisor`: in-process at ``jobs=1``, otherwise on
one worker process per benchmark.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from repro.analysis.context import AnalysisContext

from repro.energy.params import EnergyParams
from repro.engine.grid import GridCell
from repro.engine.store import TraceStore, layout_digest, program_digest
from repro.errors import ExperimentError
from repro.layout.layouts import Layout
from repro.layout.placement import LayoutPolicy, make_layout
from repro.profiling.profile_data import ProfileData
from repro.resilience.policy import FailureReport, ResilienceConfig
from repro.resilience.supervisor import GridSummary, supervise_grid
from repro.profiling.profiler import dynamic_memory_fraction, profile_block_trace
from repro.sim.machine import MachineConfig, XSCALE_BASELINE
from repro.sim.report import NormalisedResult, SimulationReport
from repro.sim.simulator import Simulator
from repro.trace.events import LineEventTrace
from repro.trace.executor import BlockTrace, CfgWalker
from repro.trace.fetch import line_events_from_block_trace
from repro.workloads.inputs import LARGE_INPUT, SMALL_INPUT, branch_models_for
from repro.workloads.mibench import load_benchmark
from repro.workloads.synth import Workload

__all__ = ["ExperimentRunner", "GridCell"]

_DEFAULT_EVAL_INSTRUCTIONS = 400_000
_DEFAULT_PROFILE_INSTRUCTIONS = 100_000


def _budget(name: str, value: Optional[int], default: int) -> int:
    """The ``name`` instruction budget: ``value`` when given, else the
    ``REPRO_<NAME>`` environment variable, else ``default``.

    Either source must be positive, so a bad budget fails here, once,
    rather than in the CFG walk of every grid cell on both engines.
    """
    source = name
    if value is None:
        env = f"REPRO_{name.upper()}"
        raw = os.environ.get(env)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ExperimentError(
                f"environment variable {env}={raw!r} is not an int"
            ) from None
        source = f"environment variable {env}"
    if value <= 0:
        raise ExperimentError(f"{source} must be positive, got {value}")
    return value


class ExperimentRunner:
    """Memoising driver for everything the benches and figures need."""

    def __init__(
        self,
        eval_instructions: Optional[int] = None,
        profile_instructions: Optional[int] = None,
        energy_params: Optional[EnergyParams] = None,
        organisation: str = "cam",
        seed: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        engine: Optional[str] = None,
        sanitize: bool = False,
        resilience: Optional[ResilienceConfig] = None,
    ):
        self.eval_instructions = _budget(
            "eval_instructions", eval_instructions, _DEFAULT_EVAL_INSTRUCTIONS
        )
        self.profile_instructions = _budget(
            "profile_instructions", profile_instructions, _DEFAULT_PROFILE_INSTRUCTIONS
        )
        self.energy_params = (
            energy_params if energy_params is not None else EnergyParams()
        )
        self.organisation = organisation
        self.seed = seed
        self.store = TraceStore.resolve(cache_dir)
        self.engine = engine
        self.sanitize = sanitize
        self.resilience = resilience.validate() if resilience is not None else None
        #: Structured outcome of the most recent :meth:`run_grid` call.
        self.last_failures: List[FailureReport] = []
        self.last_grid: Optional[GridSummary] = None

        self._workloads: Dict[str, Workload] = {}
        self._profiles: Dict[str, ProfileData] = {}
        self._layouts: Dict[Tuple[str, LayoutPolicy], Layout] = {}
        self._block_traces: Dict[str, BlockTrace] = {}
        self._events: Dict[Tuple[str, LayoutPolicy, int], LineEventTrace] = {}
        self._mem_fractions: Dict[str, float] = {}
        self._reports: Dict[tuple, SimulationReport] = {}
        self._digests: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Persistent-cache keys
    # ------------------------------------------------------------------
    def _program_digest(self, benchmark: str) -> str:
        if benchmark not in self._digests:
            self._digests[benchmark] = program_digest(self.workload(benchmark).program)
        return self._digests[benchmark]

    def _profile_key(self, benchmark: str) -> str:
        return (
            f"v{TraceStore.FORMAT_VERSION}|profile|{benchmark}|"
            f"{self._program_digest(benchmark)}|input={SMALL_INPUT.name}|"
            f"seed={self.seed}|budget={self.profile_instructions}"
        )

    def _block_trace_key(self, benchmark: str) -> str:
        return (
            f"v{TraceStore.FORMAT_VERSION}|blocks|{benchmark}|"
            f"{self._program_digest(benchmark)}|input={LARGE_INPUT.name}|"
            f"seed={self.seed + 1}|budget={self.eval_instructions}"
        )

    def _events_key(
        self, benchmark: str, policy: LayoutPolicy, line_size: int
    ) -> str:
        layout = self.layout(benchmark, policy)
        return (
            f"{self._block_trace_key(benchmark)}|layout={policy.value}:"
            f"{layout_digest(layout)}|line={line_size}"
        )

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def workload(self, benchmark: str) -> Workload:
        if benchmark not in self._workloads:
            self._workloads[benchmark] = load_benchmark(benchmark)
        return self._workloads[benchmark]

    def profile(self, benchmark: str) -> ProfileData:
        """Profile on the small (train) input, as the paper does."""
        if benchmark not in self._profiles:
            key = self._profile_key(benchmark)
            profile = self.store.load_profile(key) if self.store else None
            if profile is None:
                workload = self.workload(benchmark)
                models = branch_models_for(workload, SMALL_INPUT)
                walker = CfgWalker(workload.program, models, seed=self.seed)
                trace = walker.walk(self.profile_instructions)
                profile = profile_block_trace(
                    workload.program, trace, SMALL_INPUT.name
                )
                if self.store:
                    self.store.save_profile(key, profile)
            self._profiles[benchmark] = profile
        return self._profiles[benchmark]

    def layout(self, benchmark: str, policy: LayoutPolicy) -> Layout:
        key = (benchmark, policy)
        if key not in self._layouts:
            workload = self.workload(benchmark)
            block_counts = None
            profile = None
            if policy in (LayoutPolicy.WAY_PLACEMENT, LayoutPolicy.COLDEST_FIRST):
                block_counts = self.profile(benchmark).block_counts
            elif policy is LayoutPolicy.PETTIS_HANSEN:
                profile = self.profile(benchmark)
            self._layouts[key] = make_layout(
                workload.program, policy, block_counts, seed=self.seed, profile=profile
            )
        return self._layouts[key]

    def block_trace(self, benchmark: str) -> BlockTrace:
        """The large-input evaluation trace (layout independent)."""
        if benchmark not in self._block_traces:
            key = self._block_trace_key(benchmark)
            trace = self.store.load_block_trace(key) if self.store else None
            if trace is None:
                workload = self.workload(benchmark)
                models = branch_models_for(workload, LARGE_INPUT)
                walker = CfgWalker(workload.program, models, seed=self.seed + 1)
                trace = walker.walk(self.eval_instructions)
                if self.store:
                    self.store.save_block_trace(key, trace)
            self._block_traces[benchmark] = trace
        return self._block_traces[benchmark]

    def events(
        self, benchmark: str, policy: LayoutPolicy, line_size: int
    ) -> LineEventTrace:
        key = (benchmark, policy, line_size)
        if key not in self._events:
            store_key = self._events_key(benchmark, policy, line_size)
            events = self.store.load_events(store_key) if self.store else None
            if events is None:
                workload = self.workload(benchmark)
                events = line_events_from_block_trace(
                    self.block_trace(benchmark),
                    workload.program,
                    self.layout(benchmark, policy),
                    line_size,
                )
                if self.store:
                    self.store.save_events(store_key, events)
            self._events[key] = events
        return self._events[key]

    def mem_fraction(self, benchmark: str) -> float:
        """Dynamic load/store share of the evaluation trace."""
        if benchmark not in self._mem_fractions:
            self._mem_fractions[benchmark] = dynamic_memory_fraction(
                self.workload(benchmark).program, self.block_trace(benchmark)
            )
        return self._mem_fractions[benchmark]

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_layout_policy(
        scheme: str, layout_policy: Optional[LayoutPolicy]
    ) -> LayoutPolicy:
        """The paper's default pairing: way-placement runs on the profile-
        chained binary, everything else on the original one."""
        if layout_policy is not None:
            return layout_policy
        return (
            LayoutPolicy.WAY_PLACEMENT
            if scheme == "way-placement"
            else LayoutPolicy.ORIGINAL
        )

    @staticmethod
    def _report_key(
        benchmark: str,
        scheme: str,
        machine: MachineConfig,
        wpa_size: int,
        layout_policy: LayoutPolicy,
        same_line_skip: Optional[bool],
        l0_size: int,
    ) -> tuple:
        return (
            benchmark,
            scheme,
            machine.icache,
            wpa_size,
            layout_policy,
            same_line_skip,
            l0_size if scheme == "filter-cache" else 0,
            machine.page_size,
            machine.itlb_entries,
        )

    def _cell_key(self, cell: GridCell) -> tuple:
        return self._report_key(
            cell.benchmark,
            cell.scheme,
            cell.machine,
            cell.wpa_size,
            self._resolve_layout_policy(cell.scheme, None),
            cell.same_line_skip,
            cell.l0_size,
        )

    def report(
        self,
        benchmark: str,
        scheme: str,
        machine: MachineConfig = XSCALE_BASELINE,
        wpa_size: int = 0,
        layout_policy: Optional[LayoutPolicy] = None,
        same_line_skip: Optional[bool] = None,
        l0_size: int = 512,
    ) -> SimulationReport:
        """Run (or recall) one simulation.

        The layout defaults to the paper's pairing: the way-placement scheme
        runs on the profile-chained binary, everything else on the original
        one.  Pass ``layout_policy`` to break that pairing (ablations).
        """
        layout_policy = self._resolve_layout_policy(scheme, layout_policy)
        key = self._report_key(
            benchmark, scheme, machine, wpa_size, layout_policy, same_line_skip, l0_size
        )
        if key not in self._reports:
            events = self.events(benchmark, layout_policy, machine.icache.line_size)
            simulator = Simulator(
                machine,
                self.energy_params,
                self.organisation,
                engine=self.engine,
                sanitize=self.sanitize,
            )
            self._reports[key] = simulator.run_events(
                events,
                scheme,
                benchmark=benchmark,
                layout_description=self.layout(benchmark, layout_policy).description,
                wpa_size=wpa_size,
                same_line_skip=same_line_skip,
                l0_size=l0_size,
                mem_fraction=self.mem_fraction(benchmark),
            )
        return self._reports[key]

    def normalised(
        self,
        benchmark: str,
        scheme: str,
        machine: MachineConfig = XSCALE_BASELINE,
        wpa_size: int = 0,
        layout_policy: Optional[LayoutPolicy] = None,
        same_line_skip: Optional[bool] = None,
    ) -> NormalisedResult:
        """A scheme's result normalised to the plain baseline on ``machine``."""
        baseline = self.report(benchmark, "baseline", machine)
        run = self.report(
            benchmark,
            scheme,
            machine,
            wpa_size=wpa_size,
            layout_policy=layout_policy,
            same_line_skip=same_line_skip,
        )
        return run.normalise(baseline)

    # ------------------------------------------------------------------
    # Static analysis (certification)
    # ------------------------------------------------------------------
    def fitted_wpa_size(
        self,
        benchmark: str,
        layout_policy: LayoutPolicy,
        machine: MachineConfig = XSCALE_BASELINE,
    ) -> int:
        """The WPA that covers the whole binary, aligned to the machine's
        page size, capped at the I-cache capacity."""
        from repro.utils.bitops import align_up

        end = self.layout(benchmark, layout_policy).end_address
        return min(machine.icache.size_bytes, align_up(end, machine.page_size))

    def analysis_context(
        self,
        benchmark: str,
        layout_policy: LayoutPolicy,
        machine: MachineConfig = XSCALE_BASELINE,
        wpa_size: int = 0,
    ) -> "AnalysisContext":
        """Everything the static rules inspect behind one experiment.

        The program, its profile, the ``layout_policy`` layout, the
        machine's I-cache geometry and page size, the WPA, and this
        runner's energy parameters.
        """
        from repro.analysis import AnalysisContext

        profile = self.profile(benchmark)
        return AnalysisContext.for_experiment(
            program=self.workload(benchmark).program,
            layout=self.layout(benchmark, layout_policy),
            block_counts=profile.block_counts,
            edge_counts=profile.edge_counts,
            geometry=machine.icache,
            wpa_size=wpa_size or None,
            page_size=machine.page_size,
            energy=self.energy_params,
            subject=benchmark,
        )

    # ------------------------------------------------------------------
    # Supervised grids
    # ------------------------------------------------------------------
    def has_report(self, cell: GridCell) -> bool:
        """Is this cell's simulation already memoised?"""
        return self._cell_key(cell) in self._reports

    def adopt_report(self, cell: GridCell, report: SimulationReport) -> None:
        """Memoise a report computed elsewhere (a grid worker) for ``cell``."""
        self._reports[self._cell_key(cell)] = report

    def spawn_spec(self) -> dict:
        """Constructor kwargs reproducing this runner in a worker process."""
        return {
            "eval_instructions": self.eval_instructions,
            "profile_instructions": self.profile_instructions,
            "energy_params": self.energy_params,
            "organisation": self.organisation,
            "seed": self.seed,
            "cache_dir": str(self.store.root) if self.store else "off",
            "engine": self.engine,
            "sanitize": self.sanitize,
        }

    def run_grid(
        self, cells: Sequence[GridCell], jobs: int = 1
    ) -> List[SimulationReport]:
        """Simulate ``cells`` under supervision; reports return in input order.

        Every experiment runs through here, at any ``jobs``.  ``jobs == 1``
        runs the cells in-process; more fan benchmark chunks across worker
        processes, so each derives (or loads from the persistent cache)
        every trace at most once.  Either way, each cell replays through
        :meth:`report`, and every result lands in this runner's memo.

        Execution is supervised (engine fallback, worker crash isolation,
        checkpoint–resume) according to this runner's ``resilience``
        config; see :mod:`repro.resilience.supervisor`.  Afterwards
        ``self.last_grid`` / ``self.last_failures`` describe what happened.
        """
        return supervise_grid(self, cells, jobs=jobs, config=self.resilience)
