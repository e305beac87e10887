"""repro — reproduction of *Instruction Cache Energy Saving Through
Compiler Way-Placement* (Jones, Bartolini, De Bus, Cavazos, O'Boyle;
DATE 2008).

The package implements the paper's full stack from scratch: an ARM-like
ISA and link-time program representation, the profile-guided way-placement
compiler pass, an XScale-style CAM instruction cache with the paper's
microarchitectural extensions (per-page way-placement bits in the I-TLB and
the global way-hint bit), the way-memoization comparator, analytic energy
models, 23 synthetic MiBench-like workloads, and a harness that regenerates
every figure of the paper's evaluation.

Quick start::

    from repro import (
        load_benchmark, branch_models_for, SMALL_INPUT, LARGE_INPUT,
        profile_program, way_placement_layout, original_layout, simulate,
    )

    workload = load_benchmark("crc")
    profile = profile_program(
        workload.program, branch_models_for(workload, SMALL_INPUT), 100_000
    )
    layout = way_placement_layout(workload.program, profile.block_counts)
    report = simulate(
        workload.program, layout, "way-placement",
        branch_models_for(workload, LARGE_INPUT),
        max_instructions=400_000, wpa_size=32 * 1024,
    )

See ``examples/`` for complete programs and ``benchmarks/`` for the
figure-by-figure reproduction harness.
"""

from repro.errors import AnalysisError, ReproError
from repro.analysis import (
    AnalysisContext,
    Analyzer,
    Diagnostic,
    Severity,
    analyze_program,
)
from repro.binary import BinaryImage, emit_image, load_image
from repro.cache import CacheGeometry, CamCache, InstructionTlb, WayHintBit, FetchCounters
from repro.energy import (
    EnergyParams,
    CacheEnergyModel,
    EnergyBreakdown,
    ProcessorEnergyModel,
    ProcessorReport,
)
from repro.experiments import (
    ExperimentRunner,
    figure4,
    figure5,
    figure6,
)
from repro.layout import (
    Layout,
    LayoutPolicy,
    build_chains,
    choose_wpa_size,
    make_layout,
    original_layout,
    pettis_hansen_layout,
    way_placement_layout,
)
from repro.profiling import ProfileData, profile_program
from repro.program import BasicBlock, Program, ProgramBuilder, function_from_assembly
from repro.schemes import make_scheme, SCHEME_NAMES
from repro.sim import (
    MachineConfig,
    XSCALE_BASELINE,
    SimulationReport,
    NormalisedResult,
    Simulator,
    simulate,
    table1_rows,
)
from repro.trace import BranchModelMap, CfgWalker, LineEventTrace
from repro.workloads import (
    MIBENCH_BENCHMARKS,
    SMALL_INPUT,
    LARGE_INPUT,
    benchmark_names,
    branch_models_for,
    generate_workload,
    load_benchmark,
    SynthSpec,
    Workload,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    # analysis
    "AnalysisContext",
    "AnalysisError",
    "Analyzer",
    "Diagnostic",
    "Severity",
    "analyze_program",
    # binary
    "BinaryImage",
    "emit_image",
    "load_image",
    # cache
    "CacheGeometry",
    "CamCache",
    "InstructionTlb",
    "WayHintBit",
    "FetchCounters",
    # energy
    "EnergyParams",
    "CacheEnergyModel",
    "EnergyBreakdown",
    "ProcessorEnergyModel",
    "ProcessorReport",
    # experiments
    "ExperimentRunner",
    "figure4",
    "figure5",
    "figure6",
    # layout
    "Layout",
    "LayoutPolicy",
    "build_chains",
    "choose_wpa_size",
    "make_layout",
    "original_layout",
    "pettis_hansen_layout",
    "way_placement_layout",
    # profiling
    "ProfileData",
    "profile_program",
    # program
    "BasicBlock",
    "Program",
    "ProgramBuilder",
    "function_from_assembly",
    # schemes
    "make_scheme",
    "SCHEME_NAMES",
    # sim
    "MachineConfig",
    "XSCALE_BASELINE",
    "SimulationReport",
    "NormalisedResult",
    "Simulator",
    "simulate",
    "table1_rows",
    # trace
    "BranchModelMap",
    "CfgWalker",
    "LineEventTrace",
    # workloads
    "MIBENCH_BENCHMARKS",
    "SMALL_INPUT",
    "LARGE_INPUT",
    "benchmark_names",
    "branch_models_for",
    "generate_workload",
    "load_benchmark",
    "SynthSpec",
    "Workload",
    "__version__",
]
