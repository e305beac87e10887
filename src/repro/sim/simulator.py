"""The simulation driver: program + layout + scheme + machine -> report.

``Simulator.run_events`` is the narrow waist every experiment goes through:
it instantiates a fresh fetch scheme, replays a line-event trace, prices the
activity with the energy models, and wraps everything in a
:class:`~repro.sim.report.SimulationReport`.  The :func:`simulate`
convenience function goes all the way from a program and layout (walking the
CFG itself); the experiment harness instead reuses cached block traces and
calls ``run_events`` directly.
"""

from __future__ import annotations

from typing import Optional

from repro.energy.cache_model import CacheEnergyModel
from repro.energy.params import EnergyParams
from repro.energy.processor import ProcessorEnergyModel
from repro.engine.kernels import FAST_SCHEMES, fast_counters
from repro.errors import SchemeError
from repro.layout.layouts import Layout
from repro.program.program import Program
from repro.resilience.chaos import chaos_point
from repro.schemes.base import make_scheme
from repro.sim.machine import MachineConfig, XSCALE_BASELINE
from repro.sim.report import SimulationReport
from repro.sim.timing import cycles_for_run
from repro.trace.branch_model import BranchModelMap
from repro.trace.events import LineEventTrace
from repro.trace.executor import CfgWalker
from repro.trace.fetch import line_events_from_block_trace

__all__ = ["Simulator", "resolve_engine", "scheme_options", "simulate"]

#: Replay engine choices: ``fast`` (the default) uses a vectorized kernel
#: where one exists and the reference scheme otherwise, and lets the grid
#: planner replay cells sharing a trace as one family (see
#: :mod:`repro.engine.family`); ``reference`` always runs the pure-Python
#: scheme objects, the oracle every fast path is checked against.
_ENGINES = ("fast", "reference")


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine name, defaulting to ``fast``."""
    if engine is None:
        return "fast"
    if engine not in _ENGINES:
        raise SchemeError(
            f"unknown replay engine {engine!r}; choose from {', '.join(_ENGINES)}"
        )
    return engine


def scheme_options(
    machine: MachineConfig,
    scheme: str,
    wpa_size: int = 0,
    same_line_skip: Optional[bool] = None,
    l0_size: int = 512,
    memo_invalidation: str = "exact",
) -> dict:
    """The validated option dict a scheme constructor/kernel takes.

    This is the single place the (machine, cell) -> scheme-options mapping
    lives: ``Simulator.run_events`` uses it per replay and the family
    planner uses it to decide family membership (an option set family
    replay does not model keeps the cell on the per-cell engines).
    """
    options: dict = {
        "itlb_entries": machine.itlb_entries,
        "page_size": machine.page_size,
    }
    if scheme == "way-placement":
        if wpa_size % machine.page_size:
            raise SchemeError(
                f"way-placement area ({wpa_size}B) must be a multiple of "
                f"the page size ({machine.page_size}B)"
            )
        options["wpa_size"] = wpa_size
    elif wpa_size:
        raise SchemeError(f"scheme {scheme!r} does not take a way-placement area")
    if scheme == "filter-cache":
        options["l0_size"] = l0_size
    elif same_line_skip is not None:
        options["same_line_skip"] = same_line_skip
    if scheme == "way-memoization":
        options["invalidation"] = memo_invalidation
    return options


class Simulator:
    """Reusable driver bound to a machine configuration and energy params."""

    def __init__(
        self,
        machine: MachineConfig = XSCALE_BASELINE,
        energy_params: Optional[EnergyParams] = None,
        organisation: str = "cam",
        engine: Optional[str] = None,
        sanitize: bool = False,
    ):
        self.machine = machine
        self.energy_params = (
            energy_params if energy_params is not None else EnergyParams()
        )
        self.organisation = organisation
        self.engine = resolve_engine(engine)
        self.sanitize = sanitize
        self._processor_model = ProcessorEnergyModel(self.energy_params)

    def run_events(
        self,
        events: LineEventTrace,
        scheme: str,
        benchmark: str = "unnamed",
        layout_description: str = "",
        wpa_size: int = 0,
        same_line_skip: Optional[bool] = None,
        l0_size: int = 512,
        mem_fraction: float = 0.25,
        memo_invalidation: str = "exact",
    ) -> SimulationReport:
        """Replay ``events`` under ``scheme`` and price the activity.

        ``mem_fraction`` is the workload's dynamic load/store share, used by
        the rest-of-core energy term (see ``ProcessorEnergyModel``).
        """
        machine = self.machine
        options = scheme_options(
            machine,
            scheme,
            wpa_size=wpa_size,
            same_line_skip=same_line_skip,
            l0_size=l0_size,
            memo_invalidation=memo_invalidation,
        )

        counters = None
        if self.engine != "reference" and scheme in FAST_SCHEMES:
            # Chaos hook: lets the fault-injection harness fail the
            # vectorized path specifically, exercising the supervisor's
            # degrade-to-reference fallback (no-op unless chaos is active).
            chaos_point("kernel", f"{benchmark}:{scheme}")
            counters = fast_counters(scheme, events, machine.icache, **options)
            if counters is not None and self.sanitize:
                # Fast path: the kernels keep no live state to inspect, so
                # the sanitizer re-derives the invariants from the arrays.
                from repro.verify.sanitizer import raise_if_violations, sanitize_counters

                raise_if_violations(
                    sanitize_counters(scheme, events, machine.icache, counters, options),
                    scheme,
                )
        if counters is None:
            fetch_scheme = make_scheme(scheme, machine.icache, **options)
            if self.sanitize:
                from repro.verify.sanitizer import SanitizerHook

                counters = SanitizerHook(fetch_scheme).run(events)
            else:
                counters = fetch_scheme.run(events)

        return self.price(
            counters,
            scheme,
            benchmark=benchmark,
            layout_description=layout_description,
            wpa_size=wpa_size,
            l0_size=l0_size,
            mem_fraction=mem_fraction,
        )

    def price(
        self,
        counters,
        scheme: str,
        benchmark: str = "unnamed",
        layout_description: str = "",
        wpa_size: int = 0,
        l0_size: int = 512,
        mem_fraction: float = 0.25,
    ) -> SimulationReport:
        """Price already-computed counters into a :class:`SimulationReport`.

        The pricing tail of :meth:`run_events`, factored out so family
        replay (:mod:`repro.engine.family`, which produces counters for a
        whole family at once) shares the energy/cycle models and the
        sanitizer's energy cross-check with the per-cell paths.
        """
        machine = self.machine
        cache_model = CacheEnergyModel(
            machine.icache,
            self.energy_params,
            organisation=self.organisation,
            memo_links=(scheme == "way-memoization"),
            wayhint=(scheme == "way-placement"),
            l0_size=l0_size if scheme == "filter-cache" else 0,
        )
        breakdown = cache_model.energy(counters)
        if self.sanitize:
            from repro.verify.sanitizer import check_energy, raise_if_violations

            raise_if_violations(check_energy(counters, breakdown, cache_model), scheme)
        cycles = cycles_for_run(counters, machine)
        processor = self._processor_model.report(
            counters, breakdown, cycles, mem_fraction
        )

        return SimulationReport(
            benchmark=benchmark,
            scheme=scheme,
            layout_description=layout_description,
            geometry=machine.icache,
            wpa_size=wpa_size if scheme == "way-placement" else 0,
            counters=counters,
            cycles=cycles,
            breakdown=breakdown,
            processor=processor,
        )


def simulate(
    program: Program,
    layout: Layout,
    scheme: str,
    branch_models: BranchModelMap,
    max_instructions: int,
    machine: MachineConfig = XSCALE_BASELINE,
    energy_params: Optional[EnergyParams] = None,
    wpa_size: int = 0,
    seed: int = 0,
    organisation: str = "cam",
    same_line_skip: Optional[bool] = None,
    engine: Optional[str] = None,
) -> SimulationReport:
    """One-shot convenience: walk, expand, replay, price."""
    from repro.profiling.profiler import dynamic_memory_fraction

    walker = CfgWalker(program, branch_models, seed=seed)
    block_trace = walker.walk(max_instructions)
    events = line_events_from_block_trace(
        block_trace, program, layout, machine.icache.line_size
    )
    simulator = Simulator(machine, energy_params, organisation, engine=engine)
    return simulator.run_events(
        events,
        scheme,
        benchmark=program.name,
        layout_description=layout.description,
        wpa_size=wpa_size,
        same_line_skip=same_line_skip,
        mem_fraction=dynamic_memory_fraction(program, block_trace),
    )
