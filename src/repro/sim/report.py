"""Result containers for simulation runs and their normalised forms."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.cache.access import FetchCounters
from repro.cache.geometry import CacheGeometry
from repro.energy.cache_model import EnergyBreakdown
from repro.energy.processor import ProcessorReport
from repro.errors import ExperimentError

__all__ = ["SimulationReport", "NormalisedResult"]


@dataclass(frozen=True)
class SimulationReport:
    """Everything one (benchmark, layout, scheme, machine) run produced."""

    benchmark: str
    scheme: str
    layout_description: str
    geometry: CacheGeometry
    wpa_size: int
    counters: FetchCounters
    cycles: int
    breakdown: EnergyBreakdown
    processor: ProcessorReport

    @property
    def icache_energy_pj(self) -> float:
        return self.breakdown.icache_pj

    def to_payload(self) -> Dict[str, Any]:
        """A JSON-ready record that :meth:`from_payload` rebuilds exactly.

        Every field is an ``int``, ``str`` or IEEE double, and JSON
        round-trips doubles exactly, so the rebuilt report is bit-identical.
        """
        return {
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "layout_description": self.layout_description,
            "geometry": dataclasses.asdict(self.geometry),
            "wpa_size": self.wpa_size,
            "counters": dataclasses.asdict(self.counters),
            "cycles": self.cycles,
            "breakdown": dataclasses.asdict(self.breakdown),
            "processor": {
                "instructions": self.processor.instructions,
                "cycles": self.processor.cycles,
                "breakdown": dataclasses.asdict(self.processor.breakdown),
                "core_pj": self.processor.core_pj,
            },
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SimulationReport":
        """Rebuild the report a :meth:`to_payload` record describes."""
        processor = payload["processor"]
        return cls(
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

    @property
    def processor_energy_pj(self) -> float:
        return self.processor.processor_pj

    def normalise(self, baseline: "SimulationReport") -> "NormalisedResult":
        """This run relative to ``baseline`` (same benchmark & geometry)."""
        if baseline.benchmark != self.benchmark:
            raise ExperimentError(
                f"normalising {self.benchmark!r} against baseline of "
                f"{baseline.benchmark!r}"
            )
        if baseline.geometry != self.geometry:
            raise ExperimentError(
                "normalising against a baseline with a different cache geometry"
            )
        return NormalisedResult(
            benchmark=self.benchmark,
            scheme=self.scheme,
            wpa_size=self.wpa_size,
            icache_energy=self.processor.normalised_icache_energy(baseline.processor),
            delay=self.processor.normalised_delay(baseline.processor),
            ed_product=self.processor.ed_product(baseline.processor),
        )


@dataclass(frozen=True)
class NormalisedResult:
    """A scheme's result normalised to the baseline run (the paper's unit)."""

    benchmark: str
    scheme: str
    wpa_size: int
    icache_energy: float  # fraction of baseline I-cache energy (paper: %)
    delay: float  # fraction of baseline run time
    ed_product: float  # normalised processor energy x delay

    @property
    def icache_energy_pct(self) -> float:
        return 100.0 * self.icache_energy

    @property
    def energy_saving_pct(self) -> float:
        return 100.0 * (1.0 - self.icache_energy)
