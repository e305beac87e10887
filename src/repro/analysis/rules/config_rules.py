"""Config-layer rules (``C``): energy parameters and cache geometry.

These catch configurations the strict constructors accept (or that reach
the simulator as plain numbers) but that violate physical conservation —
the kind of mistake that otherwise only shows up as implausible results
deep inside an experiment sweep.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.context import AnalysisContext
from repro.analysis.diagnostics import Location, Severity
from repro.analysis.registry import Finding, rule

__all__ = []  # rules register themselves; nothing to import by name


def _config_location(context: AnalysisContext, detail: str) -> Location:
    return Location("config", context.subject, detail)


def _is_pow2(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


@rule(
    "C001",
    "energy-conservation",
    "config",
    Severity.ERROR,
    "A single-way access costs at least a full parallel search, so "
    "way-placement could never save energy.",
)
def check_energy_conservation(context: AnalysisContext) -> Iterator[Finding]:
    energy, geometry = context.energy, context.geometry
    if energy is None or geometry is None or not geometry.is_sound():
        return
    if geometry.ways <= 1:
        return
    per_way_bit = energy.get("cam_pj_per_way_bit", 0.0)
    single_way = energy.get("way_mux_pj", 0.0) + per_way_bit * geometry.tag_bits
    full_search = per_way_bit * geometry.tag_bits * geometry.ways
    if single_way >= full_search:
        yield Finding(
            _config_location(context, "way_mux_pj"),
            f"a single-way access ({single_way:.2f} pJ) costs at least a full "
            f"{geometry.ways}-way parallel search ({full_search:.2f} pJ); "
            f"per-way energy must stay below the full-parallel read",
            "lower way_mux_pj or raise cam_pj_per_way_bit so one way is "
            "cheaper than all ways",
        )


@rule(
    "C002",
    "filter-cache-inversion",
    "config",
    Severity.WARNING,
    "An L0 filter-cache hit costs at least a full L1 data read.",
)
def check_filter_cache_inversion(context: AnalysisContext) -> Iterator[Finding]:
    energy = context.energy
    if energy is None:
        return
    l0_read = energy.get("l0_read_pj", 0.0)
    data_read = energy.get("data_read_pj", 0.0)
    if data_read > 0 and l0_read >= data_read:
        yield Finding(
            _config_location(context, "l0_read_pj"),
            f"l0_read_pj ({l0_read:.2f}) is not below data_read_pj "
            f"({data_read:.2f}); the filter cache can never save energy",
            "an L0 hit must cost less than the L1 data read it avoids",
        )


@rule(
    "C003",
    "geometry-not-power-of-two",
    "config",
    Severity.ERROR,
    "Cache geometry fields are not powers of two, or the geometry cannot "
    "hold its own ways.",
)
def check_geometry(context: AnalysisContext) -> Iterator[Finding]:
    geometry = context.geometry
    if geometry is None:
        return
    for field_name, value in (
        ("size_bytes", geometry.size_bytes),
        ("ways", geometry.ways),
        ("line_size", geometry.line_size),
    ):
        if not _is_pow2(value):
            yield Finding(
                _config_location(context, field_name),
                f"cache {field_name} {value} is not a positive power of two",
                "CAM banks and address slicing need power-of-two geometry",
            )
    if _is_pow2(geometry.line_size) and geometry.line_size < 4:
        yield Finding(
            _config_location(context, "line_size"),
            f"line size {geometry.line_size} is below one 4-byte instruction",
            "use lines of at least one instruction",
        )
    if (
        _is_pow2(geometry.size_bytes)
        and _is_pow2(geometry.ways)
        and _is_pow2(geometry.line_size)
    ):
        if geometry.size_bytes < geometry.ways * geometry.line_size:
            yield Finding(
                _config_location(context, "size_bytes"),
                f"cache of {geometry.size_bytes} bytes cannot hold "
                f"{geometry.ways} ways of {geometry.line_size}-byte lines",
                "shrink the associativity or grow the cache",
            )
        elif geometry.tag_bits <= 0:
            yield Finding(
                _config_location(context, "address_bits"),
                f"{geometry.address_bits} address bits leave no tag bits for "
                f"this geometry",
                "grow address_bits or shrink the cache",
            )
