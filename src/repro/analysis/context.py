"""What the analyzer looks at: lenient *views* over possibly-invalid data.

The strict constructors (:class:`~repro.program.program.Program`,
:class:`~repro.layout.layouts.Layout`, :class:`~repro.cache.geometry.CacheGeometry`)
raise on the first structural problem, which is exactly what a diagnostics
pass must *not* do — it wants to see the broken artifact and report every
problem at once.  The view classes here hold the same information without
any validation, and can be built either from the strict objects (the common
case) or from raw pieces (unit tests, half-built programs).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cache.geometry import CacheGeometry
from repro.energy.params import EnergyParams
from repro.layout.layouts import Layout
from repro.program.basic_block import BasicBlock, BlockKind
from repro.program.function import Function
from repro.program.program import Program

__all__ = ["ProgramView", "LayoutView", "GeometrySpec", "AnalysisContext"]


class ProgramView:
    """A program as a bag of functions — no referential-integrity demands.

    Unresolvable successor labels, unknown callees, and unreachable
    functions are all representable; the program rules report them instead
    of the constructor refusing them.
    """

    def __init__(
        self,
        name: str,
        functions: Sequence[Function],
        entry: Optional[str] = None,
    ):
        self.name = name
        self.functions: Dict[str, Function] = {}
        for function in functions:
            self.functions.setdefault(function.name, function)
        if entry is None and functions:
            entry = functions[0].name
        self.entry = entry
        self._label_to_uid: Dict[str, int] = {}
        for function in self.functions.values():
            for block in function.blocks:
                self._label_to_uid.setdefault(
                    f"{block.function}:{block.label}", block.uid
                )
        self._blocks_by_uid: Dict[int, BasicBlock] = {
            block.uid: block for block in self.blocks()
        }

    @classmethod
    def from_program(cls, program: Program) -> "ProgramView":
        return cls(
            program.name,
            list(program.functions.values()),
            entry=program.entry_function.name,
        )

    # -- block access -------------------------------------------------------
    def blocks(self) -> Iterator[BasicBlock]:
        for function in self.functions.values():
            yield from function.blocks

    def block_by_uid(self, uid: int) -> BasicBlock:
        return self._blocks_by_uid[uid]

    @property
    def num_blocks(self) -> int:
        return len(self._blocks_by_uid)

    def uid_of_label(self, function: str, label: str) -> int:
        """Strict label lookup (Program-compatible, used by build_chains)."""
        qualified = f"{function}:{label}"
        try:
            return self._label_to_uid[qualified]
        except KeyError:
            from repro.errors import ProgramError

            raise ProgramError(f"no block {qualified!r} in program view") from None

    def resolve_label(self, block: BasicBlock, label: Optional[str]) -> Optional[int]:
        """Uid a successor label refers to, or ``None`` when it dangles."""
        if label is None:
            return None
        qualified = label if ":" in label else f"{block.function}:{label}"
        return self._label_to_uid.get(qualified)

    # -- reachability -------------------------------------------------------
    def successor_uids(self, block: BasicBlock) -> List[int]:
        """Resolvable successors (taken, fall-through, callee entry)."""
        successors: List[int] = []
        for label in (block.taken_label, block.fall_label):
            uid = self.resolve_label(block, label)
            if uid is not None:
                successors.append(uid)
        if block.kind is BlockKind.CALL and block.callee in self.functions:
            callee = self.functions[block.callee]
            if callee.blocks:
                successors.append(callee.entry.uid)
        return successors

    def reachable_from_entry(self) -> Set[int]:
        """Uids reachable from the entry block, following any edge kind."""
        if self.entry not in self.functions or not self.functions[self.entry].blocks:
            return set()
        start = self.functions[self.entry].entry.uid
        seen = {start}
        stack = [start]
        while stack:
            block = self._blocks_by_uid[stack.pop()]
            for uid in self.successor_uids(block):
                if uid not in seen:
                    seen.add(uid)
                    stack.append(uid)
        return seen


@dataclass(frozen=True)
class LayoutView:
    """Raw block placement: uid -> (address, size), no overlap checks."""

    program_name: str
    addresses: Mapping[int, int]
    sizes: Mapping[int, int]
    description: str = ""

    @classmethod
    def from_layout(cls, layout: Layout) -> "LayoutView":
        uids = layout.block_order
        return cls(
            layout.program_name,
            {uid: layout.address_of(uid) for uid in uids},
            {uid: layout.size_of(uid) for uid in uids},
            layout.description,
        )


@dataclass(frozen=True)
class GeometrySpec:
    """Unvalidated cache geometry numbers (the strict twin is CacheGeometry)."""

    size_bytes: int
    ways: int
    line_size: int
    address_bits: int = 32

    @classmethod
    def from_geometry(cls, geometry: CacheGeometry) -> "GeometrySpec":
        return cls(
            geometry.size_bytes,
            geometry.ways,
            geometry.line_size,
            geometry.address_bits,
        )

    def is_sound(self) -> bool:
        """True when the strict CacheGeometry constructor would accept it."""

        def pow2(value: int) -> bool:
            return value > 0 and value & (value - 1) == 0

        if not (pow2(self.size_bytes) and pow2(self.ways) and pow2(self.line_size)):
            return False
        if self.line_size < 4 or self.size_bytes < self.ways * self.line_size:
            return False
        return self.tag_bits > 0

    # -- address slicing (meaningful only when is_sound()) ------------------
    @property
    def offset_bits(self) -> int:
        return max(self.line_size, 1).bit_length() - 1

    @property
    def set_bits(self) -> int:
        num_sets = self.size_bytes // max(self.ways * self.line_size, 1)
        return max(num_sets, 1).bit_length() - 1

    @property
    def way_bits(self) -> int:
        return max(self.ways, 1).bit_length() - 1

    @property
    def tag_bits(self) -> int:
        return self.address_bits - self.offset_bits - self.set_bits

    def set_index(self, address: int) -> int:
        return (address >> self.offset_bits) & ((1 << self.set_bits) - 1)

    def mandated_way(self, address: int) -> int:
        tag = address >> (self.offset_bits + self.set_bits)
        return tag & ((1 << self.way_bits) - 1)


def _energy_mapping(energy: Optional[EnergyParams]) -> Optional[Dict[str, float]]:
    """EnergyParams as a plain name -> value dict (``None`` stays ``None``)."""
    return None if energy is None else asdict(energy)


@dataclass
class AnalysisContext:
    """Everything the rules may inspect; any field may be absent.

    Rules self-gate: a rule whose inputs are missing simply reports
    nothing, so one context type serves program-only validation and
    certificates alike.
    """

    subject: str = "config"
    program: Optional[ProgramView] = None
    layout: Optional[LayoutView] = None
    block_counts: Optional[Mapping[int, int]] = None
    edge_counts: Optional[Mapping[Tuple[int, int], int]] = None
    geometry: Optional[GeometrySpec] = None
    wpa_size: Optional[int] = None
    page_size: Optional[int] = None
    energy: Optional[Mapping[str, float]] = None
    _cache: Dict[str, Any] = field(default_factory=dict, repr=False)

    @classmethod
    def for_program(cls, program: Program) -> "AnalysisContext":
        return cls(subject=program.name, program=ProgramView.from_program(program))

    @classmethod
    def for_experiment(
        cls,
        program: Optional[Program] = None,
        layout: Optional[Layout] = None,
        block_counts: Optional[Mapping[int, int]] = None,
        edge_counts: Optional[Mapping[Tuple[int, int], int]] = None,
        geometry: Optional[CacheGeometry] = None,
        wpa_size: Optional[int] = None,
        page_size: Optional[int] = None,
        energy: Optional[EnergyParams] = None,
        subject: Optional[str] = None,
    ) -> "AnalysisContext":
        """Build a context from the strict pipeline objects."""
        if subject is None:
            subject = program.name if program is not None else "config"
        return cls(
            subject=subject,
            program=ProgramView.from_program(program) if program is not None else None,
            layout=LayoutView.from_layout(layout) if layout is not None else None,
            block_counts=block_counts,
            edge_counts=edge_counts,
            geometry=(
                GeometrySpec.from_geometry(geometry) if geometry is not None else None
            ),
            wpa_size=wpa_size,
            page_size=page_size,
            energy=_energy_mapping(energy),
        )
