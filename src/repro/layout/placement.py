"""Profile-guided way-placement layout — the paper's compiler pass.

The algorithm (Section 3 of the paper):

1. Build the ICFG and annotate blocks with profiled execution counts.
2. Link blocks with predefined orderings (fall-through edges, call/return
   continuations) into chains; every other block is a chain by itself.
3. Weight each chain by the total number of instructions executed in it.
4. Order chains heaviest-first and concatenate them into one chain — the
   final binary.  The hottest code therefore starts at address 0, inside
   whatever way-placement area the OS later selects.

Alternative policies (original order, random chain order, coldest-first)
exist for the layout ablation benches.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Mapping, Optional

from repro.errors import LayoutError
from repro.layout.chains import Chain, build_chains
from repro.layout.layouts import Layout
from repro.layout.linker import link_blocks
from repro.layout.pettis_hansen import pettis_hansen_layout
from repro.profiling.profile_data import ProfileData
from repro.program.program import Program
from repro.utils.rng import make_rng

__all__ = [
    "LayoutPolicy",
    "make_layout",
    "way_placement_layout",
    "original_layout",
    "random_layout",
]


class LayoutPolicy(enum.Enum):
    """Block-ordering policies available to experiments."""

    ORIGINAL = "original"  # textual order as produced by the builder
    WAY_PLACEMENT = "way-placement"  # heaviest chain first (the paper)
    RANDOM_CHAINS = "random-chains"  # chains shuffled (locality strawman)
    COLDEST_FIRST = "coldest-first"  # lightest chain first (adversarial)
    PETTIS_HANSEN = "pettis-hansen"  # function-affinity ordering (PH'90)


def _instruction_counts(
    program: Program, block_counts: Mapping[int, int]
) -> Dict[int, int]:
    """Executed-instruction count per block: executions x block length."""
    return {
        block.uid: block_counts.get(block.uid, 0) * block.num_instructions
        for block in program.blocks()
    }


def _concatenate(chains: List[Chain]) -> List[int]:
    order: List[int] = []
    for chain in chains:
        order.extend(chain.uids)
    return order


def original_layout(program: Program, base_address: int = 0) -> Layout:
    """The baseline layout: blocks in their original textual order."""
    order = [block.uid for block in program.blocks()]
    return link_blocks(program, order, base_address, description="original order")


def way_placement_layout(
    program: Program,
    block_counts: Mapping[int, int],
    base_address: int = 0,
) -> Layout:
    """The paper's layout: chains sorted by profiled weight, heaviest first.

    Ties are broken by original chain order so the result is deterministic.
    ``block_counts`` maps block uid -> execution count (a profile).
    """
    chains = build_chains(program)
    weights = _instruction_counts(program, block_counts)
    indexed = list(enumerate(chains))
    indexed.sort(key=lambda pair: (-pair[1].weight(weights), pair[0]))
    order = _concatenate([chain for _, chain in indexed])
    return link_blocks(
        program, order, base_address, description="way-placement (heaviest chain first)"
    )


def random_layout(program: Program, seed: int = 0, base_address: int = 0) -> Layout:
    """Chains in uniformly random order (fall-through constraints intact)."""
    chains = build_chains(program)
    rng = make_rng("random-layout", program.name, seed)
    rng.shuffle(chains)
    return link_blocks(
        program, _concatenate(chains), base_address, description=f"random chains (seed {seed})"
    )


def coldest_first_layout(
    program: Program,
    block_counts: Mapping[int, int],
    base_address: int = 0,
) -> Layout:
    """Adversarial layout: lightest chains first (hot code at the end)."""
    chains = build_chains(program)
    weights = _instruction_counts(program, block_counts)
    indexed = list(enumerate(chains))
    indexed.sort(key=lambda pair: (pair[1].weight(weights), pair[0]))
    order = _concatenate([chain for _, chain in indexed])
    return link_blocks(program, order, base_address, description="coldest chain first")


def make_layout(
    program: Program,
    policy: LayoutPolicy,
    block_counts: Optional[Mapping[int, int]] = None,
    seed: int = 0,
    base_address: int = 0,
    profile: Optional[ProfileData] = None,
) -> Layout:
    """Dispatch on ``policy``.

    Profile-driven policies require ``block_counts`` (way-placement,
    coldest-first) or a full ``profile`` with edge counts (Pettis-Hansen);
    the original and random-chains policies are profile-free.
    """
    if policy is LayoutPolicy.ORIGINAL:
        return original_layout(program, base_address)
    if policy is LayoutPolicy.RANDOM_CHAINS:
        return random_layout(program, seed, base_address)
    if policy is LayoutPolicy.PETTIS_HANSEN:
        if profile is None:
            raise LayoutError(
                f"layout policy {policy.value!r} needs a profile with edge counts"
            )
        return pettis_hansen_layout(program, profile, base_address)
    if block_counts is None:
        raise LayoutError(f"layout policy {policy.value!r} needs profile block counts")
    if policy is LayoutPolicy.WAY_PLACEMENT:
        return way_placement_layout(program, block_counts, base_address)
    if policy is LayoutPolicy.COLDEST_FIRST:
        return coldest_first_layout(program, block_counts, base_address)
    raise LayoutError(f"unhandled layout policy {policy!r}")  # pragma: no cover
