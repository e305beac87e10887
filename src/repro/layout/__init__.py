"""Code layout: address assignment and the way-placement compiler pass.

The paper's contribution (its Section 3) lives here:

* :mod:`repro.layout.chains` builds chains of basic blocks that must keep
  their relative order (fall-through edges and call/continuation pairs);
* :mod:`repro.layout.placement` orders the chains by profiled execution
  weight, heaviest first, so the hottest code lands at the start of the
  binary — the region the hardware maps to explicit cache ways;
* :mod:`repro.layout.linker` turns any block order into a concrete
  :class:`~repro.layout.layouts.Layout` (block uid -> byte address).
"""

from repro.layout.layouts import Layout
from repro.layout.linker import link_blocks
from repro.layout.chains import Chain, build_chains
from repro.layout.pettis_hansen import pettis_hansen_layout
from repro.layout.wpa_select import WpaChoice, choose_wpa_size, estimate_wpa_energy
from repro.layout.placement import (
    LayoutPolicy,
    make_layout,
    way_placement_layout,
    original_layout,
    random_layout,
    coldest_first_layout,
)

__all__ = [
    "Layout",
    "link_blocks",
    "Chain",
    "build_chains",
    "LayoutPolicy",
    "make_layout",
    "way_placement_layout",
    "original_layout",
    "random_layout",
    "coldest_first_layout",
    "pettis_hansen_layout",
    "WpaChoice",
    "choose_wpa_size",
    "estimate_wpa_energy",
]
