"""Cache hardware models: geometry, CAM cache, I-TLB, way-hint bit.

These model the XScale-style instruction memory hierarchy of the paper's
Section 4: a highly-associative CAM-organised instruction cache (each set is
a fully-associative CAM sub-bank), a fully-associative I-TLB extended with a
per-page *way-placement bit*, and the single global *way-hint bit* that
predicts whether the next access falls inside the way-placement area.
"""

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import RoundRobinReplacement
from repro.cache.cam_cache import CamCache
from repro.cache.itlb import InstructionTlb
from repro.cache.wayhint import WayHintBit
from repro.cache.access import FetchCounters

__all__ = [
    "CacheGeometry",
    "RoundRobinReplacement",
    "CamCache",
    "InstructionTlb",
    "WayHintBit",
    "FetchCounters",
]
