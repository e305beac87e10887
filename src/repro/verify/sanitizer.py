"""Runtime sanitizer: invariant checks over live schemes and kernel output.

The static verifier proves properties of the *inputs* (program, profile,
layout, geometry); this module asserts that a *simulation* respected the
model while it ran.  Eight invariants, each with a stable ``S###`` id:

==== ========================  =====================================================
id   name                      what must hold
==== ========================  =====================================================
S001 counter-consistency       counters pass cross-field validation and agree with
                               the trace's fetch/event totals
S002 tag-check-bound           ways precharged never exceed one way per single-way
                               search plus ``ways`` per full search
S003 wayhint-itlb-agreement    the scheme's hint outcomes (false positives/negatives,
                               corrective accesses, search mix) equal an independent
                               replay of the last-value predictor against the I-TLB
                               way-placement bits
S004 energy-reconciliation     every EnergyBreakdown component re-derives from the
                               counters and the per-event energies
S005 wpa-residency             a way-placed line is only ever resident in its
                               mandated way, and no set holds a duplicate tag
S006 baseline-differential     way-placement with an empty WPA produces exactly the
                               baseline's miss traffic and stays hint-inert
S007 segment-monotonicity      counters grow monotonically and account for every
                               event as segments replay
S008 static-bounds-bracketing  every counter falls inside the static lower/upper
                               bounds derived from the trace footprint
                               (``repro.analysis.absint.bounds``)
==== ========================  =====================================================

Two consumers: :class:`SanitizerHook` wraps a reference
:class:`~repro.schemes.base.FetchScheme` and checks invariants *during*
the run (segment by segment, with live cache-state inspection);
:func:`sanitize_counters` checks the vectorized
:mod:`repro.engine.kernels` output post hoc with array arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.cache.access import FetchCounters
from repro.cache.geometry import CacheGeometry
from repro.energy.cache_model import CacheEnergyModel, EnergyBreakdown
from repro.energy.params import EnergyParams
from repro.engine.arrays import way_hints, wpa_flags
from repro.engine.kernels import baseline_counters, way_placement_counters
from repro.errors import CacheConfigError, SanitizerError, SchemeError
from repro.schemes.base import FetchScheme
from repro.trace.events import LineEventTrace

__all__ = [
    "SANITIZER_INVARIANTS",
    "SanitizerHook",
    "SanitizerViolation",
    "check_counters",
    "check_differential",
    "check_energy",
    "check_hint_inert",
    "check_scheme_state",
    "check_static_bounds",
    "check_wayhint",
    "raise_if_violations",
    "sanitize_counters",
    "sanitize_events",
]

#: Invariant id -> short name (the sanitizer's analogue of the rule catalog).
SANITIZER_INVARIANTS: Dict[str, str] = {
    "S001": "counter-consistency",
    "S002": "tag-check-bound",
    "S003": "wayhint-itlb-agreement",
    "S004": "energy-reconciliation",
    "S005": "wpa-residency",
    "S006": "baseline-differential",
    "S007": "segment-monotonicity",
    "S008": "static-bounds-bracketing",
}

#: Counters a scheme without hint/WPA machinery must leave untouched.
_HINT_COUNTERS = (
    "single_way_searches",
    "second_accesses",
    "wp_fills",
    "hint_false_positives",
    "hint_false_negatives",
)

_COUNTER_FIELDS = tuple(f.name for f in fields(FetchCounters))


@dataclass(frozen=True)
class SanitizerViolation:
    """One violated invariant, ready for rendering or attachment."""

    invariant: str
    name: str
    message: str

    def render(self) -> str:
        return f"{self.invariant} {self.name}: {self.message}"


def _violation(invariant: str, message: str) -> SanitizerViolation:
    return SanitizerViolation(invariant, SANITIZER_INVARIANTS[invariant], message)


def raise_if_violations(
    violations: List[SanitizerViolation], scheme_name: str
) -> None:
    """Raise :class:`~repro.errors.SanitizerError` when any check failed."""
    if violations:
        preview = "; ".join(violation.render() for violation in violations[:3])
        raise SanitizerError(
            f"sanitizer caught {len(violations)} violation(s) in scheme "
            f"{scheme_name!r}: {preview}",
            violations,
        )


def _dedupe(violations: List[SanitizerViolation]) -> List[SanitizerViolation]:
    seen = set()
    unique: List[SanitizerViolation] = []
    for violation in violations:
        key = (violation.invariant, violation.message)
        if key not in seen:
            seen.add(key)
            unique.append(violation)
    return unique


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------
def check_counters(
    counters: FetchCounters,
    geometry: CacheGeometry,
    events: Optional[LineEventTrace] = None,
) -> List[SanitizerViolation]:
    """S001 (consistency) and S002 (tag-check bound) over final counters."""
    violations: List[SanitizerViolation] = []
    try:
        counters.validate()
    except ValueError as exc:
        violations.append(_violation("S001", f"cross-field validation failed: {exc}"))
    if events is not None:
        if counters.fetches != events.num_fetches:
            violations.append(
                _violation(
                    "S001",
                    f"scheme counted {counters.fetches} fetches but the trace "
                    f"holds {events.num_fetches}",
                )
            )
        if counters.line_events != events.num_events:
            violations.append(
                _violation(
                    "S001",
                    f"scheme counted {counters.line_events} line events but the "
                    f"trace holds {events.num_events}",
                )
            )
    bound = geometry.ways * counters.full_searches + counters.single_way_searches
    if counters.ways_precharged > bound:
        violations.append(
            _violation(
                "S002",
                f"{counters.ways_precharged} ways precharged exceeds the "
                f"associativity bound {bound} (= {geometry.ways} x "
                f"{counters.full_searches} full + {counters.single_way_searches} "
                f"single-way searches)",
            )
        )
    return violations


def check_hint_inert(counters: FetchCounters) -> List[SanitizerViolation]:
    """S001: a scheme without hint/WPA machinery must not touch its counters."""
    violations: List[SanitizerViolation] = []
    for name in _HINT_COUNTERS:
        value = getattr(counters, name)
        if value:
            violations.append(
                _violation(
                    "S001",
                    f"scheme has no way-hint machinery but recorded {name}={value}",
                )
            )
    return violations


def check_wayhint(
    events: LineEventTrace,
    counters: FetchCounters,
    wpa_size: int,
    hint_initial: bool = False,
    same_line_skip: bool = True,
) -> List[SanitizerViolation]:
    """S003: hint outcomes must match an independent predictor replay.

    The last-value predictor is replayed as array arithmetic: the hint for
    event ``i`` is the way-placement flag of event ``i - 1`` (seeded with
    ``hint_initial``), a false positive is ``hint & ~flag``, and every
    false positive must cost exactly one corrective access.  The expected
    search mix follows from the prediction stream alone.
    """
    violations: List[SanitizerViolation] = []
    flags = wpa_flags(events, wpa_size)
    hints = way_hints(events, wpa_size, hint_initial)
    fp = int(np.count_nonzero(hints & ~flags))
    fn = int(np.count_nonzero(flags & ~hints))
    predicted = int(np.count_nonzero(hints))
    n = events.num_events

    if counters.hint_false_positives != fp:
        violations.append(
            _violation(
                "S003",
                f"scheme recorded {counters.hint_false_positives} hint false "
                f"positives but the I-TLB way-placement bits give {fp}",
            )
        )
    if counters.hint_false_negatives != fn:
        violations.append(
            _violation(
                "S003",
                f"scheme recorded {counters.hint_false_negatives} hint false "
                f"negatives but the I-TLB way-placement bits give {fn}",
            )
        )
    if counters.second_accesses != fp:
        violations.append(
            _violation(
                "S003",
                f"every hint false positive must cost exactly one corrective "
                f"access: {counters.second_accesses} second accesses != {fp} "
                f"false positives",
            )
        )

    if same_line_skip:
        expected_single = predicted
        expected_full = (n - predicted) + fp
    else:
        extra = events.counts.astype(np.int64) - 1
        wpa_extra = int(extra[flags].sum())
        expected_single = predicted + wpa_extra
        expected_full = (n - predicted) + fp + (events.num_fetches - n - wpa_extra)
    if counters.single_way_searches != expected_single:
        violations.append(
            _violation(
                "S003",
                f"{counters.single_way_searches} single-way searches disagree "
                f"with the {expected_single} predicted way-placement accesses",
            )
        )
    if counters.full_searches != expected_full:
        violations.append(
            _violation(
                "S003",
                f"{counters.full_searches} full searches disagree with the "
                f"{expected_full} unpredicted or corrective accesses",
            )
        )
    return violations


def check_energy(
    counters: FetchCounters,
    breakdown: EnergyBreakdown,
    model: CacheEnergyModel,
) -> List[SanitizerViolation]:
    """S004: every breakdown component must re-derive from the counters."""
    params = model.params
    cache_fetches = counters.fetches - counters.spm_accesses
    if model.organisation == "cam":
        data_pj = cache_fetches * model.data_read_pj
    else:
        single_reads = cache_fetches + counters.second_accesses - counters.full_searches
        data_pj = (
            counters.full_searches * model.geometry.ways + single_reads
        ) * model.data_read_pj
    expected = {
        "tag_pj": counters.ways_precharged * model.tag_way_pj
        + counters.single_way_searches * params.way_mux_pj,
        "data_pj": data_pj,
        "fill_pj": counters.fills * model.line_fill_pj,
        "link_pj": counters.link_writes * params.link_write_pj,
        "l0_pj": counters.l0_accesses * params.l0_read_pj
        + counters.l0_misses * model.l0_fill_pj,
        "spm_pj": counters.spm_accesses * params.spm_read_pj,
        "hint_pj": counters.line_events * params.wayhint_pj if model.wayhint else 0.0,
        "itlb_pj": counters.itlb_accesses * params.itlb_search_pj
        + counters.itlb_misses * params.itlb_fill_pj,
        "memory_pj": counters.fills * model.memory_line_pj,
    }
    violations: List[SanitizerViolation] = []
    for component, value in expected.items():
        actual = getattr(breakdown, component)
        if not math.isclose(actual, value, rel_tol=1e-9, abs_tol=1e-9):
            violations.append(
                _violation(
                    "S004",
                    f"energy component {component} = {actual:.6g} pJ does not "
                    f"reconcile with the activity counters (expected "
                    f"{value:.6g} pJ)",
                )
            )
    return violations


def check_scheme_state(scheme: FetchScheme) -> List[SanitizerViolation]:
    """S005: live cache state must respect the way-placement invariant."""
    violations: List[SanitizerViolation] = []
    cache = getattr(scheme, "cache", None)
    if cache is None:
        return violations
    try:
        cache.assert_no_duplicate_tags()
    except CacheConfigError as exc:
        violations.append(_violation("S005", str(exc)))
    itlb = getattr(scheme, "itlb", None)
    if itlb is None:
        return violations
    geometry = scheme.geometry
    for set_index, way, tag in cache.resident_lines():
        address = geometry.reconstruct_address(tag, set_index)
        if itlb.is_way_placed(address) and way != geometry.mandated_way(address):
            violations.append(
                _violation(
                    "S005",
                    f"way-placed line {address:#x} is resident in way {way} of "
                    f"set {set_index}, not its mandated way "
                    f"{geometry.mandated_way(address)}",
                )
            )
    return violations


def check_differential(
    events: LineEventTrace,
    geometry: CacheGeometry,
    itlb_entries: int = 32,
    page_size: int = 1024,
    same_line_skip: bool = True,
    hint_initial: bool = False,
) -> List[SanitizerViolation]:
    """S006: an empty WPA must degenerate way-placement into the baseline.

    With ``wpa_size == 0`` no line is way-placed, so the way-placement
    kernel must reproduce the baseline's miss traffic exactly and its
    hint/WPA machinery must stay inert.  ``hint_initial`` mis-seeds the
    predictor on purpose (tests use it to show the invariant can fire).
    """
    wp = way_placement_counters(
        events,
        geometry,
        wpa_size=0,
        itlb_entries=itlb_entries,
        page_size=page_size,
        same_line_skip=same_line_skip,
        hint_initial=hint_initial,
    )
    base = baseline_counters(
        events,
        geometry,
        itlb_entries=itlb_entries,
        page_size=page_size,
        same_line_skip=same_line_skip,
    )
    violations: List[SanitizerViolation] = []
    for name in ("hits", "misses", "fills", "evictions", "itlb_misses"):
        if getattr(wp, name) != getattr(base, name):
            violations.append(
                _violation(
                    "S006",
                    f"miss traffic diverges at wpa_size=0: way-placement "
                    f"{name}={getattr(wp, name)} vs baseline "
                    f"{name}={getattr(base, name)}",
                )
            )
    for name in _HINT_COUNTERS:
        value = getattr(wp, name)
        if value:
            violations.append(
                _violation(
                    "S006",
                    f"an empty WPA must be inert but way-placement recorded "
                    f"{name}={value}",
                )
            )
    return violations


def check_static_bounds(
    scheme_name: str,
    events: LineEventTrace,
    geometry: CacheGeometry,
    counters: FetchCounters,
    options: Mapping[str, Any],
) -> List[SanitizerViolation]:
    """S008: counters must fall inside the static footprint bounds.

    :func:`repro.analysis.absint.bounds.footprint_bounds` brackets every
    counter of the baseline and way-placement replays from the trace
    footprint alone; any counter escaping its bracket means either the
    engine or the bounds are wrong.  Configurations the bounds do not
    model are skipped.  Imported lazily: the bounds live under
    ``repro.analysis``, which must stay importable without the verifier.
    """
    from repro.analysis.absint.bounds import bounds_for_options

    bounds = bounds_for_options(scheme_name, events, geometry, options)
    if bounds is None:
        return []
    return [
        _violation("S008", f"{scheme_name}: {violation.render()}")
        for violation in bounds.violations(counters)
    ]


# ---------------------------------------------------------------------------
# Post-hoc entry points (kernel output)
# ---------------------------------------------------------------------------
def sanitize_counters(
    scheme_name: str,
    events: LineEventTrace,
    geometry: CacheGeometry,
    counters: FetchCounters,
    options: Optional[Mapping[str, Any]] = None,
) -> List[SanitizerViolation]:
    """All applicable post-hoc checks for one finished replay's counters."""
    opts = dict(options or {})
    violations = check_counters(counters, geometry, events=events)
    if scheme_name == "way-placement":
        same_line_skip = bool(opts.get("same_line_skip", True))
        violations += check_wayhint(
            events,
            counters,
            int(opts.get("wpa_size", 0)),
            hint_initial=bool(opts.get("hint_initial", False)),
            same_line_skip=same_line_skip,
        )
        violations += check_differential(
            events,
            geometry,
            itlb_entries=int(opts.get("itlb_entries", 32)),
            page_size=int(opts.get("page_size", 1024)),
            same_line_skip=same_line_skip,
        )
    elif scheme_name == "baseline":
        violations += check_hint_inert(counters)
    violations += check_static_bounds(scheme_name, events, geometry, counters, opts)
    return _dedupe(violations)


def sanitize_events(
    events: LineEventTrace,
    geometry: CacheGeometry,
    wpa_size: int,
    itlb_entries: int = 32,
    page_size: int = 1024,
    same_line_skip: bool = True,
    energy_params: Optional[EnergyParams] = None,
    organisation: str = "cam",
) -> List[SanitizerViolation]:
    """Replay one trace through both kernels and run every array check.

    This is the certification path: baseline and way-placement kernels
    replay the trace, :func:`sanitize_counters` checks each kernel's
    counters (the way-placement checks include the differential), and
    (when energy parameters are given) the priced breakdown must
    reconcile.
    """
    base = baseline_counters(
        events, geometry, itlb_entries=itlb_entries, page_size=page_size
    )
    wp = way_placement_counters(
        events,
        geometry,
        wpa_size=wpa_size,
        itlb_entries=itlb_entries,
        page_size=page_size,
        same_line_skip=same_line_skip,
    )
    shared = {"itlb_entries": itlb_entries, "page_size": page_size}
    # The baseline kernel above ran with its default same_line_skip=False.
    violations = sanitize_counters("baseline", events, geometry, base, shared)
    violations += sanitize_counters(
        "way-placement",
        events,
        geometry,
        wp,
        {**shared, "wpa_size": wpa_size, "same_line_skip": same_line_skip},
    )
    if energy_params is not None:
        model = CacheEnergyModel(
            geometry, energy_params, organisation=organisation, wayhint=True
        )
        violations += check_energy(wp, model.energy(wp), model)
    return _dedupe(violations)


# ---------------------------------------------------------------------------
# The live hook
# ---------------------------------------------------------------------------
class SanitizerHook:
    """Wrap a reference :class:`FetchScheme` and sanitize it while it runs.

    The hook drives the wrapped scheme through :meth:`FetchScheme.feed` in
    bounded segments (segmented replay is exactly equivalent to whole-trace
    replay), asserting after every segment that the counters moved
    monotonically and accounted for each event (S007) and that the live
    cache state respects way-placement residency (S005).  After the final
    segment the full post-hoc counter checks run.  With
    ``raise_on_violation`` (the default) any violation raises
    :class:`~repro.errors.SanitizerError`; otherwise violations collect in
    :attr:`violations`.
    """

    def __init__(
        self,
        scheme: FetchScheme,
        segment_events: int = 4096,
        raise_on_violation: bool = True,
    ):
        self.scheme = scheme
        self.geometry = scheme.geometry
        self.segment_events = max(1, int(segment_events))
        self.raise_on_violation = raise_on_violation
        self.violations: List[SanitizerViolation] = []
        self.segments_checked = 0
        hint = getattr(scheme, "hint", None)
        self._hint_initial = bool(hint.bit) if hint is not None else False

    @property
    def name(self) -> str:
        return self.scheme.name

    @property
    def counters(self) -> FetchCounters:
        return self.scheme.counters

    def run(self, events: LineEventTrace) -> FetchCounters:
        """Replay ``events`` on the wrapped scheme under supervision."""
        scheme = self.scheme
        if scheme._ran:
            raise SchemeError(
                f"scheme {scheme.name!r} already ran; construct a fresh instance"
            )
        scheme._ran = True

        previous = self._snapshot()
        position = 0
        total = events.num_events
        while position < total:
            end = min(position + self.segment_events, total)
            scheme.feed(events.segment(position, end))
            current = self._snapshot()
            self.violations.extend(self._check_segment(previous, current, end - position))
            self.violations.extend(check_scheme_state(scheme))
            previous = current
            position = end
            self.segments_checked += 1

        self.violations.extend(self._final_checks(events))
        self.violations = _dedupe(self.violations)
        if self.raise_on_violation:
            raise_if_violations(self.violations, scheme.name)
        return scheme.counters

    # -- internals -----------------------------------------------------------
    def _snapshot(self) -> Dict[str, int]:
        counters = self.scheme.counters
        return {name: getattr(counters, name) for name in _COUNTER_FIELDS}

    def _check_segment(
        self,
        previous: Mapping[str, int],
        current: Mapping[str, int],
        segment_events: int,
    ) -> List[SanitizerViolation]:
        violations: List[SanitizerViolation] = []
        for name in _COUNTER_FIELDS:
            if current[name] < previous[name]:
                violations.append(
                    _violation(
                        "S007",
                        f"counter {name} decreased across a segment boundary: "
                        f"{previous[name]} -> {current[name]}",
                    )
                )
        delta_events = current["line_events"] - previous["line_events"]
        if delta_events != segment_events:
            violations.append(
                _violation(
                    "S007",
                    f"a segment of {segment_events} event(s) advanced "
                    f"line_events by {delta_events}",
                )
            )
        delta_outcomes = (
            current["hits"] - previous["hits"] + current["misses"] - previous["misses"]
        )
        if delta_outcomes > delta_events:
            violations.append(
                _violation(
                    "S007",
                    f"{delta_outcomes} lookup outcomes for {delta_events} "
                    f"event(s) in one segment",
                )
            )
        return violations

    def _final_checks(self, events: LineEventTrace) -> List[SanitizerViolation]:
        scheme = self.scheme
        violations = check_counters(scheme.counters, self.geometry, events=events)
        violations += check_scheme_state(scheme)
        if scheme.name == "way-placement":
            violations += check_wayhint(
                events,
                scheme.counters,
                getattr(scheme, "wpa_size", 0),
                hint_initial=self._hint_initial,
                same_line_skip=getattr(scheme, "same_line_skip", True),
            )
        elif scheme.name == "baseline":
            violations += check_hint_inert(scheme.counters)
        return violations
