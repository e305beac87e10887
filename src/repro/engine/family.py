"""Family replay: one trace traversal for a whole family of configurations.

The paper's sweeps (Figures 4-6, the sensitivity study) replay the *same*
:class:`~repro.trace.events.LineEventTrace` under many WPA sizes, schemes,
and option combinations.  The per-config kernels in
:mod:`repro.engine.kernels` traverse the event stream once per cell; this
module traverses it **once per family** — cells sharing a trace and a cache
geometry — and emits bit-identical
:class:`~repro.cache.access.FetchCounters` for every member.

It exploits what sweep points have in common: *adjacent configurations
share almost all of their state evolution*.  Sort the family by effective
WPA threshold (a baseline member is the degenerate threshold 0).  Two
neighbouring configs ``k`` and ``k + 1`` apply **identical** fill rules to
every event except those whose line address falls in the threshold gap
``[t_k, t_{k+1})`` — config ``k + 1`` mandates the way, config ``k``
round-robins.  So, starting from one shared state evolution, per-set cache
states can only *diverge* at a gap-straddling miss, and the divergence
persists exactly until the eviction cascade it seeds dies out.

The sequential pass (:func:`_replay_runs`) makes that sharing literal:

* Each cache set holds an ordered list of **runs** — maximal intervals of
  the threshold-sorted config axis whose members currently have
  bit-identical set state.  A run owns one state snapshot (``tags`` per
  way, the round-robin pointer, a residency dict) for every config in the
  interval at once; the whole family starts as a single run per set.
* A hit touches no state, so the common event — the line is resident in
  *every* run — costs one probe of a per-set ``tag -> containing-run
  count`` dict for the whole family, however many runs the set has.
* A miss is processed **per run, not per config**: counters are range
  updates on difference arrays over the config axis, and the fill mutates
  the one shared snapshot.  Only when the event's threshold position falls
  strictly inside a run does the run split in two (clone the snapshot;
  round-robin fill below, mandated fill at and above).
* After any miss the set's runs are swept for **reconvergence**: adjacent
  runs whose snapshots became equal again merge back into one, so a
  divergence costs only its own cascade.

Duplicate thresholds never split apart, and thresholds that cut the
layout's lines at the same place never see a delta event, so repeated or
equivalent sweep points are free.  A family costs
``O(events + Σ_sets misses × live runs)``, with the live run count near 1
for realistic sweeps.

The event-independent reductions (predicted hints, false positives and
negatives, extra in-WPA fetches) are monotone step functions of the
threshold, so :func:`_delta_reductions` answers them with O(log events)
``searchsorted`` lookups into per-trace sorted aggregates
(:func:`repro.engine.arrays.sweep_aggregates`), shared by every family
over the trace.

The per-config kernels and the reference schemes remain the oracle: every
counter here is computed with the same integer arithmetic, and
``tests/test_engine_family.py`` asserts bit-identity field by field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from repro.cache.access import FetchCounters
from repro.cache.geometry import CacheGeometry
from repro.errors import SchemeError
from repro.engine.arrays import geometry_lists, itlb_misses, sweep_aggregates
from repro.engine.kernels import (
    _BASELINE_OPTIONS,
    _WAY_PLACEMENT_OPTIONS,
    _check_stream,
    _check_tlb,
    FAST_SCHEMES,
)
from repro.trace.events import LineEventTrace

__all__ = ["BatchMember", "batchable", "family_counters"]


@dataclass(frozen=True)
class BatchMember:
    """One configuration of a family: a scheme plus its options.

    ``options`` takes exactly the keyword arguments of the corresponding
    per-config kernel (:func:`~repro.engine.kernels.baseline_counters` /
    :func:`~repro.engine.kernels.way_placement_counters`); unknown options
    make the member non-batchable, mirroring ``fast_counters``.
    """

    scheme: str
    options: Mapping = field(default_factory=dict)


def batchable(scheme: str, options: Mapping) -> bool:
    """Can this (scheme, options) cell join a family?

    Mirrors the gate of :func:`~repro.engine.kernels.fast_counters`: only
    schemes with a vectorized kernel, and only options that kernel models.
    """
    if scheme == "baseline":
        return set(options) <= _BASELINE_OPTIONS
    if scheme == "way-placement":
        return set(options) <= _WAY_PLACEMENT_OPTIONS
    return False


@dataclass
class _Member:
    """A member with defaults resolved."""

    scheme: str
    wpa_size: int
    itlb_entries: int
    page_size: int
    same_line_skip: bool
    hint_initial: bool

    @property
    def threshold(self) -> int:
        """Effective WPA threshold for the fill rule (baseline has none)."""
        return self.wpa_size if self.scheme == "way-placement" else 0


def _resolve(member: BatchMember) -> _Member:
    scheme, options = member.scheme, dict(member.options)
    if scheme not in FAST_SCHEMES or not batchable(scheme, options):
        raise SchemeError(
            f"scheme {scheme!r} with options {sorted(options)} is not "
            "batchable; run it on the per-config engines instead"
        )
    if scheme == "baseline":
        return _Member(
            scheme=scheme,
            wpa_size=0,
            itlb_entries=options.get("itlb_entries", 32),
            page_size=options.get("page_size", 1024),
            same_line_skip=bool(options.get("same_line_skip", False)),
            hint_initial=False,
        )
    wpa_size = options.get("wpa_size", 0)
    if wpa_size < 0:
        raise SchemeError(f"way-placement area size must be >= 0, got {wpa_size}")
    if options.get("wpa_base", 0) != 0:
        raise SchemeError(
            "the way-placement area must start at the beginning of the "
            "binary (address 0 in this model)"
        )
    return _Member(
        scheme=scheme,
        wpa_size=wpa_size,
        itlb_entries=options.get("itlb_entries", 32),
        page_size=options.get("page_size", 1024),
        same_line_skip=bool(options.get("same_line_skip", True)),
        hint_initial=bool(options.get("hint_initial", False)),
    )


def _delta_reductions(
    events: LineEventTrace,
    resolved: List[_Member],
    wp_indices: List[int],
) -> Tuple[dict, dict, dict, dict]:
    """Event-independent counts as threshold lookups, not event scans.

    Returns per-index dicts ``(predicted, false_pos, false_neg,
    wpa_extra)`` for the way-placement members.  Every count is a monotone
    function of the threshold, so each member is an O(log events) lookup
    into the per-trace sorted aggregates
    (:func:`repro.engine.arrays.sweep_aggregates`), with the event-0 hint
    seeding handled as an explicit boundary term.  Integer arithmetic
    throughout, by the pair-counting identities documented on
    ``sweep_aggregates``.  ``events`` must be non-empty.
    """
    prefix_sorted, up_a, up_b, dn_a, dn_b, addr_sorted, extra_cumsum = (
        sweep_aggregates(events)
    )
    first_addr = int(events.line_addrs[0])
    thresholds = np.asarray(
        [resolved[i].wpa_size for i in wp_indices], dtype=np.int64
    )
    predicted_rows = np.searchsorted(prefix_sorted, thresholds, side="left")
    false_pos_rows = np.searchsorted(up_a, thresholds, side="left") - np.searchsorted(
        up_b, thresholds, side="left"
    )
    false_neg_rows = np.searchsorted(dn_b, thresholds, side="left") - np.searchsorted(
        dn_a, thresholds, side="left"
    )
    wpa_extra_rows = extra_cumsum[np.searchsorted(addr_sorted, thresholds, side="left")]
    predicted = {}
    false_pos = {}
    false_neg = {}
    wpa_extra = {}
    for slot, index in enumerate(wp_indices):
        hint_initial = resolved[index].hint_initial
        first_in_wpa = first_addr < resolved[index].wpa_size
        predicted[index] = int(predicted_rows[slot]) + int(hint_initial)
        false_pos[index] = int(false_pos_rows[slot]) + int(hint_initial and not first_in_wpa)
        false_neg[index] = int(false_neg_rows[slot]) + int(first_in_wpa and not hint_initial)
        wpa_extra[index] = int(wpa_extra_rows[slot])
    return predicted, false_pos, false_neg, wpa_extra


def _replay_runs(
    events: LineEventTrace,
    geometry: CacheGeometry,
    thresholds: List[int],
) -> Tuple[List[int], List[int], List[int]]:
    """The delta-driven pass: per-config ``(misses, evictions, wp_fills)``.

    ``thresholds`` must be ascending; config ``c`` fills addresses below
    ``thresholds[c]`` into their mandated way and everything else round-
    robin — exactly the per-config kernel's rule.  A run is a plain list
    ``[start, tags, pointer, resident]``: the config interval starts at
    ``start`` and ends where the next run begins; ``tags``/``pointer``/
    ``resident`` are the shared per-set snapshot in exactly the per-config
    kernel's representation.  Counters are difference arrays over the
    config axis, prefix-summed at the end.
    """
    num_configs = len(thresholds)
    ways = geometry.ways
    num_sets = geometry.num_sets

    # Threshold position per event: configs >= position hold the address in
    # their WPA (one searchsorted against the shared address array).
    positions = np.searchsorted(
        np.asarray(thresholds, dtype=np.int64), events.line_addrs, side="right"
    )

    set_indices, tags, mandated = geometry_lists(events, geometry)
    runs_by_set: List[List[list]] = [
        [[0, [-1] * ways, 0, {}]] for _ in range(num_sets)
    ]
    # Per-set aggregate residency: tag -> number of runs whose snapshot
    # holds the tag.  ``res_count[t] == len(runs)`` means every config
    # hits, whatever the current divergence — the O(1) fast path that keeps
    # transparent events from paying O(runs) probes.
    res_count_by_set: List[dict] = [dict() for _ in range(num_sets)]
    misses_diff = [0] * (num_configs + 1)
    evictions_diff = [0] * (num_configs + 1)
    wp_fills_diff = [0] * (num_configs + 1)

    for s, t, m, p in zip(set_indices, tags, mandated, positions.tolist()):
        runs = runs_by_set[s]
        res_count = res_count_by_set[s]
        if res_count.get(t, 0) == len(runs):
            continue  # resident in every run's snapshot: everyone hits
        i = 0
        while i < len(runs):
            run = runs[i]
            if t in run[3]:
                i += 1
                continue
            start = run[0]
            end = runs[i + 1][0] if i + 1 < len(runs) else num_configs
            if start < p < end:
                # The delta case: the threshold gap straddles this run, so
                # its halves fill differently from here on.  Clone the
                # snapshot for [p, end); this iteration fills [start, p).
                clone_resident = dict(run[3])
                runs.insert(i + 1, [p, run[1][:], run[2], clone_resident])
                for tag in clone_resident:
                    res_count[tag] += 1
                end = p
            if p <= start:
                way = m  # whole run inside the WPA: mandated-way fill
                wp_fills_diff[start] += 1
                wp_fills_diff[end] -= 1
            else:
                way = run[2]  # whole run outside: shared round-robin fill
                run[2] = way + 1 if way + 1 < ways else 0
            row = run[1]
            resident = run[3]
            old = row[way]
            if old != -1:
                evictions_diff[start] += 1
                evictions_diff[end] -= 1
                del resident[old]
                remaining = res_count[old] - 1
                if remaining:
                    res_count[old] = remaining
                else:
                    del res_count[old]
            row[way] = t
            resident[t] = way
            res_count[t] = res_count.get(t, 0) + 1
            misses_diff[start] += 1
            misses_diff[end] -= 1
            i += 1
        if len(runs) > 1:
            # Reconvergence sweep: only misses mutate snapshots, so this is
            # the one place adjacent runs can have become equal again.
            j = len(runs) - 1
            while j:
                left, right = runs[j - 1], runs[j]
                if left[2] == right[2] and left[1] == right[1]:
                    for tag in right[3]:
                        remaining = res_count[tag] - 1
                        if remaining:
                            res_count[tag] = remaining
                        else:
                            del res_count[tag]
                    del runs[j]
                j -= 1

    misses = [0] * num_configs
    evictions = [0] * num_configs
    wp_fills = [0] * num_configs
    acc_m = acc_e = acc_w = 0
    for c in range(num_configs):
        acc_m += misses_diff[c]
        acc_e += evictions_diff[c]
        acc_w += wp_fills_diff[c]
        misses[c] = acc_m
        evictions[c] = acc_e
        wp_fills[c] = acc_w
    return misses, evictions, wp_fills


def family_counters(
    events: LineEventTrace,
    geometry: CacheGeometry,
    members: Sequence[BatchMember],
) -> List[FetchCounters]:
    """Replay ``events`` once for every member; counters in input order.

    Every member must be :func:`batchable` (the grid planner guarantees
    this; direct callers get a :class:`~repro.errors.SchemeError`
    otherwise), and every returned :class:`FetchCounters` is bit-identical
    — field by field — to the member's per-config kernel and reference
    scheme.
    """
    _check_stream(events, geometry)
    resolved = [_resolve(member) for member in members]
    for member in resolved:
        _check_tlb(member.itlb_entries, member.page_size, member.wpa_size)
    if not resolved:
        return []

    n = events.num_events
    ways = geometry.ways
    fetches = events.num_fetches

    # -- the one sequential pass, configs sorted by effective threshold ----
    order = sorted(range(len(resolved)), key=lambda i: resolved[i].threshold)
    misses_s, evictions_s, wp_fills_s = _replay_runs(
        events, geometry, [resolved[i].threshold for i in order]
    )
    misses = [0] * len(resolved)
    evictions = [0] * len(resolved)
    wp_fills = [0] * len(resolved)
    for slot, index in enumerate(order):
        misses[index] = misses_s[slot]
        evictions[index] = evictions_s[slot]
        wp_fills[index] = wp_fills_s[slot]

    # -- event-independent reductions across way-placement members ---------
    wp_indices = [i for i, member in enumerate(resolved) if member.scheme == "way-placement"]
    predicted = {}
    false_pos = {}
    false_neg = {}
    wpa_extra = {}
    if wp_indices and n:
        predicted, false_pos, false_neg, wpa_extra = _delta_reductions(
            events, resolved, wp_indices
        )

    # -- assemble per-member counters with the per-config formulas ---------
    results: List[FetchCounters] = []
    for index, member in enumerate(resolved):
        counters = FetchCounters()
        counters.fetches = fetches
        counters.line_events = n
        counters.itlb_accesses = n
        counters.itlb_misses = itlb_misses(events, member.page_size, member.itlb_entries)
        counters.hits = n - misses[index]
        counters.misses = misses[index]
        counters.fills = misses[index]
        counters.evictions = evictions[index]
        if member.scheme == "baseline":
            if member.same_line_skip:
                counters.same_line_fetches = fetches - n
                counters.full_searches = n
                counters.ways_precharged = ways * n
            else:
                counters.full_searches = fetches
                counters.ways_precharged = ways * fetches
        else:
            hinted = predicted.get(index, 0)
            fp = false_pos.get(index, 0)
            full_searches = (n - hinted) + fp
            single_way = hinted
            ways_precharged = hinted + ways * full_searches
            counters.second_accesses = fp
            counters.extra_access_cycles = fp
            counters.hint_false_positives = fp
            counters.hint_false_negatives = false_neg.get(index, 0)
            if member.same_line_skip:
                counters.same_line_fetches = fetches - n
            elif n:
                in_wpa_extra = wpa_extra.get(index, 0)
                other_extra = (fetches - n) - in_wpa_extra
                single_way += in_wpa_extra
                ways_precharged += in_wpa_extra
                full_searches += other_extra
                ways_precharged += ways * other_extra
            counters.full_searches = full_searches
            counters.single_way_searches = single_way
            counters.ways_precharged = ways_precharged
            counters.wp_fills = wp_fills[index]
        counters.validate()
        results.append(counters)
    return results
