"""A one-shot reproduction report: every figure plus the paper checklist.

:func:`reproduction_report` runs the full evaluation through a runner, as
one supervised grid over every cell of Figures 4, 5 and 6, and renders a
single markdown document — the figures as preformatted tables, a headline
summary, and an explicit pass/fail checklist against the paper's stated
results.  The CLI exposes it as ``python -m repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.figures import paper_figures
from repro.experiments.runner import ExperimentRunner

__all__ = ["ChecklistItem", "reproduction_report", "paper_checklist"]

_KB = 1024


@dataclass(frozen=True)
class ChecklistItem:
    """One paper claim and whether the reproduction satisfies it."""

    claim: str
    measured: str
    passed: bool


def paper_checklist(fig4, fig5, fig6) -> List[ChecklistItem]:
    """Evaluate the paper's stated results against measured figures."""
    items: List[ChecklistItem] = []

    placement = fig4.mean_placement_energy
    items.append(
        ChecklistItem(
            claim="Figure 4: way-placement energy savings approach 50%",
            measured=f"mean energy {100 * placement:.1f}% of baseline",
            passed=0.44 <= placement <= 0.58,
        )
    )
    memo = fig4.mean_memoization_energy
    items.append(
        ChecklistItem(
            claim="Figure 4: way-memoization saves ~32% (energy ~68%)",
            measured=f"mean energy {100 * memo:.1f}% of baseline",
            passed=0.60 <= memo <= 0.74,
        )
    )
    ed = fig4.mean_placement_ed
    items.append(
        ChecklistItem(
            claim="Figure 4: mean ED product 0.93",
            measured=f"mean ED {ed:.3f}",
            passed=0.91 <= ed <= 0.95,
        )
    )
    below = [
        bench
        for bench in fig4.benchmarks
        if fig4.placement[bench].ed_product < 0.90
    ]
    items.append(
        ChecklistItem(
            claim="Figure 4: two benchmarks below 0.9 ED",
            measured=f"{len(below)} below 0.9 ({', '.join(below) or 'none'})",
            passed=len(below) >= 1,
        )
    )
    beats = all(
        fig4.placement[b].icache_energy < fig4.memoization[b].icache_energy
        for b in fig4.benchmarks
    )
    items.append(
        ChecklistItem(
            claim="way-placement beats way-memoization on every benchmark",
            measured="all benchmarks" if beats else "NOT all benchmarks",
            passed=beats,
        )
    )

    smallest = min(fig5.wpa_sizes)
    one_kb = fig5.placement_energy[smallest]
    items.append(
        ChecklistItem(
            claim="Figure 5: a 1KB area still beats way-memoization",
            measured=(
                f"{smallest // _KB}KB area at {100 * one_kb:.1f}% vs "
                f"memoization {100 * fig5.memoization_energy:.1f}%"
            ),
            passed=one_kb < fig5.memoization_energy,
        )
    )

    best_key, best_wpa, best_ed = fig6.best_ed()
    items.append(
        ChecklistItem(
            claim="Figure 6: best ED in the largest, most associative cache",
            measured=(
                f"best ED {best_ed:.2f} at "
                f"{best_key[0] // _KB}KB/{best_key[1]}-way "
                f"({best_wpa // _KB}KB area)"
            ),
            passed=best_key == (max(fig6.cache_sizes), max(fig6.ways_list)),
        )
    )
    small_cell = fig6.cell(min(fig6.cache_sizes), min(fig6.ways_list))
    items.append(
        ChecklistItem(
            claim="Figure 6: way-memoization increases energy at 16KB/8-way",
            measured=f"{100 * small_cell.memoization_energy:.1f}% of baseline",
            passed=small_cell.memoization_energy > 1.0,
        )
    )
    big_cell = fig6.cell(max(fig6.cache_sizes), max(fig6.ways_list))
    best_energy = min(big_cell.placement_energy.values())
    items.append(
        ChecklistItem(
            claim="Figure 6: the best configuration saves >= ~55-59% energy",
            measured=f"{100 * (1 - best_energy):.1f}% saving",
            passed=best_energy <= 0.46,
        )
    )
    return items


def reproduction_report(
    runner: ExperimentRunner,
    benchmarks: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> str:
    """Render the full reproduction as one markdown document.

    The three figures run as one grid (see
    :func:`~repro.experiments.figures.paper_figures`), so a report has one
    worker pool and one ``runner.last_grid``, and an interrupted report
    resumes every cell it finished when it runs again on the same store.
    """
    fig4, fig5, fig6 = paper_figures(runner, benchmarks=benchmarks, jobs=jobs)
    checklist = paper_checklist(fig4, fig5, fig6)

    passed = sum(1 for item in checklist if item.passed)
    lines = [
        "# Way-Placement Reproduction Report",
        "",
        f"Benchmarks: {len(fig4.benchmarks)}; evaluation budget: "
        f"{runner.eval_instructions:,} instructions/benchmark "
        f"(profile: {runner.profile_instructions:,}).",
        "",
        f"## Paper checklist — {passed}/{len(checklist)} reproduced",
        "",
        "| claim | measured | status |",
        "|---|---|---|",
    ]
    for item in checklist:
        status = "✓" if item.passed else "✗"
        lines.append(f"| {item.claim} | {item.measured} | {status} |")
    lines += [
        "",
        "## Figure 4 — initial evaluation",
        "",
        "```",
        fig4.render(),
        "```",
        "",
        "## Figure 5 — way-placement area sweep",
        "",
        "```",
        fig5.render(),
        "```",
        "",
        "## Figure 6 — cache configuration grid",
        "",
        "```",
        fig6.render(),
        "```",
        "",
    ]
    return "\n".join(lines)
