"""Seeded sweeps cross-checking the splitting decisions.

For each random direct sum the two decision procedures are compared
against the structural characterisations of their split types, and the
closed-form violating-twist sets are compared against a brute-force scan
that recomputes every h^1 through the direct-image route.  The
characterisations and the scan stay in `scrollcalc.harness`, where the
benchmark's oracles read them too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from scrollcalc import (
    DivisorClass,
    Scroll,
    Sum,
    Verdict,
    bundle_sum,
    decide_split_acm3,
    decide_split_tH,
    format_bundle,
    violating_twists,
)
from scrollcalc.harness import (
    F_BOUND,
    H_BOUND,
    brute_force_violations,
    splits_into_h_twists,
    splits_into_three_types,
)
from scrollcalc.splitting import acm3_families, th_families


def random_sum_bundle(
    rng: random.Random, max_rank: int = 5, h_bound: int = H_BOUND, f_bound: int = F_BOUND
) -> Sum:
    rank = rng.randint(1, max_rank)
    return bundle_sum(
        *(DivisorClass(rng.randint(-h_bound, h_bound), rng.randint(-f_bound, f_bound)) for _ in range(rank))
    )


@dataclass
class SplitHarnessReport:
    scroll: Scroll
    checked: int = 0
    th_mismatches: list[str] = field(default_factory=list)
    acm3_mismatches: list[str] = field(default_factory=list)
    window_mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.th_mismatches or self.acm3_mismatches or self.window_mismatches)

    def summary(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        return (
            f"{self.scroll}: {self.checked} bundles, "
            f"{len(self.th_mismatches)} h-twist, {len(self.acm3_mismatches)} three-type, "
            f"{len(self.window_mismatches)} window mismatches [{status}]"
        )


def run_split_harness(
    s: Scroll,
    count: int = 1000,
    seed: int = 0,
    window: tuple[int, int] = (-15, 15),
    max_rank: int = 5,
) -> SplitHarnessReport:
    """Randomised equivalence check of both splitting decisions on s."""
    rng = random.Random(f"{seed}:S({s.a0},{s.a1})")
    report = SplitHarnessReport(scroll=s)
    offsets = tuple(g for _, g in th_families(s)) + tuple(g for _, g in acm3_families(s))
    lo, hi = window
    for _ in range(count):
        b = random_sum_bundle(rng, max_rank=max_rank)
        report.checked += 1
        text = format_bundle(b)

        if (decide_split_tH(s, b).verdict is Verdict.TRUE) != splits_into_h_twists(b):
            report.th_mismatches.append(text)
        if (decide_split_acm3(s, b).verdict is Verdict.TRUE) != splits_into_three_types(b):
            report.acm3_mismatches.append(text)

        for offset in offsets:
            closed = tuple(
                t
                for t_lo, t_hi in violating_twists(s, b, offset)
                for t in range(max(t_lo, lo), min(t_hi, hi) + 1)
            )
            brute = brute_force_violations(s, b, offset, window)
            if closed != brute:
                report.window_mismatches.append(f"{text} (offset {offset})")
                break
    return report
