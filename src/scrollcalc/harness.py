"""Seeded sweeps cross-checking the splitting decisions.

Used by the test suite and the benchmark's oracles.  For each random
direct sum the two decision procedures are compared against the
structural characterisations of their split types, and the closed-form
violating-twist sets are compared against a brute-force scan that
recomputes every h^1 through the direct-image route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bundlespec import format_bundle
from .cohomology import line_cohomology
from .extensions import Sum, Verdict, bundle_sum
from .scroll import DivisorClass, Scroll
from .splitting import (
    acm3_families,
    decide_split_acm3,
    decide_split_tH,
    th_families,
    violating_twists,
)

DEFAULT_SCROLLS: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3))
H_BOUND = 8
F_BOUND = 12


def random_sum_bundle(
    rng: random.Random, max_rank: int = 5, h_bound: int = H_BOUND, f_bound: int = F_BOUND
) -> Sum:
    rank = rng.randint(1, max_rank)
    return bundle_sum(
        *(DivisorClass(rng.randint(-h_bound, h_bound), rng.randint(-f_bound, f_bound)) for _ in range(rank))
    )


def splits_into_h_twists(b: Sum) -> bool:
    """Structural form of the h-twist criterion: every f-coefficient is 0."""
    return all(d.f == 0 for d, _ in b.terms)


def splits_into_three_types(b: Sum) -> bool:
    """Structural form of the three-type criterion: f-coefficients in {-1,0,1}."""
    return all(d.f in (-1, 0, 1) for d, _ in b.terms)


def brute_force_violations(
    s: Scroll, b: Sum, offset: int, window: tuple[int, int]
) -> tuple[int, ...]:
    """t in the window where h^1(b(tH + offset f)) != 0, summand by summand."""
    lo, hi = window
    shift = DivisorClass(0, offset)
    out = []
    for t in range(lo, hi + 1):
        tw = DivisorClass(t, 0) + shift
        if any(line_cohomology(s, d + tw).h1 > 0 for d, _ in b.terms):
            out.append(t)
    return tuple(out)


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

        verdict = decide_split_tH(s, b)
        if (verdict.outcome is Verdict.TRUE) != splits_into_h_twists(b):
            report.th_mismatches.append(text)
        verdict = decide_split_acm3(s, b)
        if (verdict.outcome is Verdict.TRUE) != splits_into_three_types(b):
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
