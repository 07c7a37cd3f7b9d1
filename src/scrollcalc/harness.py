"""Structural characterisations and a brute-force scan that cross-check
the splitting decisions.

The test suite's seeded sweeps and the benchmark's oracles read them: a
direct sum splits into twists of H exactly when every f-coefficient is
0, into the three ACM types exactly when every f-coefficient is -1, 0
or 1, and the closed-form violating-twist sets must equal a scan that
recomputes every h^1 through the direct-image route.
"""

from __future__ import annotations

from .cohomology import Sum, line_cohomology
from .scroll import DivisorClass, Scroll

DEFAULT_SCROLLS: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3))
H_BOUND = 8
F_BOUND = 12


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
