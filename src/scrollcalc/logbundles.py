"""Logarithmic cotangent bundles of fibre-and-section arrangements.

An arrangement D on S(a0,a1) consists of `lines` distinct fibres (class
f) and `curves` distinct sections in the narrow class H - a1*f.  The
log bundle Omega^1(log D) sits in the residue sequence

    0 -> Omega^1 -> Omega^1(log D) -> (+) O_{D_i} -> 0

while the cotangent bundle itself sits in

    0 -> O(-2f) -> Omega^1 -> O(-2H + cf) -> 0,

an extension that splits exactly when e = 0.  Where the splitting type
of the log bundle is known it is a sum of two line bundles:

    e > 0, curves = 0, lines >= e+1:  O((lines-2)f) + O(-2H + cf)
    e > 0, curves = 1, lines >= e+1:  O((lines-2)f) + O(-H + a0*f)
    e = 0, any counts:                O((lines-2)f)
                                      + O((curves-2)H + (c - curves*a1)f)

`residue_consistency` cross-checks a claimed type against both exact
consequences of the residue sequence: additivity of c1 and additivity
of Euler characteristics after arbitrary twists (each component is a
rational curve, so chi of its twisted structure sheaf is degree + 1).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .cohomology import Sum, euler_rr
from .errors import (
    BoundsTooSmall,
    HypothesisViolated,
    NegativeCount,
    RankMismatch,
    TooManyCurves,
    UnsupportedArrangement,
)
from .extensions import Verdict
from .regularity import is_regular
from .scroll import DivisorClass, Scroll, intersect
from .splitting import is_acm

# failing chi checks a LogReport keeps; the rest are only counted
KEPT_FAILURES = 5


class Arrangement(NamedTuple):
    """A validated arrangement of fibres and narrow sections."""

    scroll: Scroll
    lines: int
    curves: int
    supported: bool
    formula_only: bool = False

    def boundary_class(self) -> DivisorClass:
        return DivisorClass(0, self.lines) + self.curves * self.scroll.narrow_section()


def validate_arrangement(s: Scroll, lines: int, curves: int) -> Arrangement:
    """Tag an arrangement as Supported or not; reject impossible ones.

    Unbalanced scrolls carry a single narrow section, so curves >= 2 is
    rejected outright there; curves <= 1 arrangements on them are
    Supported once lines >= e+1.  Balanced scrolls support everything.
    The single-curve, no-line case on a balanced scroll is formula_only: its
    splitting type comes from the closed formula alone, the stepwise
    residue construction never reaches it.
    """
    if lines < 0 or curves < 0:
        raise NegativeCount(f"component counts must be >= 0, got ({lines}, {curves})")
    if s.e > 0 and curves >= 2:
        raise TooManyCurves(
            f"{s} has a unique section in class {s.narrow_section()}; "
            f"an arrangement cannot contain {curves} of them"
        )
    if s.e == 0:
        return Arrangement(s, lines, curves, True, (lines, curves) == (0, 1))
    return Arrangement(s, lines, curves, curves <= 1 and lines >= s.e + 1)


def log_splitting_type(arr: Arrangement) -> Sum:
    """Splitting type of Omega^1(log D) as a sum of two line bundles."""
    if not arr.supported:
        raise UnsupportedArrangement(
            f"no splitting formula for {arr.lines} lines and {arr.curves} "
            f"curves on {arr.scroll} (unbalanced scrolls need curves <= 1 "
            f"and lines >= e+1)"
        )
    s = arr.scroll
    first = DivisorClass(0, arr.lines - 2)
    if s.e == 0:
        # covers the empty arrangement too: (curves-2, c) = the split cotangent
        second = DivisorClass(arr.curves - 2, s.c - arr.curves * s.a1)
    elif arr.curves == 0:
        second = DivisorClass(-2, s.c)
    else:
        second = DivisorClass(-1, s.a0)
    return Sum(((first, 1), (second, 1)))


class ChiCheck(NamedTuple):
    """A twist where the claimed chi (lhs) differs from the residue
    sequence's (rhs)."""

    twist: DivisorClass
    lhs: int
    rhs: int


class LogReport(NamedTuple):
    """The c1 check, and the chi checks as counts plus the first
    KEPT_FAILURES failing twists, so its size does not grow with the grid."""

    claimed: Sum
    c1_expected: DivisorClass
    c1_check: bool
    chi_total: int  # twists checked
    chi_failed: int  # twists where the two sides differ
    chi_failures: tuple[ChiCheck, ...]  # the first KEPT_FAILURES of those

    @property
    def ok(self) -> bool:
        return self.c1_check and self.chi_failed == 0


def residue_consistency(
    arr: Arrangement, claimed: Sum, twist_grid: Iterable[DivisorClass]
) -> LogReport:
    """Check a claimed splitting type against the residue sequence.

    c1 must equal K + (sum of the component classes); for every twist T
    the claimed chi must equal chi of the twisted cotangent pieces plus
    one chi(P^1, O(deg)) = deg + 1 term per component.  Both sides are
    computed by Riemann-Roch, independently of any splitting formula.
    The grid is read once, lazily, and the report keeps counts and the
    first KEPT_FAILURES failures, so memory does not grow with the grid.
    """
    rank = claimed.rank()
    if rank != 2:
        raise RankMismatch(f"a log splitting type has rank 2, got rank {rank}")
    s = arr.scroll
    c1_expected = s.K + arr.boundary_class()
    total = failed = 0
    failures = []
    for tw in twist_grid:
        lhs = sum(n * euler_rr(s, d + tw) for d, n in claimed.terms)
        rhs = (
            euler_rr(s, DivisorClass(0, -2) + tw)
            + euler_rr(s, DivisorClass(-2, s.c) + tw)
            + arr.lines * (intersect(tw, DivisorClass(0, 1), s) + 1)
            + arr.curves * (intersect(tw, s.narrow_section(), s) + 1)
        )
        total += 1
        if lhs != rhs:
            failed += 1
            if len(failures) < KEPT_FAILURES:
                failures.append(ChiCheck(tw, lhs, rhs))
    return LogReport(claimed, c1_expected, claimed.c1() == c1_expected, total, failed, tuple(failures))


def classify_regular_acm_log(
    s: Scroll, max_lines: int, max_curves: int
) -> tuple[tuple[int, int, Sum], ...]:
    """All arrangements up to the bounds whose log bundle is regular and ACM.

    Only balanced scrolls of degree > 2 are in range.  The bounds must
    leave a margin past the expected answer, so max_lines >= c+2 and
    max_curves >= 3 are required.
    """
    if s.e != 0 or s.c <= 2:
        raise HypothesisViolated(
            f"classification needs a balanced scroll of degree > 2, got {s}"
        )
    if max_lines < s.c + 2 or max_curves < 3:
        raise BoundsTooSmall(
            f"bounds too small to be conclusive: need max_lines >= {s.c + 2} "
            f"and max_curves >= 3"
        )
    found = []
    for lines in range(max_lines + 1):
        for curves in range(max_curves + 1):
            split = log_splitting_type(validate_arrangement(s, lines, curves))
            if (
                is_regular(s, split).verdict is Verdict.TRUE
                and is_acm(s, split).verdict is Verdict.TRUE
            ):
                found.append((lines, curves, split))
    return tuple(found)
