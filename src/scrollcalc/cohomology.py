"""Exact cohomology of line bundles and their direct sums on a scroll.

Every computation reduces to the base P^1 through three branches:

* h-coefficient >= 0: push forward along the ruling and read cohomology
  off the Sym decomposition,
* h-coefficient = -1: the bundle has no cohomology at all,
* h-coefficient <= -2: relative duality sends O(aH+bf) to the case
  Sym^(-a-2) twisted by c-b-2, with the outer degrees swapped.

The degree swap in the last branch (X-degree i reads off P^1-degree 2-i)
lives in the cached `_line_cohomology` and nowhere else; every consumer
in the package goes through it, by way of `line_cohomology` or, for the
per-class loop of `sum_cohomology`, directly.

A direct sum of line bundles is a `Sum`: counted classes, the leaf
node of the bundle trees in the extensions module.  Its cohomology is
additive, so `sum_cohomology` and `restricted_cohomology` weight each
distinct class by its count and never expand a multiplicity.
`sum_cohomology_batch` evaluates one sum at a batch of twists, for the
Ext kernel's leaves; `sum_cohomology` is its one-twist call.

`euler_rr` is an independent oracle: it computes the Euler characteristic
from the intersection form alone, chi(D) = 1 + D.(D-K)/2, and never
touches the direct-image route.  The test suite insists the two agree
before anything downstream is trusted.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

from .errors import NegativeCount, OddIntersection, UnsupportedCurveClass
from .p1 import P1Sum, p1_cohomology, sym_decompose
from .scroll import ZERO, DivisorClass, Scroll, intersect, restriction_degree


@dataclass(frozen=True)
class CohomRecord:
    """Exact dimensions (h^0, h^1, h^2); chi is derived, never stored."""

    h0: int
    h1: int
    h2: int

    def __post_init__(self) -> None:
        if min(self.h0, self.h1, self.h2) < 0:
            raise ValueError("cohomology dimensions must be nonnegative")

    @property
    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)

    def __getitem__(self, i: int) -> int:
        return self.as_tuple()[i]


@dataclass(frozen=True)
class Sum:
    """A direct sum of line bundles, stored as counted classes.

    `terms` holds (DivisorClass, count) pairs sorted by class, with equal
    classes merged and zero counts dropped, so a multiplicity costs O(1)
    however large it is; `leaves()` alone expands it.
    """

    terms: tuple[tuple[DivisorClass, int], ...] = ()

    def __post_init__(self) -> None:
        counts: dict[DivisorClass, int] = {}
        for d, n in self.terms:
            if n < 0:
                raise NegativeCount(f"a direct sum cannot hold {n} copies of {d}")
            counts[d] = counts.get(d, 0) + n
        object.__setattr__(self, "terms", tuple(sorted((d, n) for d, n in counts.items() if n)))

    def rank(self) -> int:
        return sum(n for _, n in self.terms)

    def leaves(self) -> tuple[DivisorClass, ...]:
        return tuple(d for d, n in self.terms for _ in range(n))

    def c1(self) -> DivisorClass:
        out = ZERO
        for d, n in self.terms:
            out = out + n * d
        return out

    def sums(self) -> tuple[Sum]:
        """The Sum nodes of the expression: just this one."""
        return (self,)


@lru_cache(maxsize=None)
def _line_cohomology(a0: int, a1: int, h: int, f: int) -> CohomRecord:
    s = Scroll(a0, a1)
    if h >= 0:
        p0, p1 = p1_cohomology(sym_decompose(s, h, f))
        return CohomRecord(p0, p1, 0)
    if h == -1:
        return CohomRecord(0, 0, 0)
    # duality branch: X-degree i equals P^1-degree 2-i of the dual data
    p0, p1 = p1_cohomology(sym_decompose(s, -h - 2, s.c - f - 2))
    return CohomRecord(0, p1, p0)


def line_cohomology(s: Scroll, d: DivisorClass) -> CohomRecord:
    """Exact (h^0, h^1, h^2) of O(d.h H + d.f f) on the scroll."""
    return _line_cohomology(s.a0, s.a1, d.h, d.f)


def sum_cohomology(s: Scroll, b: Sum, twist: DivisorClass = ZERO) -> CohomRecord:
    """Cohomology of a twisted direct sum: n*h^i per distinct class."""
    return CohomRecord(*sum_cohomology_batch(s, b, (twist,))[0])


def sum_cohomology_batch(
    s: Scroll, b: Sum, twists: Iterable[DivisorClass]
) -> list[tuple[int, int, int]]:
    """(h^0, h^1, h^2) of a direct sum at each of `twists`, in order.

    Plain tuples, not records, but held to the record's check: every
    dimension is nonnegative.
    """
    a0, a1, terms = s.a0, s.a1, b.terms
    out = []
    for twist in twists:
        th, tf = twist.h, twist.f
        h0 = h1 = h2 = 0
        for d, n in terms:
            rec = _line_cohomology(a0, a1, d.h + th, d.f + tf)
            h0 += n * rec.h0
            h1 += n * rec.h1
            h2 += n * rec.h2
        if h0 < 0 or h1 < 0 or h2 < 0:
            CohomRecord(h0, h1, h2)  # raises, with the record's message
        out.append((h0, h1, h2))
    return out


def euler_rr(s: Scroll, d: DivisorClass) -> int:
    """chi(O(d)) = 1 + d.(d - K)/2, straight from the intersection form."""
    prod = intersect(d, d - s.K, s)
    if prod % 2:
        # adjunction forces D.(D-K) even; reaching here means the lattice
        # data is corrupt, not that the input is unusual
        raise OddIntersection(f"D.(D-K) = {prod} is odd for D = {d} on {s}")
    return 1 + prod // 2


def h1_violating_h_twists(s: Scroll, d: DivisorClass) -> tuple[tuple[int, int], ...]:
    """Closed intervals of t with h^1(O((d.h + t)H + d.f f)) != 0.

    Only the minimal degree in the direct image matters, so h^1(O(hH+ff))
    is nonzero exactly when

    * h >= 0 and h*a0 + f <= -2, or
    * h <= -2 and f >= (-h - 2)*a0 + c;

    never for h = -1.  Each branch contributes at most one finite
    interval, so conditions of the shape "h^1 vanishes for every twist
    t" reduce to finitely many explicit checks.
    """
    out = []
    top = (-2 - d.f) // s.a0 - d.h
    if top >= -d.h:
        out.append((-d.h, top))
    if d.f >= s.c:
        out.append((-d.h - 2 - (d.f - s.c) // s.a0, -d.h - 2))
    return tuple(out)


def restricted_cohomology(
    s: Scroll, b: Sum, curve: DivisorClass, twist: DivisorClass = ZERO
) -> tuple[int, int]:
    """(h^0, h^1) of (b (x) twist) restricted to a rational curve on s.

    Supported curve classes: the fibre (0,1), the hyperplane section
    (1,0) and the narrow section (1,-a1).  All three are smooth rational,
    so the restriction is a sum of line bundles on P^1 with degrees given
    by the intersection pairing.
    """
    allowed = (DivisorClass(0, 1), DivisorClass(1, 0), DivisorClass(1, -s.a1))
    if curve not in allowed:
        raise UnsupportedCurveClass(
            f"restriction to {curve} is not supported on {s}; "
            f"choose one of {', '.join(str(a) for a in allowed)}"
        )
    h0 = h1 = 0
    for d, n in b.terms:
        p0, p1 = p1_cohomology(P1Sum((restriction_degree(d + twist, curve, s),)))
        h0 += n * p0
        h1 += n * p1
    return (h0, h1)
