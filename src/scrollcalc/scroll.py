"""Picard-lattice arithmetic on smooth rational normal scroll surfaces.

S(a0,a1), with 0 < a0 <= a1, is the projectivisation of O(a0) + O(a1)
over P^1, embedded in P^(a0+a1+1) by its tautological class.  Throughout
the package a scroll is identified by the pair (a0, a1); its degree is
c = a0 + a1 and its imbalance is e = a1 - a0.

Pic(S(a0,a1)) is free of rank two on the hyperplane class H and the
fibre class f, with intersection numbers

    H.H = c,   H.f = 1,   f.f = 0,

and canonical class K = -2H + (c-2)f.  All computations in this module
are exact integer arithmetic on (h, f) coordinate pairs.  A
`DivisorClass` is a NamedTuple of that pair, so it equals, hashes and
sorts as the plain tuple (h, f); only its +, -, unary - and integer *
are overridden, with the lattice's operations.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .errors import InvalidScroll


class DivisorClass(NamedTuple):
    """An element h*H + f*f of the Picard lattice Z<H, f>."""

    h: int
    f: int

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.h + other.h, self.f + other.f)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.h - other.h, self.f - other.f)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.h, -self.f)

    def __mul__(self, n: int) -> "DivisorClass":
        return DivisorClass(self.h * n, self.f * n)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"O({self.h},{self.f})"


ZERO = DivisorClass(0, 0)
FIBRE = DivisorClass(0, 1)
HYPERPLANE = DivisorClass(1, 0)


class Scroll(NamedTuple("Scroll", [("a0", int), ("a1", int)])):
    """The surface S(a0, a1).  Construction validates 0 < a0 <= a1."""

    __slots__ = ()
    # `_make`, and `_replace` through it, construct and so validate
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, a0: int, a1: int) -> Scroll:
        if not (0 < a0 <= a1):
            raise InvalidScroll(f"invalid scroll S({a0},{a1}): need 0 < a0 <= a1")
        return super().__new__(cls, a0, a1)

    @property
    def c(self) -> int:
        """Degree of the embedded surface."""
        return self.a0 + self.a1

    @property
    def e(self) -> int:
        """Imbalance a1 - a0; the scroll is balanced when e = 0."""
        return self.a1 - self.a0

    @property
    def K(self) -> DivisorClass:
        """Canonical class -2H + (c-2)f."""
        return DivisorClass(-2, self.c - 2)

    def narrow_section(self) -> DivisorClass:
        """The section class H - a1*f of self-intersection -e."""
        return DivisorClass(1, -self.a1)

    def __str__(self) -> str:
        return f"S({self.a0},{self.a1})"


def intersect(d1: DivisorClass, d2: DivisorClass, s: Scroll) -> int:
    """Intersection number d1.d2 under H.H = c, H.f = 1, f.f = 0."""
    return d1.h * d2.h * s.c + d1.h * d2.f + d1.f * d2.h


def serre_dual(d: DivisorClass, s: Scroll) -> DivisorClass:
    """The class K - d pairing with d in Serre duality."""
    return s.K - d


def twist_rectangle(h_range: tuple[int, int], f_range: tuple[int, int]) -> Iterator[DivisorClass]:
    """The twists hH + ff with h and f in the closed ranges, lazily, in
    row-major order (h outer, f inner)."""
    (hlo, hhi), (flo, fhi) = h_range, f_range
    return (DivisorClass(th, tf) for th in range(hlo, hhi + 1) for tf in range(flo, fhi + 1))
