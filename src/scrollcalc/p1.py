"""Direct-image bookkeeping on the base P^1.

Pushing O(aH + bf) down the ruling gives Sym^a(O(a0) + O(a1)) (x) O(b),
a sum of a+1 line bundles whose degrees form an arithmetic progression
with step e = a1 - a0.  Cohomology of a line bundle on P^1 is
h^0(O(d)) = max(d+1, 0) and h^1(O(d)) = max(-d-1, 0).

Every `P1Sum` is sorted: the constructor sorts, `sym_decompose` builds
an ascending progression, and `p1_cohomology` relies on that order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from itertools import islice

from .errors import NegativeSymPower
from .scroll import Scroll


class P1Sum(tuple):
    """A finite multiset of line-bundle degrees on P^1: the tuple of its
    degrees in ascending order (the constructor sorts), so it iterates,
    tests membership and has length as that multiset."""

    __slots__ = ()

    def __new__(cls, degrees: Iterable[int]) -> P1Sum:
        return super().__new__(cls, sorted(degrees))

    def __repr__(self) -> str:
        return f"P1Sum(degrees={self.degrees!r})"

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def rank(self) -> int:
        return len(self)


def sym_decompose(s: Scroll, a: int, b: int) -> P1Sum:
    """Degrees of Sym^a(O(a0) + O(a1)) (x) O(b), a multiset of size a+1,
    built ascending from a*a0 + b in steps of e, without a sort."""
    if a < 0:
        raise NegativeSymPower(f"Sym^{a} requested; the power must be >= 0")
    lo, e = a * s.a0 + b, s.e
    return tuple.__new__(P1Sum, range(lo, lo + a * e + 1, e) if e else (lo,) * (a + 1))


def p1_cohomology(p: P1Sum) -> tuple[int, int]:
    """(h^0, h^1) of a sum of line bundles on P^1: its degrees >= 0 are
    a sorted tail and those <= -2 a head, each bisected and summed."""
    i, j = bisect_left(p, 0), bisect_right(p, -2)
    return (sum(islice(p, i, None)) + len(p) - i, -sum(islice(p, j)) - j)
