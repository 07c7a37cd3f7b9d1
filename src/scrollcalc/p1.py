"""Direct-image bookkeeping on the base P^1.

Pushing O(aH + bf) down the ruling gives Sym^a(O(a0) + O(a1)) (x) O(b),
a sum of a+1 line bundles whose degrees form an arithmetic progression
with step e = a1 - a0.  Cohomology of a line bundle on P^1 is
h^0(O(d)) = max(d+1, 0) and h^1(O(d)) = max(-d-1, 0).
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import NegativeSymPower
from .scroll import Scroll


class P1Sum(tuple):
    """A finite multiset of line-bundle degrees on P^1, stored sorted: the
    tuple of its degrees, so it iterates, tests membership and has length
    as that multiset."""

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
    """Degrees of Sym^a(O(a0) + O(a1)) (x) O(b), a multiset of size a+1."""
    if a < 0:
        raise NegativeSymPower(f"Sym^{a} requested; the power must be >= 0")
    # read once, not a + 1 times: a NamedTuple field read is a descriptor call
    a0, a1 = s.a0, s.a1
    return P1Sum(i * a0 + (a - i) * a1 + b for i in range(a + 1))


def p1_cohomology(p: P1Sum) -> tuple[int, int]:
    """(h^0, h^1) of a sum of line bundles on P^1."""
    h0 = sum(d + 1 for d in p if d >= 0)
    h1 = sum(-d - 1 for d in p if d <= -2)
    return (h0, h1)
