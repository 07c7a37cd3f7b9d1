"""The P^1 direct-image route as it was before the sorted-progression
rewrite: a generator of the a+1 degrees handed to `P1Sum`, which sorts
them, and two filtered passes over the degrees for h^0 and h^1.  The
properties in test_p1.py hold `sym_decompose` and `p1_cohomology` to
it, degree for degree and value for value.
"""

from __future__ import annotations

from scrollcalc.errors import NegativeSymPower
from scrollcalc.p1 import P1Sum
from scrollcalc.scroll import Scroll


def sym_decompose(s: Scroll, a: int, b: int) -> P1Sum:
    if a < 0:
        raise NegativeSymPower(f"Sym^{a} requested; the power must be >= 0")
    return P1Sum(i * s.a0 + (a - i) * s.a1 + b for i in range(a + 1))


def p1_cohomology(p: P1Sum) -> tuple[int, int]:
    h0 = sum(d + 1 for d in p if d >= 0)
    h1 = sum(-d - 1 for d in p if d <= -2)
    return (h0, h1)
