"""Castelnuovo-Mumford style regularity adapted to the scroll's ruling.

A bundle F is (p,p')-regular when, writing E = F(pH + p'f),

    h^2(E(-H + (c-2)f)) = 0,
    h^1(E(-H + (c-1)f)) = 0,
    h^1(E(-f)) = 0.

Reg(F) is the least p making F (p,0)-regular.  For a single line bundle
O(aH + bf) the three probes collapse to the closed region

    regular  iff  a >= 0 and b >= -a*a0,

whence Reg(O(aH+bf)) = max(-a, ceil(-b/a0) - a); a direct sum is regular
exactly when each summand is.  For extension classes the probes are
interval valued and the verdict may be indeterminate.

`reg` decides the least p from two twists, not from a scan.  The upper
bound hi_i of an Ext node is the sum of its children's, so at any twist
the root's hi_i is the exact h^i of the direct sum of the leaves.  The
test is TRUE exactly when all three hi vanish, that is when every leaf
is regular: exactly for p >= r = max line_bundle_reg over the leaves.
An upward scan therefore first meets TRUE at r.  It returns r unless
the verdict just below, at r - 1, is INDETERMINATE; a FALSE there
certifies that no member of the class is regular at r - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyBundle
from .extensions import Ext, Probe, Verdict, _judge, _probes, as_bundle_expr
from .scroll import DivisorClass, Scroll


def _probe_plan(s: Scroll) -> tuple[tuple[str, DivisorClass, int], ...]:
    return (
        ("h2(E(-H+(c-2)f))", DivisorClass(-1, s.c - 2), 2),
        ("h1(E(-H+(c-1)f))", DivisorClass(-1, s.c - 1), 1),
        ("h1(E(-f))", DivisorClass(0, -1), 1),
    )


@dataclass(frozen=True)
class RegularityReport:
    """Verdict plus the three probe evaluations that produced it."""

    verdict: Verdict
    witnesses: tuple[Probe, ...]

    def failing(self) -> tuple[Probe, ...]:
        return tuple(p for p in self.witnesses if p.lo > 0)


def is_pp_regular(s: Scroll, b, p: int = 0, pp: int = 0) -> RegularityReport:
    """Run the three-probe regularity test on b(pH + p'f).

    All three probes are evaluated and reported; the verdict is the
    extensions module's vanishing rule over them.  Sum inputs always
    resolve one way or the other.
    """
    b = as_bundle_expr(b)
    base = DivisorClass(p, pp)
    probes = _probes(s, b, ((name, base + shift, degree) for name, shift, degree in _probe_plan(s)))
    return RegularityReport(_judge(probes).verdict, probes)


def is_regular(s: Scroll, b) -> RegularityReport:
    """Regularity at the origin, p = p' = 0."""
    return is_pp_regular(s, b, 0, 0)


def regular_region(s: Scroll, d: DivisorClass) -> bool:
    """Closed form: O(aH+bf) is regular iff a >= 0 and b >= -a*a0."""
    return d.h >= 0 and d.f >= -d.h * s.a0


def gg_region(s: Scroll, d: DivisorClass) -> bool:
    """Global generation region: a >= 0 and a*a0 + b >= 0.

    Equivalently every degree in the direct image on P^1 is >= 0.
    """
    return d.h >= 0 and d.h * s.a0 + d.f >= 0


def line_bundle_reg(s: Scroll, d: DivisorClass) -> int:
    """Reg of a single line bundle in closed form."""
    # ceil(-b/a0) written with floor division
    return max(-d.h, -(d.f // s.a0) - d.h)


def reg(s: Scroll, b) -> int | Verdict:
    """Least p with is_pp_regular(s, b, p, 0) TRUE, or INDETERMINATE.

    Each probe's hi is a sum over the leaves, so the test is first TRUE
    at r = max line_bundle_reg over the leaves (module docstring), and
    r - 1 decides the answer: a FALSE there names r, since regularity
    is monotone in p for every member of the class, while an
    INDETERMINATE leaves the least p unknown.  Sums are exact, so only
    Ext inputs are probed at r - 1.
    """
    b = as_bundle_expr(b)
    classes = [d for node in b.sums() for d, _ in node.terms]
    if not classes:
        raise EmptyBundle("Reg of the zero bundle is not defined")
    r = max(line_bundle_reg(s, d) for d in classes)
    if is_pp_regular(s, b, r, 0).verdict is not Verdict.TRUE:
        raise AssertionError("the direct sum's regularity failed to certify the class")
    if isinstance(b, Ext) and is_pp_regular(s, b, r - 1, 0).verdict is Verdict.INDETERMINATE:
        return Verdict.INDETERMINATE
    return r
