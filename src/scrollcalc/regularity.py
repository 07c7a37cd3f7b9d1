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
certifies that no member of the class is regular at r - 1.  `reg`
checks the certificate at r on the tree's distinct classes, with no
walk, through the kernel's leaf reader, and for an Ext reads the
probes at r - 1 in one walk, through the expression's one evaluator,
which every decision on it shares.
"""

from __future__ import annotations

from .cohomology import line_bundle_reg
from .extensions import Ext, ProbeVerdict, Verdict, _evaluator, _judge, _nonzero, as_bundle_expr
from .scroll import DivisorClass, Scroll


def _probe_plan(s: Scroll, p: int, pp: int) -> tuple[tuple[str, DivisorClass, int], ...]:
    """The three probes of the test on b(pH + p'f), in order."""
    c = s.c
    return (
        ("h2(E(-H+(c-2)f))", DivisorClass(p - 1, pp + c - 2), 2),
        ("h1(E(-H+(c-1)f))", DivisorClass(p - 1, pp + c - 1), 1),
        ("h1(E(-f))", DivisorClass(p, pp - 1), 1),
    )


def is_pp_regular(s: Scroll, b, p: int = 0, pp: int = 0) -> ProbeVerdict:
    """Run the three-probe regularity test on b(pH + p'f).

    The verdict is the extensions module's vanishing rule over the
    probes, and the witness its first probe with lo > 0; all three
    probes are evaluated and carried, in plan order.  Sum inputs always
    resolve one way or the other.
    """
    probes = _evaluator(s, as_bundle_expr(b)).read(_probe_plan(s, p, pp))
    verdict, witness, _ = _judge(probes)
    return tuple.__new__(ProbeVerdict, (verdict, witness, probes))


def is_regular(s: Scroll, b) -> ProbeVerdict:
    """Regularity at the origin, p = p' = 0."""
    return is_pp_regular(s, b, 0, 0)


def reg(s: Scroll, b) -> int | Verdict:
    """Least p with is_pp_regular(s, b, p, 0) TRUE, or INDETERMINATE.

    Each probe's hi is a sum over the leaves, so the test is first TRUE
    at r = max line_bundle_reg over the leaves (module docstring).  That
    is checked on the direct sum of the tree's distinct classes at the
    three twists of r, in one call of the cohomology module's leaf
    reader, with no walk.
    Then r - 1 decides the answer: a FALSE there names r, since
    regularity is monotone in p for every member of the class, while an
    INDETERMINATE leaves the least p unknown.  Sums are exact, so only
    an Ext is walked, and only at r - 1: three twists in one walk,
    through the evaluator every decision on b shares.
    """
    b = _nonzero(b, "Reg of the zero bundle is not defined")
    evaluator = _evaluator(s, b)
    r = max(line_bundle_reg(s, d) for d in evaluator.classes)
    plan = _probe_plan(s, r, 0)
    if any(v[degree] for v, (_, _, degree) in zip(evaluator.classes_values([tw for _, tw, _ in plan]), plan)):
        raise AssertionError("the direct sum's regularity failed to certify the class")
    if isinstance(b, Ext) and _judge(evaluator.read(_probe_plan(s, r - 1, 0))).verdict is Verdict.INDETERMINATE:
        return Verdict.INDETERMINATE
    return r
