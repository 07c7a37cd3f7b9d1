"""Splitting criteria, ACM and Ulrich tests, and Ulrich construction.

Two cohomological splitting criteria are decided exactly:

* h-twist criterion: E is a direct sum of O(t_i H) iff
  h^1(E(tH + (c-1)f)) = h^1(E(tH - f)) = 0 for every integer t;

* three-type criterion: E is a direct sum of twists t_i H of the three
  bundles O, O(f), O(H - f) iff for every integer t
  h^1(E(tH)) = h^1(E(tH + (a0-1)f)) = h^1(E(tH + (a1-1)f))
             = h^1(E(tH + (c-2)f)) = 0.

Although each condition quantifies over all twists, the h^1 nonvanishing
region of a line bundle meets any ray of h-twists in at most two finite
intervals, so only finitely many t ever need checking; outside the union
of the leaf intervals every upper bound is already zero.

The remaining operations: ACM means h^1(E(tH)) = 0 for every t; Ulrich
means all six of h^i(E(-H)) = h^i(E(-2H)) = 0; `make_ulrich` assembles
Ulrich bundles of any splitting-rank pair (a, b) as extension classes of
O((c-1)f)^b by O(H-f)^a; `detect_line_summand` reads a distinguished
direct summand off the way E(-H) fails regularity.

Each decision reads its probes with the extensions module's one
vanishing rule and returns its one record, `ProbeVerdict`.  Every
witness is a `Probe`: the probe's name, its twist (t is `twist.h` for
the twist families) and `lo`, a lower bound on the failing h^i (or the
firing cause's h^i), exact for Sum inputs.  What a decision finds sits
in `value`: a split's summands, as one Sum, or the summand's class.
"""

from __future__ import annotations

from collections.abc import Iterator

from .cohomology import h1_violating_h_twists
from .errors import EmptyBundle, NegativeCount, NotRegular
from .extensions import (
    BundleExpr,
    Ext,
    Probe,
    ProbeVerdict,
    Sum,
    Verdict,
    _evaluator,
    _judge,
    _nonzero,
    forced_split,
)
from .regularity import is_regular
from .scroll import DivisorClass, Scroll


def th_families(s: Scroll) -> tuple[tuple[str, int], ...]:
    """The two f-offsets probed by the h-twist criterion."""
    return (
        ("h1(E(tH+(c-1)f))", s.c - 1),
        ("h1(E(tH-f))", -1),
    )


def acm3_families(s: Scroll) -> tuple[tuple[str, int], ...]:
    """The four f-offsets probed by the three-type criterion."""
    return (
        ("h1(E(tH))", 0),
        ("h1(E(tH+(a0-1)f))", s.a0 - 1),
        ("h1(E(tH+(a1-1)f))", s.a1 - 1),
        ("h1(E(tH+(c-2)f))", s.c - 2),
    )


def violating_twists(s: Scroll, b: BundleExpr, offset: int) -> tuple[tuple[int, int], ...]:
    """Closed intervals of t where some leaf of b has h^1(leaf(tH + offset*f)) != 0.

    The intervals are sorted, disjoint and not adjacent: overlapping or
    touching leaf intervals are merged.  For a Sum their union is exactly
    the violating set (h^1 is additive, no cancellation); for an Ext it
    is the support of the upper bound, so nothing outside it can ever be
    nonzero.  The leaves are read as the distinct classes of b's
    evaluator, so b is not walked again.
    """
    leaf_intervals: list[tuple[int, int]] = []
    for h, f in _evaluator(s, b).classes:
        leaf_intervals += h1_violating_h_twists(s, (h, f + offset))
    leaf_intervals.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in leaf_intervals:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def _scan(s: Scroll, b: BundleExpr, families: tuple[tuple[str, int], ...]) -> ProbeVerdict:
    """The vanishing rule over the h^1 probe of every violating twist of
    `families`, family-major, t ascending: the scan of `_decide` and
    `is_acm`.

    The evaluator reads this plan in batches of 1, 2, 4, ... entries up
    to BATCH_BOUND, so a judge that stops at a failure has only that
    failure's batch evaluated.  The violating intervals come from the
    evaluator's distinct classes, and a family that repeats an earlier
    f-offset, in this scan or an earlier one on b, reads them and the
    values of its twists from the evaluator.
    """
    evaluator = _evaluator(s, b)
    violations = evaluator.violations

    def plan() -> Iterator[tuple[str, DivisorClass, int]]:
        for name, offset in families:
            if offset not in violations:
                violations[offset] = violating_twists(s, b, offset)
            for lo, hi in violations[offset]:
                for t in range(lo, hi + 1):
                    yield name, tuple.__new__(DivisorClass, (t, offset)), 1

    return _judge(evaluator.probes(plan()))


_CLASS_NOTE = "every member splits, but the summand multiset depends on the extension class"


def _decide(s: Scroll, b, families) -> ProbeVerdict:
    b = _nonzero(b, "splitting criteria need a bundle of positive rank")
    judged = _scan(s, b, families)
    if judged.verdict is not Verdict.TRUE:
        return judged
    # conditions hold for every member of the class; the summand multiset
    # is the leaf multiset exactly when no extension class can be nonzero
    if forced_split(s, b):
        summands = Sum(tuple(t for node in b.sums() for t in node.terms))
        return tuple.__new__(ProbeVerdict, (Verdict.TRUE, None, (), summands, ""))
    return tuple.__new__(ProbeVerdict, (Verdict.INDETERMINATE, None, (), None, _CLASS_NOTE))


def decide_split_tH(s: Scroll, b) -> ProbeVerdict:
    """Decide whether b is a direct sum of h-twists O(t_i H)."""
    return _decide(s, b, th_families(s))


def decide_split_acm3(s: Scroll, b) -> ProbeVerdict:
    """Decide whether b is a sum of h-twists of O, O(f) and O(H-f)."""
    return _decide(s, b, acm3_families(s))


def is_acm(s: Scroll, b) -> ProbeVerdict:
    """Whether h^1(b(tH)) vanishes for every integer t."""
    return _scan(s, _nonzero(b, "the ACM test needs a bundle of positive rank"), (("h1(E(tH))", 0),))


# is_ulrich's six (name, twist, degree) probes
_ULRICH_PLAN = tuple(
    (f"h{i}(E({label}))", DivisorClass(k, 0), i) for k, label in ((-1, "-H"), (-2, "-2H")) for i in range(3)
)


def is_ulrich(s: Scroll, b) -> ProbeVerdict:
    """Whether all of h^i(b(-H)) and h^i(b(-2H)) vanish, i = 0, 1, 2.

    All six probes are evaluated, from one walk of the tree at the two
    twists; a TRUE or FALSE verdict carries all six, an INDETERMINATE
    one only the unresolved.
    """
    b = _nonzero(b, "the Ulrich test needs a bundle of positive rank")
    probes = _evaluator(s, b).read(_ULRICH_PLAN)
    verdict, witness, unresolved, _, _ = _judge(probes)
    carried = unresolved if verdict is Verdict.INDETERMINATE else probes
    return tuple.__new__(ProbeVerdict, (verdict, witness, carried, None, ""))


def make_ulrich(s: Scroll, a: int, b: int) -> BundleExpr:
    """An Ulrich bundle with a summands of type O(H-f) and b of O((c-1)f).

    For a, b both positive the result is the extension class
    Ext(O(H-f)^a, O((c-1)f)^b); all Ulrich and regularity probes of the
    class are forced, so every member qualifies.
    """
    if a < 0 or b < 0:
        raise NegativeCount("Ulrich building-block counts must be >= 0")
    if a == 0 and b == 0:
        raise EmptyBundle("an Ulrich bundle has positive rank; need a + b >= 1")
    sub = Sum(((DivisorClass(1, -1), a),))
    quot = Sum(((DivisorClass(0, s.c - 1), b),))
    if a == 0:
        return quot
    if b == 0:
        return sub
    return Ext(sub, quot)


def _summand_cases(s: Scroll) -> tuple[tuple[str, DivisorClass, int, DivisorClass, tuple], ...]:
    # each case: cause probe, its degree, the summand it certifies, and
    # the auxiliary vanishings needed for the certification to go through
    return (
        (
            "h2(E(-2H+(c-2)f))",
            DivisorClass(-2, s.c - 2),
            2,
            DivisorClass(0, 0),
            (),
        ),
        (
            "h1(E(-2H+(c-1)f))",
            DivisorClass(-2, s.c - 1),
            1,
            DivisorClass(0, 1),
            (
                ("h1(E(-H+(a0-1)f))", DivisorClass(-1, s.a0 - 1), 1),
                ("h1(E(-H+(a1-1)f))", DivisorClass(-1, s.a1 - 1), 1),
                ("h1(E(-2H+(c-2)f))", DivisorClass(-2, s.c - 2), 1),
            ),
        ),
        (
            "h1(E(-H-f))",
            DivisorClass(-1, -1),
            1,
            DivisorClass(1, -1),
            (
                ("h1(E(-H))", DivisorClass(-1, 0), 1),
                ("h1(E(-2H+(a1-1)f))", DivisorClass(-2, s.a1 - 1), 1),
                ("h1(E(-2H+(a0-1)f))", DivisorClass(-2, s.a0 - 1), 1),
            ),
        ),
    )


def detect_line_summand(s: Scroll, b) -> ProbeVerdict:
    """Find a distinguished line summand of a regular bundle.

    The probes are the three ways b(-H) can fail the regularity test;
    each failing cause, together with its auxiliary vanishings, certifies
    a summand: the first cause gives O, the second O(f), the third
    O(H-f).  Cases are checked in that order and the first conclusive
    one wins.  TRUE carries the summand as `value`, the cause as
    `witness` and the auxiliaries as `probes`; INDETERMINATE carries the
    causes and auxiliaries that could not be resolved.  A FALSE verdict
    means no cause fires, i.e. b(-H) is still regular.  Raises
    NotRegular unless the input is certified regular, and EmptyBundle on
    a bundle of rank 0.
    """
    b = _nonzero(b, "summand detection needs a bundle of positive rank")
    report = is_regular(s, b)
    if report.verdict is not Verdict.TRUE:
        state = "fails" if report.verdict is Verdict.FALSE else "cannot be certified"
        raise NotRegular(f"summand detection needs a regular input; regularity {state}")
    evaluator = _evaluator(s, b)
    inconclusive: list[Probe] = []
    for name, tw, degree, summand, auxiliaries in _summand_cases(s):
        (cause,) = evaluator.read(((name, tw, degree),))
        if cause.hi == 0:
            continue  # this cause is definitely absent
        if cause.lo == 0:
            inconclusive.append(cause)
            continue  # cannot tell whether the cause fires
        aux_probes = evaluator.read(auxiliaries)
        if all(pr.hi == 0 for pr in aux_probes):
            return tuple.__new__(ProbeVerdict, (Verdict.TRUE, cause, aux_probes, summand, ""))
        inconclusive.append(cause)
        inconclusive.extend(pr for pr in aux_probes if pr.hi > 0)
    verdict = Verdict.INDETERMINATE if inconclusive else Verdict.FALSE
    return tuple.__new__(ProbeVerdict, (verdict, None, tuple(inconclusive), None, ""))
