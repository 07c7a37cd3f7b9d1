"""Cross-checks for the line-bundle cohomology engine.

The Riemann-Roch count chi(D) = 1 + D.(D-K)/2 never touches the
direct-image reduction, so agreement of the two on a grid is a real
consistency check rather than a tautology.  Serre duality plays the
same role for the index-swapped branch.
"""

import pytest
from hypothesis import given, seed, settings, strategies as st

import reference_p1
from scrollcalc import (
    DivisorClass,
    Ext,
    Scroll,
    Sum,
    UnsupportedCurveClass,
    bundle_sum,
    euler_rr,
    extension_cohomology,
    h1_violating_h_twists,
    intersect,
    line_bundle,
    line_cohomology,
    reg,
    restricted_cohomology,
    serre_dual,
    sum_cohomology,
)

from scrollcalc import cohomology
from scrollcalc.cohomology import p1_line_cohomology
from scrollcalc.extensions import extension_cohomology_stream
from scrollcalc.p1 import P1Sum, p1_cohomology

from conftest import TEST_SCROLLS

divisors = st.builds(
    DivisorClass, st.integers(min_value=-9, max_value=9), st.integers(min_value=-13, max_value=13)
)
scrolls = st.sampled_from(TEST_SCROLLS)


def grid(h_bound=8, f_bound=12):
    for h in range(-h_bound, h_bound + 1):
        for f in range(-f_bound, f_bound + 1):
            yield DivisorClass(h, f)


def test_frozen_values_s12():
    s = Scroll(1, 2)
    assert line_cohomology(s, DivisorClass(1, 0)).as_tuple() == (5, 0, 0)
    assert line_cohomology(s, DivisorClass(-2, 3)).as_tuple() == (0, 1, 0)
    assert line_cohomology(s, DivisorClass(-2, 1)).as_tuple() == (0, 0, 1)
    assert line_cohomology(s, DivisorClass(0, 0)).as_tuple() == (1, 0, 0)
    assert line_cohomology(s, s.K).as_tuple() == (0, 0, 1)


def test_sum_cohomology_is_additive_example():
    s = Scroll(1, 2)
    b = bundle_sum(DivisorClass(1, 0), DivisorClass(-2, 3))
    assert sum_cohomology(s, b).as_tuple() == (5, 1, 0)


def test_h_minus_one_column_vanishes(scroll):
    for f in range(-13, 14):
        assert line_cohomology(scroll, DivisorClass(-1, f)).as_tuple() == (0, 0, 0)


def test_riemann_roch_agrees_with_reduction(scroll):
    for d in grid():
        assert line_cohomology(scroll, d).chi == euler_rr(scroll, d)


def test_serre_duality(scroll):
    for d in grid():
        rec = line_cohomology(scroll, d)
        dual = line_cohomology(scroll, serre_dual(d, scroll))
        assert rec.as_tuple() == tuple(reversed(dual.as_tuple()))


def test_four_term_resolution_chi_identity(scroll):
    # alternating Euler characteristics of the standard resolution of a
    # twist F: chi is quadratic in the class, so a grid check proves the
    # polynomial identity.
    s = scroll
    step1 = DivisorClass(-1, s.c - 2)
    step2 = DivisorClass(-1, s.c - 1)
    for d in grid(4, 6):
        total = (
            euler_rr(s, d + step1)
            - 2 * euler_rr(s, d + step2)
            + euler_rr(s, d + DivisorClass(0, s.a0))
            + euler_rr(s, d + DivisorClass(0, s.a1))
            - euler_rr(s, d + DivisorClass(1, 0))
        )
        assert total == 0


@given(scrolls, divisors)
def test_violating_intervals_match_brute_scan(s, d):
    intervals = h1_violating_h_twists(s, d)
    # intervals are disjoint, ordered, and nonempty
    for lo, hi in intervals:
        assert lo <= hi
    flat = sorted(t for lo, hi in intervals for t in range(lo, hi + 1))
    brute = [
        t
        for t in range(-60, 61)
        if line_cohomology(s, d + DivisorClass(t, 0)).h1 > 0
    ]
    assert flat == brute


def test_restricted_cohomology_curves():
    s = Scroll(1, 2)
    b = bundle_sum(DivisorClass(2, -1))
    # fibre restriction: degree 2 on P^1
    assert restricted_cohomology(s, b, DivisorClass(0, 1)) == (3, 0)
    # hyperplane restriction: degree 2c - 1 = 5
    assert restricted_cohomology(s, b, DivisorClass(1, 0)) == (6, 0)
    # narrow section restriction: degree 2a0 - 1 = 1
    assert restricted_cohomology(s, b, s.narrow_section()) == (2, 0)
    with pytest.raises(UnsupportedCurveClass):
        restricted_cohomology(s, b, DivisorClass(1, 1))


any_scrolls = st.integers(1, 40).flatmap(lambda a0: st.integers(a0, 60).map(lambda a1: Scroll(a0, a1)))
wide_divisors = st.builds(DivisorClass, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))


@given(any_scrolls, wide_divisors)
def test_euler_rr_is_the_intersection_form(s, d):
    # the plain-integer D.(D-K) is the pairing of the lattice classes
    assert euler_rr(s, d) == 1 + intersect(d, d - s.K, s) // 2


def test_chi_never_raises_parity_guard(scroll):
    # D.(D-K) is even for every integral class, so the parity guard in
    # euler_rr stays silent on the whole grid
    for d in grid():
        euler_rr(scroll, d)


@given(scrolls, divisors, divisors)
def test_sum_cohomology_additive(s, d1, d2):
    b = bundle_sum(d1, d2)
    rec = sum_cohomology(s, b)
    r1 = line_cohomology(s, d1)
    r2 = line_cohomology(s, d2)
    assert rec.as_tuple() == (r1.h0 + r2.h0, r1.h1 + r2.h1, r1.h2 + r2.h2)


def test_h0_of_effective_multiples(scroll):
    # h^0(O(mH)) grows like the polynomial chi for m >= 0
    for m in range(0, 6):
        rec = line_cohomology(scroll, DivisorClass(m, 0))
        assert rec.h1 == 0 and rec.h2 == 0
        assert rec.h0 == euler_rr(scroll, DivisorClass(m, 0))


@given(st.integers(-10**9, 10**9))
def test_p1_line_cohomology_matches_the_p1sum_route(d):
    assert p1_line_cohomology(d) == p1_cohomology(P1Sum((d,)))


@given(scrolls, st.lists(st.tuples(divisors, st.integers(1, 5)), min_size=0, max_size=4), st.integers(0, 2), divisors)
def test_restricted_cohomology_matches_the_p1sum_route(s, counted, k, twist):
    # the one-line P^1 formula against a one-degree P1Sum per class
    b = bundle_sum(*(d for d, n in counted for _ in range(n)))
    curve = (DivisorClass(0, 1), DivisorClass(1, 0), s.narrow_section())[k]
    want = [0, 0]
    for d, n in b.terms:
        for i, v in enumerate(p1_cohomology(P1Sum((intersect(d + twist, curve, s),)))):
            want[i] += n * v
    assert restricted_cohomology(s, b, curve, twist) == tuple(want)


def reference_line(s, h, f):
    """(h^0, h^1, h^2) of O(hH + fF) off the generator-and-sort P^1
    route of reference_p1, by the three branches of the module."""
    if h == -1:
        return (0, 0, 0)
    if h >= 0:
        p0, p1 = reference_p1.p1_cohomology(reference_p1.sym_decompose(s, h, f))
        return (p0, p1, 0)
    p0, p1 = reference_p1.p1_cohomology(reference_p1.sym_decompose(s, -h - 2, s.c - f - 2))
    return (0, p1, p0)


counted_sums = st.lists(st.tuples(divisors, st.integers(1, 10**6)), max_size=4).map(
    lambda counted: Sum(tuple(counted)).terms
)


@seed(20261024)
@settings(max_examples=300, deadline=None)
@given(scrolls, st.lists(counted_sums, max_size=4), st.lists(divisors, max_size=5))
def test_sum_values_match_the_per_class_reference(s, sums, twists):
    # h and the twist's h each range over -9..9, so the twisted h' takes
    # both sides of the duality branch and -1 alike
    want = []
    for th, tf in twists:
        for terms in sums:
            value = [0, 0, 0]
            for (h, f), n in terms:
                for i, v in enumerate(reference_line(s, h + th, f + tf)):
                    value[i] += n * v
            want.append(tuple(value))
    assert cohomology._sum_values(s.a0, s.a1, sums, twists) == want


def test_leaves_are_read_only_through_the_reader(monkeypatch):
    # a fake reader records each call, and a fake line lookup fails
    # outside it: a walk calls the reader once, with its unforced twists
    # only, reg once for its certificate and once in its walk, and
    # sum_cohomology once, with its one twist
    calls = []
    inside = []
    real_reader, real_line = cohomology._sum_values, cohomology._line_cohomology

    def reader(a0, a1, sums, twists):
        twists = list(twists)
        calls.append((len(sums), twists))
        inside.append(True)
        try:
            return real_reader(a0, a1, sums, twists)
        finally:
            inside.pop()

    def line(a0, a1, h, f):
        assert inside, "a leaf was looked up outside the reader"
        return real_line(a0, a1, h, f)

    monkeypatch.setattr(cohomology, "_sum_values", reader)
    monkeypatch.setattr(cohomology, "_line_cohomology", line)
    s = Scroll(1, 2)
    # O(0,-2) has h^1 = 1 at twist 0 and none at (0,2): one unforced
    # and one forced twist
    b = Ext(line_bundle(0, -2), Ext(line_bundle(1, 0), line_bundle(0, -2)))
    twists = [DivisorClass(0, 0), DivisorClass(0, 2)]
    assert len(list(extension_cohomology_stream(s, b, twists))) == 2
    assert calls == [(2, twists[:1])]
    calls.clear()
    assert len(list(extension_cohomology_stream(s, line_bundle(0, 0), twists))) == 2
    assert calls == [(1, twists)]
    calls.clear()
    assert reg(s, b) == 2
    # the certificate at r = 2, on the direct sum of the two distinct
    # classes, then the walk at r - 1, where only (1,-1) is unforced
    assert calls == [(1, [DivisorClass(1, 1), DivisorClass(1, 2), DivisorClass(2, -1)]), (2, [DivisorClass(1, -1)])]
    calls.clear()
    assert sum_cohomology(s, bundle_sum(DivisorClass(0, 0), DivisorClass(1, 0)), DivisorClass(0, 1)).h0 == 9
    assert calls == [(1, [DivisorClass(0, 1)])]


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize(
    "path",
    [
        lambda s: extension_cohomology(s, line_bundle(0, -1)),
        lambda s: extension_cohomology(s, Ext(line_bundle(0, -1), line_bundle(0, -2))),
        lambda s: reg(s, line_bundle(0, 0)),
        lambda s: reg(s, Ext(line_bundle(0, 0), line_bundle(0, 0))),
        lambda s: sum_cohomology(s, line_bundle(0, -1)),
    ],
    ids=["walk-sum", "walk-ext", "reg-sum", "reg-ext", "sum_cohomology"],
)
def test_a_negative_leaf_fails_alike_on_every_path(monkeypatch, path, degree):
    # each path looks O(0,-1) up on S(1,2): the walks at twist 0, which
    # is unforced for the Ext since O(0,-2) has h^1 = 1 there, and reg at
    # the twist (0,-1) of its probe h1(E(-f)) at r = 0
    real = cohomology._line_cohomology
    bad = tuple(-1 if i == degree else 0 for i in range(3))
    monkeypatch.setattr(
        cohomology, "_line_cohomology", lambda a0, a1, h, f: bad if (h, f) == (0, -1) else real(a0, a1, h, f)
    )
    with pytest.raises(ValueError, match=rf"^degree {degree}: need 0 <= lo <= hi$"):
        path(Scroll(1, 2))
