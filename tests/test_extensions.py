"""Interval semantics for extensions.

Soundness target: whatever the extension class is, the true cohomology
of the middle term lies inside the reported interval.  The split middle
term (direct sum of the two sides) is one realizable choice, so its
exact values must always land inside; chi must match exactly.
"""

import pytest
from hypothesis import given, seed, settings, strategies as st

from scrollcalc import (
    DivisorClass,
    Ext,
    IntervalCohom,
    Scroll,
    Sum,
    Verdict,
    ZERO,
    as_bundle_expr,
    bundle_sum,
    ext1_dim,
    extension_cohomology,
    extension_cohomology_batch,
    forced_split,
    is_acm,
    is_pp_regular,
    is_ulrich,
    line_bundle,
    line_cohomology,
    reg,
    sum_cohomology,
)

from scrollcalc import extensions, regularity, splitting

from conftest import TEST_SCROLLS

scrolls = st.sampled_from(TEST_SCROLLS)
divisors = st.builds(
    DivisorClass, st.integers(min_value=-4, max_value=4), st.integers(min_value=-6, max_value=6)
)
sums = st.lists(divisors, min_size=1, max_size=3).map(lambda ds: bundle_sum(*ds))


def exprs(depth=2):
    if depth == 0:
        return sums
    inner = exprs(depth - 1)
    return st.one_of(sums, st.builds(Ext, inner, inner))


@given(scrolls, exprs(), divisors)
def test_chi_is_exact_and_additive(s, b, t):
    iv = extension_cohomology(s, b, t)
    flat = sum_cohomology(s, bundle_sum(*b.leaves()), t)
    assert iv.chi == flat.chi


@given(scrolls, exprs(), divisors)
def test_interval_contains_split_value(s, b, t):
    iv = extension_cohomology(s, b, t)
    flat = sum_cohomology(s, bundle_sum(*b.leaves()), t)
    for i in range(3):
        assert iv.lo(i) <= flat[i] <= iv.hi(i)


@given(scrolls, sums, divisors)
def test_sums_are_exact(s, b, t):
    iv = extension_cohomology(s, b, t)
    assert iv.forced
    assert iv.as_record_tuple() == sum_cohomology(s, b, t).as_tuple()


def test_frozen_ext1_values():
    s = Scroll(1, 2)
    assert ext1_dim(s, DivisorClass(0, 2), DivisorClass(1, -1)) == 1
    assert ext1_dim(s, DivisorClass(0, 2), DivisorClass(1, 0)) == 0
    # c - 2 pattern for the Ulrich pair
    for s in TEST_SCROLLS:
        assert ext1_dim(s, DivisorClass(0, s.c - 1), DivisorClass(1, -1)) == s.c - 2


def test_forced_extension_collapses():
    # both h^1 flanks vanish, so every middle term has the split values
    s = Scroll(1, 2)
    e = Ext(line_bundle(1, -1), line_bundle(0, 2))
    iv = extension_cohomology(s, e)
    assert iv.forced
    assert iv.as_record_tuple() == (6, 0, 0)


def test_pulled_back_euler_sequence_is_forced():
    # O(-f) -> O^2 -> O(f): h^1 of the sub vanishes, so the connecting
    # map is zero for every class and the interval collapses
    s = Scroll(1, 2)
    iv = extension_cohomology(s, Ext(line_bundle(0, -1), line_bundle(0, 1)))
    assert iv.forced
    assert iv.as_record_tuple() == (2, 0, 0)


def test_unforced_extension_keeps_width():
    # O(-2H+3f) -> E -> O with ext1 = h^1(O(-2,3)) = 1: the split class
    # has (h0, h1) = (1, 1), the nonsplit one (0, 0), so both degrees
    # must stay wide
    s = Scroll(1, 2)
    e = Ext(line_bundle(-2, 3), line_bundle(0, 0))
    assert ext1_dim(s, DivisorClass(0, 0), DivisorClass(-2, 3)) == 1
    iv = extension_cohomology(s, e)
    assert (iv.lo(0), iv.hi(0)) == (0, 1)
    assert (iv.lo(1), iv.hi(1)) == (0, 1)
    assert iv.forced_at(2) and iv.lo(2) == 0
    assert iv.chi == 0


def test_interval_validation():
    with pytest.raises(ValueError):
        IntervalCohom(lo0=2, hi0=1, lo1=0, hi1=0, lo2=0, hi2=0, chi=0)
    with pytest.raises(ValueError):
        IntervalCohom(lo0=-1, hi0=1, lo1=0, hi1=0, lo2=0, hi2=0, chi=0)
    iv = IntervalCohom.exact(3, 1, 0)
    assert iv.forced and iv.chi == 2
    assert iv.lo(-1) == iv.hi(-1) == 0
    assert iv.lo(3) == iv.hi(3) == 0


def test_as_bundle_expr_coercions():
    d = DivisorClass(1, 0)
    assert isinstance(as_bundle_expr(d), Sum)
    assert as_bundle_expr(d).rank() == 1
    two = bundle_sum(d, d)
    assert as_bundle_expr(two) is two and two.rank() == 2
    e = Ext(line_bundle(0, 0), line_bundle(1, 0))
    assert as_bundle_expr(e) is e
    with pytest.raises(TypeError):
        as_bundle_expr("O(1,0)")


def test_forced_split_examples():
    s = Scroll(1, 2)
    assert forced_split(s, Ext(line_bundle(1, -1), line_bundle(0, 2))) is False
    assert forced_split(s, Ext(line_bundle(0, 0), line_bundle(1, 0)))
    assert forced_split(s, bundle_sum(DivisorClass(0, 0), DivisorClass(2, 0)))
    # nested: all pairwise ext1 between h-twists of O vanish
    e = Ext(bundle_sum(DivisorClass(0, 0)), Ext(line_bundle(1, 0), line_bundle(2, 0)))
    assert forced_split(s, e)


def reference_forced_split(s, b):
    """The recursive definition: at every Ext node, Ext^1 from each
    quotient leaf to each sub leaf vanishes."""
    if isinstance(b, Sum):
        return True
    if not (reference_forced_split(s, b.sub) and reference_forced_split(s, b.quot)):
        return False
    return all(ext1_dim(s, q, t) == 0 for q in b.quot.leaves() for t in b.sub.leaves())


@seed(20260303)
@settings(max_examples=300, deadline=None)
@given(scrolls, exprs(5))
def test_forced_split_matches_recursive_reference(s, b):
    assert forced_split(s, b) == reference_forced_split(s, b)


def test_forced_split_on_deep_chain():
    # built directly, 10,000 Ext levels; Ext^1 between h-twists of O
    # vanishes on S(1,2), so the chain is forced split, and one more
    # quotient O(2f) is not: Ext^1(O(2f), O) = h^1(O(-2f)) = 1
    s = Scroll(1, 2)
    b = line_bundle(0, 0)
    for k in range(1, 10_001):
        b = Ext(b, line_bundle(k % 3, 0))
    assert forced_split(s, b)
    assert ext1_dim(s, DivisorClass(0, 2), DivisorClass(0, 0)) == 1
    assert not forced_split(s, Ext(b, line_bundle(0, 2)))


@given(scrolls, sums, sums)
def test_ext_rank_and_leaves(s, sub, quot):
    e = Ext(sub, quot)
    assert e.rank() == sub.rank() + quot.rank()
    assert sorted(e.leaves()) == sorted(sub.leaves() + quot.leaves())


def reference_cohomology(s, b, t):
    """The module-docstring bounds, evaluated recursively from the leaves'
    line cohomology: ([lo_0, lo_1, lo_2], [hi_0, hi_1, hi_2], chi)."""
    if isinstance(b, Sum):
        h = [sum(line_cohomology(s, d + t)[i] for d in b.leaves()) for i in range(3)]
        return h, h, h[0] - h[1] + h[2]
    slo, shi, schi = reference_cohomology(s, b.sub, t)
    qlo, qhi, qchi = reference_cohomology(s, b.quot, t)

    def at(v, i):
        return v[i] if 0 <= i <= 2 else 0

    lo = [max(at(slo, i) - at(qhi, i - 1), 0) + max(at(qlo, i) - at(shi, i + 1), 0) for i in range(3)]
    hi = [shi[i] + qhi[i] for i in range(3)]
    return lo, hi, schi + qchi


@seed(20260301)
@settings(max_examples=200, deadline=None)
@given(scrolls, exprs(5), divisors)
def test_kernel_matches_recursive_reference(s, b, t):
    iv = extension_cohomology(s, b, t)
    assert ([iv.lo(i) for i in range(3)], [iv.hi(i) for i in range(3)], iv.chi) == reference_cohomology(s, b, t)


def as_reference(iv):
    return [iv.lo(i) for i in range(3)], [iv.hi(i) for i in range(3)], iv.chi


@seed(20260304)
@settings(max_examples=200, deadline=None)
@given(scrolls, exprs(5), st.lists(divisors, max_size=8))
def test_batch_matches_recursive_reference(s, b, twists):
    # one walk at up to eight twists, repeats included, agrees twist by
    # twist with the recursive definition
    got = extension_cohomology_batch(s, b, twists)
    assert [as_reference(iv) for iv in got] == [reference_cohomology(s, b, t) for t in twists]


def test_batch_of_no_twists_is_empty():
    b = Ext(line_bundle(0, 0), line_bundle(1, 0))
    assert extension_cohomology_batch(Scroll(1, 2), b, ()) == []


def test_batch_checks_every_node_at_every_twist(monkeypatch):
    # leaf values that break 0 <= lo at the third of five twists only:
    # the Ext node above them fails _check_interval there, with its
    # message, while the same batch without that twist passes
    s = Scroll(1, 2)
    b = Ext(line_bundle(0, 0), Ext(line_bundle(1, 0), line_bundle(0, 1)))
    twists = [DivisorClass(0, k) for k in range(5)]
    real = extensions.sum_cohomology_batch

    def corrupt(s, node, ts):
        return [(-5, 0, 0) if t == twists[2] else h for t, h in zip(ts, real(s, node, ts))]

    monkeypatch.setattr(extensions, "sum_cohomology_batch", corrupt)
    with pytest.raises(ValueError, match=r"^degree 0: need 0 <= lo <= hi$"):
        extension_cohomology_batch(s, b, twists)
    rest = twists[:2] + twists[3:]
    assert [as_reference(iv) for iv in extension_cohomology_batch(s, b, rest)] == [
        reference_cohomology(s, b, t) for t in rest
    ]


def test_probe_plans_take_one_walk(walks):
    # regularity reads three probes at three twists, Ulrich six at two,
    # and reg on an Ext tests two values of p
    s = Scroll(1, 2)
    b = Ext(line_bundle(-2, 3), Ext(line_bundle(1, -1), line_bundle(0, 2)))
    is_pp_regular(s, b, 1, 0)
    is_ulrich(s, b)
    reg(s, b)
    assert walks == [3, 2, 3, 3]


def test_probe_plans_match_single_twists():
    s = Scroll(1, 2)
    b = Ext(line_bundle(-2, 3), Ext(line_bundle(1, -1), line_bundle(0, 2)))
    plans = (
        (is_pp_regular(s, b, 1, 0).witnesses, regularity._probe_plan(s), DivisorClass(1, 0)),
        (is_ulrich(s, b).probes, splitting._ulrich_probe_plan(), ZERO),
    )
    for probes, plan, base in plans:
        assert len(probes) == len(plan)
        for probe, (name, shift, degree) in zip(probes, plan):
            iv = extension_cohomology(s, b, base + shift)
            assert (probe.name, probe.twist) == (name, base + shift)
            assert (probe.lo, probe.hi) == (iv.lo(degree), iv.hi(degree))


@seed(20260302)
@settings(max_examples=150, deadline=None)
@given(scrolls, exprs(5), divisors)
def test_deep_interval_contains_split_value(s, b, t):
    iv = extension_cohomology(s, b, t)
    flat = sum_cohomology(s, bundle_sum(*b.leaves()), t)
    assert all(iv.lo(i) <= flat[i] <= iv.hi(i) for i in range(3))
    assert iv.chi == flat.chi


def test_deep_chain_evaluates_without_recursion():
    # built directly, so no parser bound applies; 10,000 Ext levels are
    # far past the interpreter's recursion limit
    s = Scroll(1, 2)
    leaves = [DivisorClass(k % 5 - 2, k % 7 - 3) for k in range(10_001)]
    b = line_bundle(leaves[0].h, leaves[0].f)
    for d in leaves[1:]:
        b = Ext(b, line_bundle(d.h, d.f))
    t = DivisorClass(-1, 1)
    iv = extension_cohomology(s, b, t)
    flat = sum_cohomology(s, bundle_sum(*leaves), t)
    assert (iv.hi0, iv.hi1, iv.hi2) == flat.as_tuple()
    assert iv.chi == flat.chi


def test_deep_chain_decides_without_recursion():
    # O(1,0), then O(0,0) and O(0,-2) alternating, 10,001 leaves in all.
    # On S(1,2) the top quotient O(0,-2) forces h^1(E) >= 1 (its h^1 is 1
    # and no sub leaf has h^2), so E is not ACM at t = 0; Reg of the sum
    # is 2, and at p = 1 the same leaf forces h^1(E(H-f)) >= 1.
    s = Scroll(1, 2)
    leaves = [DivisorClass(1, 0)] + [DivisorClass(0, -2 if k % 2 == 0 else 0) for k in range(1, 10_001)]
    b = line_bundle(1, 0)
    for d in leaves[1:]:
        b = Ext(b, line_bundle(d.h, d.f))
    assert b.rank() == 10_001
    assert b.leaves() == tuple(leaves)
    assert reg(s, b) == 2
    v = is_acm(s, b)
    assert (v.verdict, v.witness.twist.h, v.witness.lo) == (Verdict.FALSE, 0, 1)


def test_verdict_values():
    assert Verdict.TRUE.value == "true"
    assert Verdict.FALSE.value == "false"
    assert Verdict.INDETERMINATE.value == "indeterminate"
