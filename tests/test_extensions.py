"""Interval semantics for extensions.

Soundness target: whatever the extension class is, the true cohomology
of the middle term lies inside the reported interval.  The split middle
term (direct sum of the two sides) is one realizable choice, so its
exact values must always land inside; chi must match exactly.
"""

import copy
import gc
import itertools
import json
import pickle
import random
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from scrollcalc import (
    DivisorClass,
    EmptyBundle,
    Ext,
    IntervalCohom,
    Probe,
    ProbeVerdict,
    Scroll,
    Sum,
    Verdict,
    ZERO,
    as_bundle_expr,
    bundle_sum,
    decide_split_acm3,
    decide_split_tH,
    detect_line_summand,
    ext1_dim,
    extension_cohomology,
    forced_split,
    format_bundle,
    is_acm,
    is_pp_regular,
    is_regular,
    is_ulrich,
    line_bundle,
    line_cohomology,
    parse_bundle_spec,
    reg,
    sum_cohomology,
    twist_rectangle,
)

from scrollcalc import cohomology, extensions, regularity, splitting
from scrollcalc.extensions import extension_cohomology_stream
from scrollcalc.p1 import P1Sum

from conftest import TEST_SCROLLS

GOLDEN = Path(__file__).parent / "golden"

scrolls = st.sampled_from(TEST_SCROLLS)
divisors = st.builds(
    DivisorClass, st.integers(min_value=-4, max_value=4), st.integers(min_value=-6, max_value=6)
)
sums = st.lists(divisors, min_size=1, max_size=3).map(lambda ds: bundle_sum(*ds))


def exprs(depth=2, leaf=sums):
    if depth == 0:
        return leaf
    inner = exprs(depth - 1, leaf)
    return st.one_of(leaf, st.builds(Ext, inner, inner))


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
        assert iv.lo(i) <= flat.as_tuple()[i] <= iv.hi(i)


@given(scrolls, sums, divisors)
def test_sums_are_exact(s, b, t):
    iv = extension_cohomology(s, b, t)
    assert iv.forced
    assert (iv.lo0, iv.lo1, iv.lo2) == sum_cohomology(s, b, t).as_tuple()


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
    assert (iv.lo0, iv.lo1, iv.lo2) == (6, 0, 0)


def test_pulled_back_euler_sequence_is_forced():
    # O(-f) -> O^2 -> O(f): h^1 of the sub vanishes, so the connecting
    # map is zero for every class and the interval collapses
    s = Scroll(1, 2)
    iv = extension_cohomology(s, Ext(line_bundle(0, -1), line_bundle(0, 1)))
    assert iv.forced
    assert (iv.lo0, iv.lo1, iv.lo2) == (2, 0, 0)


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
    iv = IntervalCohom(3, 3, 1, 1, 0, 0, 2)
    assert iv.forced and iv.chi == 2
    with pytest.raises(ValueError):
        iv._replace(lo0=4)
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


def pairwise_forced_split(s, b):
    """The quadratic loop: each distinct leaf of a Sum against each
    distinct leaf of the Sums before it, one ext1_dim per pair."""
    earlier = set()
    for node in b.sums():
        here = {d for d, _ in node.terms}
        if any(ext1_dim(s, q, t) for q in here for t in earlier):
            return False
        earlier |= here
    return True


wide_divisors = st.builds(
    DivisorClass, st.integers(min_value=-12, max_value=12), st.integers(min_value=-30, max_value=30)
)
wide_sums = st.lists(wide_divisors, min_size=1, max_size=4).map(lambda ds: bundle_sum(*ds))


@seed(20261019)
@settings(max_examples=400, deadline=None)
@given(scrolls, st.one_of(exprs(5), exprs(5, wide_sums)))
def test_forced_split_matches_pairwise_loop(s, b):
    assert forced_split(s, b) == pairwise_forced_split(s, b)


def test_forced_split_matches_pairwise_loop_on_400_leaves():
    # seeded chains of 400 leaves, each leaf its own Sum; the first is
    # forced split (Ext^1 between h-twists of O vanishes), the others
    # mix both branches of the h^1 closed form
    rng = random.Random(20261020)
    s = Scroll(1, 2)
    chains = [[DivisorClass(k, 0) for k in range(400)]]
    for spread in (3, 10, 40):
        chains.append([DivisorClass(rng.randint(-spread, spread), rng.randint(-3 * spread, 3 * spread)) for _ in range(400)])
    got = []
    for leaves in chains:
        b = line_bundle(leaves[0].h, leaves[0].f)
        for d in leaves[1:]:
            b = Ext(b, line_bundle(d.h, d.f))
        got.append(forced_split(s, b))
        assert got[-1] == pairwise_forced_split(s, b)
    assert got[0] is True and False in got


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


def reference_combine(sub, quot):
    """The module-docstring bounds of one Ext node from its sub's and
    quot's ((lo_0, lo_1, lo_2), (hi_0, hi_1, hi_2), chi), written out per
    degree with the out-of-range degrees dropped."""
    (slo, shi, schi), (qlo, qhi, qchi) = sub, quot
    lo = (
        slo[0] + max(qlo[0] - shi[1], 0),
        max(slo[1] - qhi[0], 0) + max(qlo[1] - shi[2], 0),
        max(slo[2] - qhi[1], 0) + qlo[2],
    )
    return lo, (shi[0] + qhi[0], shi[1] + qhi[1], shi[2] + qhi[2]), schi + qchi


def reference_cohomology(s, b, t):
    """The module-docstring bounds, evaluated recursively from the leaves'
    line cohomology: ((lo_0, lo_1, lo_2), (hi_0, hi_1, hi_2), chi)."""
    if isinstance(b, Sum):
        h = tuple(sum(line_cohomology(s, d + t).as_tuple()[i] for d in b.leaves()) for i in range(3))
        return h, h, h[0] - h[1] + h[2]
    return reference_combine(reference_cohomology(s, b.sub, t), reference_cohomology(s, b.quot, t))


def as_reference(iv):
    return (iv.lo0, iv.lo1, iv.lo2), (iv.hi0, iv.hi1, iv.hi2), iv.chi


@seed(20260301)
@settings(max_examples=200, deadline=None)
@given(scrolls, exprs(5), divisors)
def test_kernel_matches_recursive_reference(s, b, t):
    assert as_reference(extension_cohomology(s, b, t)) == reference_cohomology(s, b, t)


def test_combine_keeps_the_invariants():
    # every valid value with lo_i, hi_i in 0..2 (chi anywhere in its
    # range: 648 of them), combined as sub and as quot with every other,
    # 419,904 pairs: the walk checks only Sum values because of this
    valid = []
    for lo0, hi0, lo1, hi1, lo2, hi2 in itertools.product(range(3), repeat=6):
        if lo0 <= hi0 and lo1 <= hi1 and lo2 <= hi2:
            for chi in range(lo0 - hi1 + lo2, hi0 - lo1 + hi2 + 1):
                valid.append(((lo0, lo1, lo2), (hi0, hi1, hi2), chi))
    assert len(valid) == 648
    combined = {reference_combine(sub, quot) for sub in valid for quot in valid}
    for (lo0, lo1, lo2), (hi0, hi1, hi2), chi in combined:
        IntervalCohom(lo0, hi0, lo1, hi1, lo2, hi2, chi)


# twists in two bands: leaves looked up from the second have h^1 = 0,
# so its twists are forced
FORCED_BAND = 40
banded_twists = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-3, 3), st.booleans()).map(
        lambda x: DivisorClass(x[0] + FORCED_BAND * x[2], x[1])
    ),
    min_size=2,
    max_size=12,
)


@seed(20261021)
@settings(max_examples=200, deadline=None)
@given(scrolls, exprs(5), banded_twists, st.data())
def test_walk_keeps_the_invariants_from_any_leaf_values(s, b, twists, data):
    # any nonnegative line cohomology, drawn per class looked up, gives
    # valid values at forced and unforced twists of one batch alike.
    # Forced twists of a tree are found from its classes and read no
    # leaf, so the unforced twists are those forced_twist rejects, and
    # only their classes are drawn (a lone Sum reads every twist)
    drawn = {}

    def line(a0, a1, h, f):
        if (h, f) not in drawn:
            h0, h1, h2 = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 3)))
            drawn[h, f] = (h0, h1 if h < FORCED_BAND // 2 else 0, h2)
        return drawn[h, f]

    with mock.patch.object(cohomology, "_line_cohomology", line):
        got = [v for _, v in extension_cohomology_stream(s, b, twists)]
    unforced = [t for t in twists if not forced_twist(s, b, t)]
    assume(0 < len(unforced) < len(twists))
    read = twists if type(b) is Sum else unforced
    assert set(drawn) == {(d.h + t.h, d.f + t.f) for t in read for d in b.leaves()}
    for v in got:
        IntervalCohom(*v)


@seed(20260304)
@settings(max_examples=200, deadline=None)
@given(scrolls, exprs(5), st.lists(divisors, max_size=8))
def test_batch_matches_recursive_reference(s, b, twists):
    # one walk at up to eight twists, repeats included, agrees twist by
    # twist with the recursive definition
    got = [iv for _, iv in extension_cohomology_stream(s, b, twists)]
    assert [as_reference(iv) for iv in got] == [reference_cohomology(s, b, t) for t in twists]


def test_batch_of_no_twists_is_empty():
    b = Ext(line_bundle(0, 0), line_bundle(1, 0))
    assert list(extension_cohomology_stream(Scroll(1, 2), b, ())) == []


def test_batch_checks_every_node_at_every_twist(monkeypatch):
    # a leaf value that breaks 0 <= lo at the third of five twists only,
    # put where the kernel looks its leaves up: O(1,0) twisted by
    # O(0,-2), the one lookup of (1, -2) in the batch, at a twist that is
    # not forced (O(0,0) twisted by it has h^1 = 1).  The Sum holding it
    # fails there, where the leaf reader sums it, with _check_interval's
    # message, while the same batch without that twist passes
    s = Scroll(1, 2)
    b = Ext(line_bundle(0, 0), Ext(line_bundle(1, 0), line_bundle(0, 1)))
    twists = [DivisorClass(0, k) for k in range(-4, 1)]
    assert not forced_twist(s, b, twists[2])
    real = cohomology._line_cohomology

    def corrupt(a0, a1, h, f):
        return (-5, 0, 0) if (h, f) == (1, -2) else real(a0, a1, h, f)

    monkeypatch.setattr(cohomology, "_line_cohomology", corrupt)
    with pytest.raises(ValueError, match=r"^degree 0: need 0 <= lo <= hi$"):
        list(extension_cohomology_stream(s, b, twists))
    rest = twists[:2] + twists[3:]
    assert [as_reference(iv) for _, iv in extension_cohomology_stream(s, b, rest)] == [
        reference_cohomology(s, b, t) for t in rest
    ]


def forced_twist(s, b, t):
    """Whether every Sum of b has h^1 = 0 at t, where the kernel answers
    with the direct sum."""
    return all(sum_cohomology(s, node, t).h1 == 0 for node in b.sums())


rectangles = st.tuples(st.integers(-6, 4), st.integers(1, 16), st.integers(-8, 6), st.integers(1, 16))


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(scrolls, exprs(5), rectangles, st.sampled_from(["forced", "unforced", "mixed"]))
def test_forced_twists_take_the_direct_sum(s, b, rectangle, kind):
    # one batch of up to 256 twists from a rectangle: its forced twists
    # only, its other twists only, or all of it with both kinds present.
    # Two independent routes meet here: the kernel answers forced twists
    # from Riemann-Roch over its h-groups and reads no leaf, while the
    # recursive reference and sum_cohomology read every leaf's line
    # cohomology off the Sym route
    hlo, wh, flo, wf = rectangle
    cells = list(twist_rectangle((hlo, hlo + wh - 1), (flo, flo + wf - 1)))
    forced = [t for t in cells if forced_twist(s, b, t)]
    batch = {"forced": forced, "unforced": [t for t in cells if t not in forced], "mixed": cells}[kind]
    assume(batch and (kind != "mixed" or 0 < len(forced) < len(cells)))
    got = list(extension_cohomology_stream(s, b, batch))
    assert [t for t, _ in got] == batch
    assert [as_reference(iv) for _, iv in got] == [reference_cohomology(s, b, t) for t in batch]
    direct = bundle_sum(*b.leaves())
    for t in forced if kind != "unforced" else ():
        iv, h = extension_cohomology(s, b, t), sum_cohomology(s, direct, t)
        assert iv.forced and (iv.lo0, iv.lo1, iv.lo2, iv.chi) == (h.h0, h.h1, h.h2, h.chi)


@seed(20261025)
@settings(max_examples=150, deadline=None)
@given(scrolls, exprs(4).filter(lambda b: type(b) is Ext), rectangles, st.data())
def test_walk_puts_each_value_at_its_twist(s, b, rectangle, data):
    # one batch of forced and unforced twists, shuffled and with repeats:
    # the walk fills the unforced positions from the combine in order, so
    # each position holds what a walk of its twist alone returns
    hlo, wh, flo, wf = rectangle
    cells = list(twist_rectangle((hlo, hlo + wh - 1), (flo, flo + wf - 1)))
    forced = [t for t in cells if forced_twist(s, b, t)]
    unforced = [t for t in cells if t not in forced]
    assume(forced and unforced)
    picks = data.draw(st.lists(st.sampled_from(forced), min_size=1, max_size=8))
    picks += data.draw(st.lists(st.sampled_from(unforced), min_size=1, max_size=8))
    picks += picks[: data.draw(st.integers(1, len(picks)))]
    batch = data.draw(st.permutations(picks))
    program = extensions._compile(b)
    assert extensions._walk(s, program, batch) == [extensions._walk(s, program, (t,))[0] for t in batch]


# the test scrolls and two unbalanced ones
DIFFERENTIAL_SCROLLS = TEST_SCROLLS + (Scroll(1, 50), Scroll(3, 40))


@st.composite
def near_the_h1_boundary(draw):
    """A scroll, a tree over it and up to eight twists, with |h| up to
    10^3 in classes and twists alike.  Classes are O(h, k - h*a0) and
    twists O(th, j - th*a0), so h'*a0 + f' = k + j stays near the
    thresholds -2 and c - 2*a0 of `h1_violating_h_twists` however large
    h' = h + th is, on either side of the duality branch."""
    s = draw(st.sampled_from(DIFFERENTIAL_SCROLLS))
    gap = s.c - 2 * s.a0

    def near(h_bound, k):
        return st.builds(lambda h, k: DivisorClass(h, k - h * s.a0), st.integers(-h_bound, h_bound), k)

    leaves = st.lists(near(10**3, st.integers(-3, gap + 3)), min_size=1, max_size=3).map(lambda ds: bundle_sum(*ds))
    twists = st.lists(near(10**3, st.integers(-3, 3)), min_size=1, max_size=8)
    return s, draw(exprs(5, leaves)), draw(twists)


@seed(20261023)
@settings(max_examples=300, deadline=None)
@given(near_the_h1_boundary())
def test_h_groups_agree_with_the_sym_route(case):
    # two independent routes: the h-groups' forced test and Riemann-Roch
    # terms, against forced_twist and the direct sum read off the Sym
    # route leaf by leaf, in the kernel's value shape, which is what the
    # walk returns there; the batch matches the recursive reference at
    # forced and unforced twists alike
    s, b, twists = case
    groups = cohomology.h_groups((d, 1) for d in b.leaves())
    direct = bundle_sum(*b.leaves())
    for t, forced in zip(twists, cohomology.h1_free_direct_sums(s.a0, s.a1, groups, twists), strict=True):
        assert (forced is not None) == forced_twist(s, b, t)
        if forced is not None:
            h = sum_cohomology(s, direct, t)
            assert forced == (h.h0, h.h0, 0, 0, h.h2, h.h2, h.chi)
            assert extension_cohomology(s, b, t) == forced
    got = [as_reference(iv) for _, iv in extension_cohomology_stream(s, b, twists)]
    assert got == [reference_cohomology(s, b, t) for t in twists]


def _no_leaf_read(*args):
    raise AssertionError("a leaf was looked up")


def test_forced_twist_checks_every_leaf(monkeypatch):
    # at twist 0 on S(1,2), O(-3,-2) has h = (0, 0, 11) and O(0,0) has
    # h^1 = 0, so the twist is forced: its value is the direct sum's,
    # from Riemann-Roch over the classes, and no leaf is looked up
    s = Scroll(1, 2)
    b = Ext(line_bundle(-3, -2), line_bundle(0, 0))
    real = cohomology._line_cohomology

    def corrupt(value):
        return lambda a0, a1, h, f: value if (h, f) == (0, 0) else real(a0, a1, h, f)

    direct = sum_cohomology(s, bundle_sum(*b.leaves()))
    assert direct.as_tuple() == (1, 0, 11)
    monkeypatch.setattr(cohomology, "_line_cohomology", _no_leaf_read)
    assert extension_cohomology(s, b) == (1, 1, 0, 0, 11, 11, 12)
    # a leaf with h^1 < 0 fails where it is summed, in degree 1, before
    # the twist is judged forced or the Ext node above it is combined
    monkeypatch.setattr(cohomology, "_line_cohomology", corrupt((1, -1, 0)))
    with pytest.raises(ValueError, match=r"^degree 1: need 0 <= lo <= hi$"):
        extension_cohomology(s, Ext(line_bundle(0, -2), line_bundle(0, 0)))


def test_lone_sum_checks_its_leaf_at_a_forced_twist(monkeypatch):
    # a lone Sum is checked where it is summed, like every Sum: at twist
    # 0 on S(1,2) O(0,0) has h^1 = 0, where a tree would be forced, and
    # its lookup corrupted to h2 = -5 fails the check there, in the
    # walk's leaf reader, before any IntervalCohom is built
    s = Scroll(1, 2)
    real = cohomology._line_cohomology
    monkeypatch.setattr(
        cohomology, "_line_cohomology", lambda a0, a1, h, f: (0, 0, -5) if (h, f) == (0, 0) else real(a0, a1, h, f)
    )
    with pytest.raises(ValueError, match=r"^degree 2: need 0 <= lo <= hi$"):
        extensions._walk(s, extensions._compile(line_bundle(0, 0)), (ZERO,))


def test_lone_sum_checks_its_leaf_at_an_unforced_twist(monkeypatch):
    # a lookup of O(0,0) corrupted to h^1 = -1 leaves the twist unforced,
    # and a lone Sum has no Ext node: the check where it is summed
    # catches it, in both APIs
    s, b = Scroll(1, 2), line_bundle(0, 0)
    real = cohomology._line_cohomology
    monkeypatch.setattr(
        cohomology, "_line_cohomology", lambda a0, a1, h, f: (0, -1, 0) if (h, f) == (0, 0) else real(a0, a1, h, f)
    )
    with pytest.raises(ValueError, match=r"^degree 1: need 0 <= lo <= hi$"):
        extension_cohomology(s, b)
    with pytest.raises(ValueError, match=r"^degree 1: need 0 <= lo <= hi$"):
        list(extension_cohomology_stream(s, b, (ZERO,)))


def test_stream_checks_each_value_once(monkeypatch):
    # the 40-node chain of the table golden over its 16 x 16 rectangle:
    # no Sum value is negative, and the leaf reader calls
    # _check_interval, which lives beside it in cohomology, only for a
    # negative entry, so it is called for none, and wrapping a value in
    # IntervalCohom does not check it again
    _, scroll, bundle, twists = json.loads((GOLDEN / "table_ext_16x16.json").read_text())[0]["argv"]
    assert (scroll, twists) == ("--scroll=1,2", "--twists=-8:7,-8:7")
    s, b = Scroll(1, 2), parse_bundle_spec(bundle.removeprefix("--bundle="))
    rectangle = twist_rectangle((-8, 7), (-8, 7))
    calls = []
    real = cohomology._check_interval
    monkeypatch.setattr(cohomology, "_check_interval", lambda *v: calls.append(v) or real(*v))
    got = list(extension_cohomology_stream(s, b, rectangle))
    assert len(got) == 256 and all(type(iv) is IntervalCohom for _, iv in got)
    assert calls == []
    # built directly, an IntervalCohom still checks its fields
    with pytest.raises(ValueError, match=r"^degree 1: need 0 <= lo <= hi$"):
        IntervalCohom(0, 0, 2, 1, 0, 0, -1)
    assert len(calls) == 1


ZERO_BUNDLE_MESSAGES = {
    reg: "Reg of the zero bundle is not defined",
    decide_split_tH: "splitting criteria need a bundle of positive rank",
    decide_split_acm3: "splitting criteria need a bundle of positive rank",
    is_acm: "the ACM test needs a bundle of positive rank",
    is_ulrich: "the Ulrich test needs a bundle of positive rank",
    detect_line_summand: "summand detection needs a bundle of positive rank",
}


@pytest.mark.parametrize("decide", list(ZERO_BUNDLE_MESSAGES), ids=lambda d: d.__name__)
@pytest.mark.parametrize("zero", [bundle_sum(), Ext(bundle_sum(), bundle_sum())], ids=["sum", "ext"])
def test_decisions_reject_the_zero_bundle(decide, zero):
    with pytest.raises(EmptyBundle, match=f"^{ZERO_BUNDLE_MESSAGES[decide]}$"):
        decide(Scroll(1, 2), zero)


def test_probe_plans_take_one_walk(walks):
    # regularity reads three probes at three twists, Ulrich six at two,
    # and reg on an Ext certifies r on the leaves and walks the three
    # probes of r - 1
    s = Scroll(1, 2)

    def fresh():
        return Ext(line_bundle(-2, 3), Ext(line_bundle(1, -1), line_bundle(0, 2)))

    is_pp_regular(s, fresh(), 1, 0)
    is_ulrich(s, fresh())
    reg(s, fresh())
    assert walks == [3, 2, 3]
    # on one shared expression: the leaves' largest line_bundle_reg is
    # r = 2, so reg's three twists at r - 1 = 1 are those is_pp_regular
    # at p = 1 walked already, and a decision asked again walks nothing
    walks.clear()
    b = fresh()
    is_pp_regular(s, b, 1, 0)
    is_ulrich(s, b)
    reg(s, b)
    is_ulrich(s, b)
    assert walks == [3, 2]


def test_probe_plans_match_single_twists():
    s = Scroll(1, 2)
    b = Ext(line_bundle(-2, 3), Ext(line_bundle(1, -1), line_bundle(0, 2)))
    plans = (
        (is_pp_regular(s, b, 1, 0).probes, regularity._probe_plan(s, 1, 0), ZERO),
        (is_ulrich(s, b).probes, splitting._ULRICH_PLAN, ZERO),
    )
    for probes, plan, base in plans:
        assert len(probes) == len(plan)
        for probe, (name, shift, degree) in zip(probes, plan):
            iv = extension_cohomology(s, b, base + shift)
            assert (probe.name, probe.twist) == (name, base + shift)
            assert (probe.lo, probe.hi) == (iv.lo(degree), iv.hi(degree))


def reference_probes(s, b, plan):
    """Each (name, twist, degree) entry of a plan read from
    extension_cohomology at its twist alone."""
    probes = []
    for name, (h, f), degree in plan:
        twist = DivisorClass(h, f)
        iv = extension_cohomology(s, b, twist)
        probes.append(Probe(name, twist, iv.lo(degree), iv.hi(degree)))
    return tuple(probes)


def reference_rule(probes):
    """The module docstring's vanishing rule: the verdict, the first
    probe with lo > 0 and the probes with hi > 0."""
    witness = next((pr for pr in probes if pr.lo > 0), None)
    if witness is not None:
        return Verdict.FALSE, witness, ()
    unresolved = tuple(pr for pr in probes if pr.hi > 0)
    return (Verdict.INDETERMINATE if unresolved else Verdict.TRUE), None, unresolved


def reference_pp_regular(s, b, p, pp):
    # the three probes of the regularity module docstring on b(pH + p'f),
    # all carried, whatever the verdict
    plan = (
        ("h2(E(-H+(c-2)f))", (p - 1, pp + s.c - 2), 2),
        ("h1(E(-H+(c-1)f))", (p - 1, pp + s.c - 1), 1),
        ("h1(E(-f))", (p, pp - 1), 1),
    )
    probes = reference_probes(s, b, plan)
    verdict, witness, _ = reference_rule(probes)
    return ProbeVerdict(verdict, witness, probes)


def reference_ulrich(s, b):
    # h^i(b(-H)) and h^i(b(-2H)); INDETERMINATE carries the unresolved
    plan = [(f"h{i}(E({label}))", (k, 0), i) for k, label in ((-1, "-H"), (-2, "-2H")) for i in range(3)]
    probes = reference_probes(s, b, plan)
    verdict, witness, unresolved = reference_rule(probes)
    return ProbeVerdict(verdict, witness, unresolved if verdict is Verdict.INDETERMINATE else probes)


def reference_summand(s, b):
    # the three causes of detect_line_summand's docstring, in order, each
    # with the summand it certifies and its auxiliary vanishings
    c, a0, a1 = s.c, s.a0, s.a1
    cases = (
        ("h2(E(-2H+(c-2)f))", (-2, c - 2), 2, (0, 0), ()),
        ("h1(E(-2H+(c-1)f))", (-2, c - 1), 1, (0, 1), (
            ("h1(E(-H+(a0-1)f))", (-1, a0 - 1), 1),
            ("h1(E(-H+(a1-1)f))", (-1, a1 - 1), 1),
            ("h1(E(-2H+(c-2)f))", (-2, c - 2), 1),
        )),
        ("h1(E(-H-f))", (-1, -1), 1, (1, -1), (
            ("h1(E(-H))", (-1, 0), 1),
            ("h1(E(-2H+(a1-1)f))", (-2, a1 - 1), 1),
            ("h1(E(-2H+(a0-1)f))", (-2, a0 - 1), 1),
        )),
    )
    inconclusive = []
    for name, twist, degree, summand, auxiliaries in cases:
        (cause,) = reference_probes(s, b, ((name, twist, degree),))
        if cause.hi == 0:
            continue
        if cause.lo == 0:
            inconclusive.append(cause)
            continue
        aux = reference_probes(s, b, auxiliaries)
        if all(pr.hi == 0 for pr in aux):
            return ProbeVerdict(Verdict.TRUE, cause, aux, DivisorClass(*summand))
        inconclusive += [cause, *(pr for pr in aux if pr.hi > 0)]
    return ProbeVerdict(Verdict.INDETERMINATE if inconclusive else Verdict.FALSE, probes=tuple(inconclusive))


def same_record(got, want):
    """Equal, and built of the same types: the record, its witness and
    every probe it carries."""
    assert got == want
    assert type(got) is type(want)
    for field, g, w in zip(want._fields, got, want):
        if field == "probes":
            assert [type(pr) for pr in g] == [type(pr) for pr in w]
        else:
            assert type(g) is type(w), field


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(scrolls, exprs(4), st.integers(-3, 3), st.integers(-3, 3))
def test_fixed_plans_match_single_twist_reference(s, b, p, pp):
    # the fixed-plan decisions give the whole record the reference reads
    # twist by twist: verdict, witness, probes and summand
    same_record(is_pp_regular(s, b, p, pp), reference_pp_regular(s, b, p, pp))
    same_record(is_ulrich(s, b), reference_ulrich(s, b))
    if is_regular(s, b).verdict is Verdict.TRUE:
        same_record(detect_line_summand(s, b), reference_summand(s, b))


@pytest.mark.parametrize(
    "spec, walked",
    [
        # regular: reg walks nothing on a Sum, so is_regular walks its
        # own plan; the summand's second cause and its auxiliaries come
        # from earlier walks
        (
            "O(0,1) + O(1,-1) + O(2,-2)",
            [[(-2, 0)], [(-1, 0)], [(-2, 2)], [(-1, 1), (-1, 2), (0, -1)], [(-2, 1)]],
        ),
        # not regular: reg walks nothing, then is_regular's three twists
        # at p = 0
        (
            "O(0,0) + O(1,-1) + 2*O(2,-3)",
            [[(-2, 0)], [(-1, 0)], [(-2, -1)], [(-1, 1), (-1, 2), (0, -1)]],
        ),
    ],
    ids=["regular", "not-regular"],
)
def test_direct_sum_session_walks(walks, monkeypatch, spec, walked):
    # the benchmark's decide-corpus session on one direct sum: every
    # decision reads through the one evaluator, a Sum's scan stops at its
    # first violating twist, and no twist is walked twice
    s = Scroll(1, 2)
    b = parse_bundle_spec(spec)
    twists = []
    counting = extensions._walk
    monkeypatch.setattr(extensions, "_walk", lambda s, program, tw: twists.append(list(tw)) or counting(s, program, tw))
    reg(s, b)
    is_acm(s, b)
    is_ulrich(s, b)
    decide_split_tH(s, b)
    decide_split_acm3(s, b)
    if is_regular(s, b).verdict is Verdict.TRUE:
        detect_line_summand(s, b)
    assert walks == [len(w) for w in walked]
    assert twists == walked


@seed(20260302)
@settings(max_examples=150, deadline=None)
@given(scrolls, exprs(5), divisors)
def test_deep_interval_contains_split_value(s, b, t):
    iv = extension_cohomology(s, b, t)
    flat = sum_cohomology(s, bundle_sum(*b.leaves()), t)
    assert all(iv.lo(i) <= flat.as_tuple()[i] <= iv.hi(i) for i in range(3))
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


def test_deep_chain_decides_without_recursion(monkeypatch):
    # O(1,0), then O(0,0) and O(0,-2) alternating, 10,001 leaves in all.
    # On S(1,2) the top quotient O(0,-2) forces h^1(E) >= 1 (its h^1 is 1
    # and no sub leaf has h^2), so E is not ACM at t = 0; Reg of the sum
    # is 2, and at p = 1 the same leaf forces h^1(E(H-f)) >= 1.  At
    # t = 0 each of the 5,000 leaves O(0,-2) twisted by -f has h^1 = 2,
    # no twisted leaf has h^2 and no twisted quotient leaf has h^0, so
    # h^1(E(-f)) >= 10,000 and E is no sum of h-twists.  The three
    # decisions share one compile, and the tree is never hashed.
    s = Scroll(1, 2)
    leaves = [DivisorClass(1, 0)] + [DivisorClass(0, -2 if k % 2 == 0 else 0) for k in range(1, 10_001)]
    b = line_bundle(1, 0)
    for d in leaves[1:]:
        b = Ext(b, line_bundle(d.h, d.f))
    assert b.rank() == 10_001
    assert b.leaves() == tuple(leaves)
    compiled = []
    real = extensions._compile
    monkeypatch.setattr(extensions, "_compile", lambda b: compiled.append(1) or real(b))
    assert reg(s, b) == 2
    v = is_acm(s, b)
    assert (v.verdict, v.witness.twist.h, v.witness.lo) == (Verdict.FALSE, 0, 1)
    v = decide_split_tH(s, b)
    assert (v.verdict, v.witness.twist, v.witness.lo) == (Verdict.FALSE, DivisorClass(0, -1), 10_000)
    assert len(compiled) == 1


def reference_repr(b):
    """The repr a dataclass generates for the tree, recursively."""
    if isinstance(b, Ext):
        return f"Ext(sub={reference_repr(b.sub)}, quot={reference_repr(b.quot)})"
    return f"Sum(terms={b.terms!r})"


few_sums = st.sampled_from([line_bundle(0, 0), line_bundle(1, -1), bundle_sum(ZERO, ZERO)])


@given(exprs(3, few_sums), exprs(3, few_sums))
def test_equality_hash_and_repr_follow_the_tree(x, y):
    # a copy rebuilt from text is another object with the same tree
    copy = parse_bundle_spec(format_bundle(x))
    assert copy is not x
    assert copy == x and hash(copy) == hash(x)
    assert repr(copy) == repr(x) == reference_repr(x)
    assert (x == y) is (format_bundle(x) == format_bundle(y))


def reference_compile(b):
    """The post-order program as it was compiled from `_pieces`' text
    and Sums, with a combine at each closing parenthesis, and the
    h-groups of the tree's leaves, multiplicities expanded: per distinct
    h, (h, N, NF, fmin, fmax), the most extreme f first; none for a lone
    Sum."""
    sums, index, ops = [], {}, []
    for piece in extensions._pieces(b):
        if isinstance(piece, Sum):
            i = index.setdefault(piece.terms, len(sums))
            if i == len(sums):
                sums.append(piece.terms)
            ops.append(i)
        elif piece == ")":
            ops.append(extensions._COMBINE)
    fs = {}
    for d in as_bundle_expr(b).leaves() if len(ops) > 1 else ():
        fs.setdefault(d.h, []).append(d.f)
    groups = [(h, len(f), sum(f), min(f), max(f)) for h, f in fs.items()]
    groups.sort(key=lambda g: (-max(-g[3], g[4]), g[0]))
    return tuple(sums), tuple(ops), tuple(groups)


@given(st.one_of(exprs(5, few_sums), exprs(4)))
def test_compile_matches_the_pieces_reference(b):
    # _compile walks the nodes from its own stack; the evaluator's
    # classes are the tree's distinct leaves in tree order
    assert extensions._compile(b) == reference_compile(b)
    assert extensions._evaluator(Scroll(1, 2), b).classes == tuple(dict.fromkeys(b.leaves()))


def test_deep_chain_compares_hashes_and_prints_without_recursion():
    # 10,000 Ext levels, far past the interpreter's recursion limit
    def chain(top):
        b = line_bundle(0, 0)
        for k in range(1, 10_000):
            b = Ext(b, line_bundle(k % 3, 0))
        return Ext(b, top)

    b, same, other = chain(line_bundle(1, 1)), chain(line_bundle(1, 1)), chain(line_bundle(1, 2))
    assert b == same and hash(b) == hash(same)
    assert b != other and b != b.sub
    text = repr(b)
    assert text.startswith("Ext(sub=" * 10_000 + "Sum(terms=((DivisorClass(h=0, f=0), 1),)), quot=")
    assert text.endswith(", quot=Sum(terms=((DivisorClass(h=1, f=1), 1),)))")
    assert text.count("Ext(") == 10_000


def test_expressions_are_immutable():
    b = Ext(line_bundle(0, 0), line_bundle(1, 0))
    for node, field in ((b, "sub"), (b.sub, "terms"), (line_cohomology(Scroll(1, 2), ZERO), "h0")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            delattr(node, field)


def test_records_copy_and_pickle():
    s = Scroll(1, 2)
    b = Ext(line_bundle(0, -3), bundle_sum(DivisorClass(1, 2), DivisorClass(1, 2)))
    records = (
        s, P1Sum((2, -1)), line_cohomology(s, ZERO), b, b.sub, extension_cohomology(s, b),
        is_acm(s, b), decide_split_tH(s, b),
    )
    for record in records:
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record) and clone == record


def test_evaluators_live_on_their_expression():
    # one evaluator per expression and scroll, kept on the expression and
    # freed with it
    b = Ext(line_bundle(0, -3), line_bundle(1, 2))
    s = Scroll(1, 2)
    is_acm(s, b)
    reg(s, b)
    shared = extensions._evaluator(Scroll(1, 2), b)
    assert shared is extensions._evaluator(s, b)
    assert shared is not extensions._evaluator(Scroll(1, 1), b)
    assert shared is not extensions._evaluator(s, Ext(line_bundle(0, -3), line_bundle(1, 2)))
    assert shared.values
    expr, evaluator = weakref.ref(b), weakref.ref(shared)
    del b, shared
    gc.collect()
    assert expr() is None and evaluator() is None


# each decision's whole result: verdict, witness and probes
DECISIONS = {
    "pp_regular": lambda s, b, p, pp: is_pp_regular(s, b, p, pp),
    "regular": lambda s, b, p, pp: is_regular(s, b),
    "reg": lambda s, b, p, pp: reg(s, b),
    "acm": lambda s, b, p, pp: is_acm(s, b),
    "ulrich": lambda s, b, p, pp: is_ulrich(s, b),
    "split_tH": lambda s, b, p, pp: decide_split_tH(s, b),
    "split_acm3": lambda s, b, p, pp: decide_split_acm3(s, b),
    "summand": lambda s, b, p, pp: (
        detect_line_summand(s, b) if is_regular(s, b).verdict is Verdict.TRUE else None
    ),
}


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(scrolls, scrolls, exprs(4), st.permutations(list(DECISIONS)), st.integers(-3, 3), st.integers(-4, 4))
def test_shared_evaluator_matches_fresh_copies(s1, s2, b, order, p, pp):
    # every decision, in any order on one expression and on two scrolls,
    # gives what it gives on a fresh copy, whatever the earlier ones left
    # in the memo
    for s in (s1, s2):
        for name in order:
            decide = DECISIONS[name]
            assert decide(s, b, p, pp) == decide(s, parse_bundle_spec(format_bundle(b)), p, pp)


def test_verdict_values():
    assert Verdict.TRUE.value == "true"
    assert Verdict.FALSE.value == "false"
    assert Verdict.INDETERMINATE.value == "indeterminate"
