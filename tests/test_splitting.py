"""Splitting criteria, ACM/Ulrich tests, and the summand detector.

The closed-form violating-t sets are the load-bearing piece: every
"for all integer t" quantifier in the criteria is decided through them,
so they are checked against brute-force window scans both here (small
count) and in the acceptance suite (full count).
"""

import pytest
from hypothesis import given, seed, settings, strategies as st

from scrollcalc import (
    DivisorClass,
    EmptyBundle,
    Ext,
    NegativeCount,
    NotRegular,
    Probe,
    Scroll,
    Verdict,
    bundle_sum,
    decide_split_acm3,
    decide_split_tH,
    detect_line_summand,
    ext1_dim,
    extension_cohomology,
    forced_split,
    is_acm,
    is_regular,
    is_ulrich,
    line_bundle,
    line_cohomology,
    make_ulrich,
    sum_cohomology,
    violating_twists,
)
from scrollcalc import extensions, splitting
from scrollcalc.harness import (
    brute_force_violations,
    random_sum_bundle,
    run_split_harness,
    splits_into_h_twists,
    splits_into_three_types,
)
from scrollcalc.extensions import BATCH_BOUND
from scrollcalc.splitting import acm3_families, th_families

from conftest import TEST_SCROLLS

scrolls = st.sampled_from(TEST_SCROLLS)
divisors = st.builds(
    DivisorClass, st.integers(min_value=-5, max_value=5), st.integers(min_value=-8, max_value=8)
)


def test_split_h_frozen_examples():
    s = Scroll(1, 2)
    v = decide_split_tH(s, bundle_sum(DivisorClass(0, 0), DivisorClass(2, 0)))
    assert v.outcome is Verdict.TRUE
    assert sorted(d.h for d in v.witness.leaves()) == [0, 2]

    v = decide_split_tH(s, bundle_sum(DivisorClass(0, 1)))
    assert v.outcome is Verdict.FALSE
    assert (v.failure.name, v.failure.twist.h, v.failure.lo) == ("h1(E(tH+(c-1)f))", -2, 1)

    v = decide_split_tH(s, bundle_sum(DivisorClass(1, -1)))
    assert v.outcome is Verdict.FALSE
    assert (v.failure.name, v.failure.twist.h, v.failure.lo) == ("h1(E(tH-f))", -1, 1)


def test_split_acm3_frozen_examples():
    v = decide_split_acm3(
        Scroll(2, 3), bundle_sum(DivisorClass(0, 1), DivisorClass(3, 0), DivisorClass(1, -1))
    )
    assert v.outcome is Verdict.TRUE
    assert v.witness.rank() == 3

    s = Scroll(1, 2)
    v = decide_split_acm3(s, bundle_sum(DivisorClass(0, 2)))
    assert v.outcome is Verdict.FALSE
    assert (v.failure.name, v.failure.twist.h, v.failure.lo) == ("h1(E(tH+(a1-1)f))", -2, 1)

    v = decide_split_acm3(s, bundle_sum(DivisorClass(0, -2)))
    assert v.outcome is Verdict.FALSE
    assert (v.failure.name, v.failure.twist.h, v.failure.lo) == ("h1(E(tH))", 0, 1)


def test_split_witness_rank_matches_input(scroll):
    b = bundle_sum(DivisorClass(0, 0), DivisorClass(1, 0), DivisorClass(-2, 0))
    v = decide_split_tH(scroll, b)
    assert v.outcome is Verdict.TRUE and v.witness.rank() == 3


def test_family_twist_offsets(scroll):
    assert [off for _, off in th_families(scroll)] == [scroll.c - 1, -1]
    assert [off for _, off in acm3_families(scroll)] == [
        0,
        scroll.a0 - 1,
        scroll.a1 - 1,
        scroll.c - 2,
    ]


@given(scrolls, st.lists(divisors, min_size=1, max_size=4), st.sampled_from([-1, 0, 1, 2]))
@settings(max_examples=150)
def test_violating_twists_match_brute_force(s, ds, offset):
    b = bundle_sum(*ds)
    closed = [t for lo, hi in violating_twists(s, b, offset) for t in range(max(lo, -15), min(hi, 15) + 1)]
    assert closed == list(brute_force_violations(s, b, offset, (-15, 15)))


@given(scrolls, st.lists(divisors, min_size=1, max_size=6), st.sampled_from([-1, 0, 1, 2]))
def test_violating_twists_are_merged_intervals(s, ds, offset):
    intervals = violating_twists(s, bundle_sum(*ds), offset)
    assert all(lo <= hi for lo, hi in intervals)
    # sorted, and a gap of at least one twist between neighbours
    assert all(a[1] + 1 < b[0] for a, b in zip(intervals, intervals[1:]))


@given(scrolls, st.integers(min_value=0, max_value=400))
@settings(max_examples=120, deadline=None)
def test_decide_matches_structure(s, seed):
    import random

    b = random_sum_bundle(random.Random(seed))
    assert (decide_split_tH(s, b).outcome is Verdict.TRUE) == splits_into_h_twists(b)
    assert (decide_split_acm3(s, b).outcome is Verdict.TRUE) == splits_into_three_types(b)


def test_seeded_harness_runs_clean(scroll):
    report = run_split_harness(scroll, count=200, seed=7)
    assert report.ok, report.summary()
    assert report.checked == 200


def test_nonsplit_class_yields_indeterminate():
    # on S(1,1) both leaves are three-type bundles but ext1 from
    # O(H-f) to O(-H+f) is 1, so the multiset depends on the class
    s = Scroll(1, 1)
    e = Ext(line_bundle(-1, 1), line_bundle(1, -1))
    assert ext1_dim(s, DivisorClass(1, -1), DivisorClass(-1, 1)) == 1
    v = decide_split_acm3(s, e)
    assert v.outcome is Verdict.INDETERMINATE
    assert "extension class" in v.note


def test_acm_frozen_examples():
    assert is_acm(Scroll(2, 2), bundle_sum(DivisorClass(0, 3))).verdict is Verdict.TRUE
    v = is_acm(Scroll(2, 2), bundle_sum(DivisorClass(0, 4)))
    assert v.verdict is Verdict.FALSE
    assert (v.witness.twist.h, v.witness.lo) == (-2, 1)
    assert is_acm(Scroll(1, 2), bundle_sum(DivisorClass(0, -1))).verdict is Verdict.TRUE


def test_scan_stops_at_first_failure(walks):
    # O(-10^6 f) on S(1,2) violates every scanned family on an interval
    # about 10^6 twists wide, and a Sum's first violating twist already
    # refutes it, so each decision walks its first batch, one twist, only
    s = Scroll(1, 2)
    decisions = (decide_split_tH, decide_split_acm3, is_acm)
    for decide in decisions:
        walks.clear()
        v = decide(s, line_bundle(0, -10**6))
        assert (v.witness if decide is is_acm else v.failure).lo > 0
        assert walks == [1]
    # on one shared expression, is_acm's witness is the first twist of
    # the three-type scan's first family, offset 0, walked already
    b = line_bundle(0, -10**6)
    seen = []
    for decide in decisions:
        walks.clear()
        decide(s, b)
        seen.append(list(walks))
    assert seen == [[1], [1], []]


def reference_scan(s, b, families):
    """The scan twist by twist: one extension_cohomology per violating
    twist, family-major, t ascending, read by the vanishing rule."""
    unresolved = []
    for name, offset in families:
        for lo, hi in violating_twists(s, b, offset):
            for t in range(lo, hi + 1):
                twist = DivisorClass(t, offset)
                iv = extension_cohomology(s, b, twist)
                probe = Probe(name, twist, iv.lo(1), iv.hi(1))
                if probe.lo > 0:
                    return Verdict.FALSE, probe, ()
                if probe.hi > 0:
                    unresolved.append(probe)
    return (Verdict.INDETERMINATE if unresolved else Verdict.TRUE), None, tuple(unresolved)


def exprs(depth):
    leaf = st.lists(divisors, min_size=1, max_size=3).map(lambda ds: bundle_sum(*ds))
    if depth == 0:
        return leaf
    inner = exprs(depth - 1)
    return st.one_of(leaf, st.builds(Ext, inner, inner))


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(scrolls, exprs(5))
def test_batched_scans_match_twist_by_twist_reference(s, b):
    verdict, witness, probes = reference_scan(s, b, (("h1(E(tH))", 0),))
    v = is_acm(s, b)
    assert (v.verdict, v.witness, v.probes) == (verdict, witness, probes)
    for decide, families in ((decide_split_tH, th_families(s)), (decide_split_acm3, acm3_families(s))):
        verdict, witness, probes = reference_scan(s, b, families)
        if verdict is Verdict.TRUE and not forced_split(s, b):
            verdict = Verdict.INDETERMINATE
        v = decide(s, b)
        assert (v.outcome, v.failure, v.probes) == (verdict, witness, probes)


def test_scan_batches_double_and_walk_each_twist_once(monkeypatch):
    # on S(1,1) all four three-type families have f-offset 0, and this
    # class has lo = 0 < hi on 998 twists, so the scan reads 4 * 998
    # probes: the first family's batches double up to the bound, and the
    # three repeats of its offset walk nothing
    s = Scroll(1, 1)
    b = Ext(line_bundle(0, -500), line_bundle(0, 500))
    assert {offset for _, offset in acm3_families(s)} == {0}
    walked = []
    real = extensions._walk

    def recording(s, program, twists):
        walked.append(twists)
        return real(s, program, twists)

    monkeypatch.setattr(extensions, "_walk", recording)
    v = decide_split_acm3(s, b)
    distinct = [DivisorClass(t, 0) for lo, hi in violating_twists(s, b, 0) for t in range(lo, hi + 1)]
    assert v.outcome is Verdict.INDETERMINATE and len(v.probes) == 4 * len(distinct) == 4 * 998
    assert BATCH_BOUND == 256
    assert [len(w) for w in walked] == [1, 2, 4, 8, 16, 32, 64, 128, 256, 256, 231]
    assert [t for w in walked for t in w] == distinct


def test_violating_twists_computed_once_per_offset(monkeypatch):
    # on S(1,1) is_acm and all four three-type families scan f-offset 0,
    # and the h-twist families scan c - 1 = 1 and -1: the evaluator the
    # decisions share keeps each offset's intervals
    s = Scroll(1, 1)
    b = Ext(line_bundle(0, -5), line_bundle(0, 5))
    offsets = []
    real = splitting.violating_twists
    monkeypatch.setattr(
        splitting, "violating_twists", lambda s, b, offset: offsets.append(offset) or real(s, b, offset)
    )
    for decide in (is_acm, decide_split_acm3, decide_split_tH, decide_split_acm3):
        decide(s, b)
    assert offsets == [0, 1, -1]


def test_acm_fibre_twist_classification(scroll):
    # O(tf) is ACM exactly for -1 <= t <= c-1
    for t in range(-6, scroll.c + 6):
        v = is_acm(scroll, bundle_sum(DivisorClass(0, t)))
        assert (v.verdict is Verdict.TRUE) == (-1 <= t <= scroll.c - 1)


def test_ulrich_frozen_examples():
    s = Scroll(1, 2)
    assert is_ulrich(s, bundle_sum(DivisorClass(1, -1))).verdict is Verdict.TRUE
    assert is_ulrich(s, bundle_sum(DivisorClass(0, s.c - 1))).verdict is Verdict.TRUE
    v = is_ulrich(s, bundle_sum(DivisorClass(0, 0)))
    assert v.verdict is Verdict.FALSE
    assert v.witness.name == "h2(E(-2H))" and v.witness.lo == s.c - 1


def test_ulrich_probes_by_verdict():
    # a decided verdict carries all six probes, an undecided one only
    # the four it could not resolve
    s = Scroll(1, 2)
    names = ["h0(E(-H))", "h1(E(-H))", "h2(E(-H))", "h0(E(-2H))", "h1(E(-2H))", "h2(E(-2H))"]
    for d, verdict in ((DivisorClass(1, -1), Verdict.TRUE), (DivisorClass(0, 0), Verdict.FALSE)):
        v = is_ulrich(s, bundle_sum(d))
        assert v.verdict is verdict
        assert [p.name for p in v.probes] == names
        assert v.witness is None or v.witness in v.probes
    v = is_ulrich(s, Ext(line_bundle(-1, 3), line_bundle(2, -2)))
    assert v.verdict is Verdict.INDETERMINATE and v.witness is None
    assert [p.name for p in v.probes] == ["h0(E(-H))", "h1(E(-H))", "h1(E(-2H))", "h2(E(-2H))"]
    assert all((p.lo, p.hi) == (0, 1) for p in v.probes)


def test_ulrich_sum_classification(scroll):
    # decomposable shadow: a sum is Ulrich iff every summand is one of
    # the two Ulrich line bundles
    ulrich = {DivisorClass(1, -1), DivisorClass(0, scroll.c - 1)}
    for h in range(-3, 4):
        for f in range(-4, 5):
            d = DivisorClass(h, f)
            v = is_ulrich(scroll, bundle_sum(d))
            assert (v.verdict is Verdict.TRUE) == (d in ulrich)


def test_ulrich_dual_twist_closure(scroll):
    # D -> -D + (1, c-2) swaps the two Ulrich line bundle classes
    flip = lambda d: -d + DivisorClass(1, scroll.c - 2)
    assert flip(DivisorClass(1, -1)) == DivisorClass(0, scroll.c - 1)
    assert flip(DivisorClass(0, scroll.c - 1)) == DivisorClass(1, -1)


def test_make_ulrich_shapes():
    s = Scroll(1, 2)
    b = make_ulrich(s, 0, 3)
    assert b.rank() == 3 and set(b.leaves()) == {DivisorClass(0, s.c - 1)}
    b = make_ulrich(s, 2, 0)
    assert b.rank() == 2 and splits_into_h_twists(b) is False and splits_into_three_types(b)
    e = make_ulrich(s, 1, 1)
    assert isinstance(e, Ext) and e.rank() == 2
    with pytest.raises(EmptyBundle):
        make_ulrich(s, 0, 0)
    with pytest.raises(NegativeCount):
        make_ulrich(s, -1, 2)


def test_make_ulrich_is_ulrich_and_regular(scroll):
    for a in range(0, 4):
        for b in range(0, 4):
            if a + b == 0:
                continue
            e = make_ulrich(scroll, a, b)
            u = is_ulrich(scroll, e)
            assert u.verdict is Verdict.TRUE
            assert all(p.forced for p in u.probes)
            assert is_regular(scroll, e).verdict is Verdict.TRUE


def test_make_ulrich_split_only_on_s11():
    # ext1 between the two building blocks is c-2, so on S(1,1) only the
    # split class exists
    s = Scroll(1, 1)
    assert ext1_dim(s, DivisorClass(0, s.c - 1), DivisorClass(1, -1)) == 0
    e = make_ulrich(s, 1, 1)
    iv = extension_cohomology(s, e)
    assert iv.forced


def test_acm_gg_sums_satisfy_gg_vanishings(scroll):
    # globally generated ACM sums: h^1 vanishes one step below any
    # nonnegative twist in each direction
    from scrollcalc import gg_region

    for h in range(-2, 3):
        for f in range(-4, 5):
            d = DivisorClass(h, f)
            if not gg_region(scroll, d):
                continue
            b = bundle_sum(d)
            if is_acm(scroll, b).verdict is not Verdict.TRUE:
                continue
            for a in range(0, 5):
                for bb in range(0, 5):
                    t1 = DivisorClass(a - 1, bb)
                    t2 = DivisorClass(a, bb - 1)
                    assert sum_cohomology(scroll, b, t1).h1 == 0
                    assert sum_cohomology(scroll, b, t2).h1 == 0


def test_make_ulrich_vanishing_grids(scroll):
    # constructed Ulrich bundles: h^2 vanishes from -2H up and the two
    # h^1 grids from the globally generated ACM property also vanish,
    # with every bound forced
    for a, b in ((1, 1), (2, 1), (0, 2), (3, 3)):
        e = make_ulrich(scroll, a, b)
        for i in range(0, 5):
            for j in range(0, 5):
                iv2 = extension_cohomology(scroll, e, DivisorClass(i - 2, j))
                assert iv2.forced_at(2) and iv2.hi(2) == 0
                iv1 = extension_cohomology(scroll, e, DivisorClass(i - 1, j))
                assert iv1.forced_at(1) and iv1.hi(1) == 0
                iv1b = extension_cohomology(scroll, e, DivisorClass(i, j - 1))
                assert iv1b.forced_at(1) and iv1b.hi(1) == 0


def test_summand_frozen_examples():
    s = Scroll(1, 2)
    v = detect_line_summand(s, bundle_sum(DivisorClass(0, 0), DivisorClass(0, 1)))
    assert v.verdict is Verdict.TRUE and v.summand == DivisorClass(0, 0)
    assert v.witness.name == "h2(E(-2H+(c-2)f))" and v.witness.lo == 1

    v = detect_line_summand(s, bundle_sum(DivisorClass(0, 1)))
    assert v.verdict is Verdict.TRUE and v.summand == DivisorClass(0, 1)
    assert v.witness.name == "h1(E(-2H+(c-1)f))" and v.witness.lo == 1

    v = detect_line_summand(s, bundle_sum(DivisorClass(1, -1)))
    assert v.verdict is Verdict.TRUE and v.summand == DivisorClass(1, -1)
    assert v.witness.name == "h1(E(-H-f))" and v.witness.lo == 1


def test_summand_requires_regular_input():
    s = Scroll(1, 2)
    with pytest.raises(NotRegular):
        detect_line_summand(s, bundle_sum(DivisorClass(0, -1)))


def test_summand_none_when_causes_absent():
    # E(-H) regular leaves nothing for the detector to see
    s = Scroll(1, 2)
    v = detect_line_summand(s, bundle_sum(DivisorClass(1, 0)))
    assert v.verdict is Verdict.FALSE and v.summand is None
