"""Regularity probes, the closed-form region, and Reg search.

For direct sums everything is decidable, so the probe-based test can be
matched against the inequality description of the regular region and
against consequences regularity is supposed to have: vanishing h^1 on
curve restrictions, global generation numerics, twist stability.
"""

import pytest
from hypothesis import given, seed, settings, strategies as st

from scrollcalc import (
    DivisorClass,
    EmptyBundle,
    Ext,
    Scroll,
    Verdict,
    bundle_sum,
    gg_region,
    is_pp_regular,
    is_regular,
    line_bundle,
    line_bundle_reg,
    line_cohomology,
    reg,
    restricted_cohomology,
    sum_cohomology,
)
from scrollcalc import cohomology, extensions, regularity

from conftest import TEST_SCROLLS

scrolls = st.sampled_from(TEST_SCROLLS)
divisors = st.builds(
    DivisorClass, st.integers(min_value=-6, max_value=6), st.integers(min_value=-9, max_value=9)
)
sums = st.lists(divisors, min_size=1, max_size=3).map(lambda ds: bundle_sum(*ds))


def exprs(depth):
    if depth == 0:
        return sums
    inner = exprs(depth - 1)
    return st.one_of(sums, st.builds(Ext, inner, inner))


def grid(h_bound=8, f_bound=12):
    for h in range(-h_bound, h_bound + 1):
        for f in range(-f_bound, f_bound + 1):
            yield DivisorClass(h, f)


def test_probes_match_region(scroll):
    for d in grid():
        report = is_regular(scroll, bundle_sum(d))
        assert report.verdict in (Verdict.TRUE, Verdict.FALSE)
        assert (report.verdict is Verdict.TRUE) == (line_bundle_reg(scroll, d) <= 0)


def test_region_equals_gg_region(scroll):
    for d in grid():
        assert (line_bundle_reg(scroll, d) <= 0) == gg_region(scroll, d)


def test_reg_of_the_three_acm_types(scroll):
    assert reg(scroll, bundle_sum(DivisorClass(0, 0))) == 0
    assert reg(scroll, bundle_sum(DivisorClass(0, 1))) == 0
    assert reg(scroll, bundle_sum(DivisorClass(1, -1))) == 0


def test_reg_frozen_values():
    assert reg(Scroll(1, 2), bundle_sum(DivisorClass(0, -1))) == 1
    assert reg(Scroll(2, 2), bundle_sum(DivisorClass(-3, 0))) == 3


def test_empty_bundle_rejected(scroll):
    with pytest.raises(EmptyBundle):
        reg(scroll, bundle_sum())


@given(scrolls, divisors)
def test_line_bundle_reg_closed_form(s, d):
    # O(aH + bf) is regular iff a >= 0 and b >= -a*a0: d + rH is, and
    # d + (r - 1)H is not
    r = line_bundle_reg(s, d)
    for p, regular in ((r, True), (r - 1, False)):
        a, b = d.h + p, d.f
        assert (a >= 0 and b >= -a * s.a0) is regular
        assert (line_bundle_reg(s, d + DivisorClass(p, 0)) <= 0) is regular


@given(scrolls, divisors)
def test_reg_is_brute_force_minimum(s, d):
    b = bundle_sum(d)
    r = reg(s, b)
    assert isinstance(r, int)
    assert is_pp_regular(s, b, r, 0).verdict is Verdict.TRUE
    assert is_pp_regular(s, b, r - 1, 0).verdict is Verdict.FALSE


@given(scrolls, st.lists(divisors, min_size=1, max_size=4))
def test_sum_reg_is_max_of_members(s, ds):
    b = bundle_sum(*ds)
    assert reg(s, b) == max(line_bundle_reg(s, d) for d in ds)


def test_twist_stability(scroll):
    # a regular sheaf stays regular under nonnegative twists
    for d in grid(4, 6):
        if line_bundle_reg(scroll, d) > 0:
            continue
        b = bundle_sum(d)
        for p in range(0, 3):
            for pp in range(0, 3):
                assert is_pp_regular(scroll, b, p, pp).verdict is Verdict.TRUE


def test_regular_restrictions_have_no_h1(scroll):
    # restriction of a regular bundle to a fibre or a hyperplane section
    # has vanishing h^1
    for d in grid(4, 6):
        if line_bundle_reg(scroll, d) > 0:
            continue
        b = bundle_sum(d)
        assert restricted_cohomology(scroll, b, DivisorClass(0, 1))[1] == 0
        assert restricted_cohomology(scroll, b, DivisorClass(1, 0))[1] == 0


def test_regular_h0_second_difference(scroll):
    # for regular F all h^i with i > 0 vanish in the fibre direction, so
    # h^0(F(f)) - 2 h^0(F) + h^0(F(-f)) = 0 (chi is quadratic and f^2 = 0)
    for d in grid(4, 6):
        if line_bundle_reg(scroll, d) > 0:
            continue
        b = bundle_sum(d)
        up = sum_cohomology(scroll, b, DivisorClass(0, 1)).h0
        mid = sum_cohomology(scroll, b).h0
        down = sum_cohomology(scroll, b, DivisorClass(0, -1)).h0
        assert up == 2 * mid - down


def test_ext_regularity_interval_behaviour():
    s = Scroll(1, 2)
    # forced extension: probes collapse, verdicts definite
    e = Ext(line_bundle(1, -1), line_bundle(0, 2))
    assert is_regular(s, e).verdict is Verdict.TRUE
    assert reg(s, e) == 0
    # membership forces regularity even when the class does not: both
    # members regular implies all probe upper bounds are sums of zeros
    e2 = Ext(line_bundle(0, 0), line_bundle(2, 0))
    assert is_regular(s, e2).verdict is Verdict.TRUE


def test_reg_witnesses_record_failing_probe():
    s = Scroll(1, 2)
    report = is_regular(s, bundle_sum(DivisorClass(0, -1)))
    assert report.verdict is Verdict.FALSE
    assert report.witness == next(p for p in report.probes if p.lo > 0)


def window_scan_reg(s, b):
    """Reference Reg: scan p upward over a window widened by one per Ext
    level, remembering an unresolved verdict below the first TRUE."""

    def window(b):
        if isinstance(b, Ext):
            (sub_lo, sub_hi), (quot_lo, quot_hi) = window(b.sub), window(b.quot)
            return min(sub_lo, quot_lo) - 1, max(sub_hi, quot_hi) + 1
        r = max(line_bundle_reg(s, d) for d in b.leaves())
        return r, r

    lo, hi = window(b)
    pending_unknown = False
    for p in range(lo, hi + 1):
        verdict = is_pp_regular(s, b, p, 0).verdict
        if verdict is Verdict.TRUE:
            return Verdict.INDETERMINATE if pending_unknown else p
        pending_unknown = verdict is Verdict.INDETERMINATE
    raise AssertionError("the window holds no regular twist")


@seed(20260401)
@settings(max_examples=300, deadline=None)
@given(scrolls, exprs(5))
def test_reg_matches_window_scan(s, b):
    assert reg(s, b) == window_scan_reg(s, b)


def reference_certifies(s, b, p):
    """The kernel's route to reg's certificate: the three probes at p,
    read in one walk, all have hi = 0."""
    probes = extensions._evaluator(s, b).read(regularity._probe_plan(s, p, 0))
    return all(pr.hi == 0 for pr in probes)


def leaf_certifies(s, b, p):
    """reg's route to its certificate: each probe's degree vanishes on
    the direct sum of the tree's distinct classes at the probe's twist,
    read in one call of the leaf reader."""
    evaluator = extensions._evaluator(s, b)
    plan = regularity._probe_plan(s, p, 0)
    values = evaluator.classes_values([tw for _, tw, _ in plan])
    return all(v[degree] == 0 for v, (_, _, degree) in zip(values, plan, strict=True))


@seed(20261020)
@settings(max_examples=200, deadline=None)
@given(scrolls, exprs(4), st.integers(-3, 1))
def test_leaf_certificate_matches_the_kernel_probes(s, b, shift):
    # around r, where reg checks it, the certificate read from the
    # tree's distinct classes holds exactly when the kernel's probes vanish
    classes = extensions._evaluator(s, b).classes
    p = max(line_bundle_reg(s, d) for d in classes) + shift
    assert leaf_certifies(s, b, p) is reference_certifies(s, b, p)


@pytest.mark.parametrize("b", [line_bundle(0, 0), Ext(line_bundle(0, 0), line_bundle(0, 0))], ids=["sum", "ext"])
def test_reg_checks_the_leaves_it_certifies(monkeypatch, b):
    # r = 0 for O(0,0) on S(1,2), and its probe h1(E(-f)) looks O(0,-1)
    # up; corrupted to h^1 = -1 there, the leaf reader fails the
    # certificate as it fails a walk
    real = cohomology._line_cohomology
    monkeypatch.setattr(
        cohomology, "_line_cohomology", lambda a0, a1, h, f: (0, -1, 0) if (h, f) == (0, -1) else real(a0, a1, h, f)
    )
    with pytest.raises(ValueError, match=r"^degree 1: need 0 <= lo <= hi$"):
        reg(Scroll(1, 2), b)


def test_reg_probes_at_most_two_twists(monkeypatch, walks):
    # one compile per call; r is certified on the leaves, so an Ext
    # takes one walk, of the three probes of r - 1, and a Sum none
    s = Scroll(1, 2)
    b = line_bundle(0, 0)
    for _ in range(200):
        b = Ext(b, line_bundle(0, 0))
    compiled = []
    real = extensions._compile

    def counting(b):
        compiled.append(b)
        return real(b)

    monkeypatch.setattr(extensions, "_compile", counting)
    assert reg(s, b) == 0
    assert walks == [3] and len(compiled) == 1
    walks.clear()
    assert reg(s, bundle_sum(DivisorClass(0, 0), DivisorClass(1, -3))) == 2
    assert walks == [] and len(compiled) == 2
