"""Arrangements, log-bundle splitting formulas, and residue checks.

The formulas are verified against two independent ledgers: first Chern
class additivity and Euler-characteristic additivity along the residue
sequence, both exact integer identities.
"""

import pytest

from scrollcalc import (
    DivisorClass,
    HypothesisViolated,
    NegativeCount,
    RankMismatch,
    Scroll,
    TooManyCurves,
    UnsupportedArrangement,
    bundle_sum,
    classify_regular_acm_log,
    euler_rr,
    intersect,
    line_cohomology,
    log_splitting_type,
    residue_consistency,
    twist_rectangle,
    validate_arrangement,
)
from scrollcalc.logbundles import KEPT_FAILURES

LOG_SCROLLS = (Scroll(1, 1), Scroll(2, 2), Scroll(3, 3), Scroll(1, 2), Scroll(1, 3))


def supported_arrangements(s, max_lines=8, max_curves=4):
    for a in range(0, max_lines + 1):
        for b in range(0, max_curves + 1):
            if s.e > 0 and b >= 2:
                continue
            arr = validate_arrangement(s, a, b)
            if arr.supported:
                yield arr


def test_validation_rules():
    s = Scroll(1, 2)
    assert validate_arrangement(s, 2, 1).supported
    assert not validate_arrangement(s, 1, 0).supported  # a < e+1 = 2
    with pytest.raises(TooManyCurves):
        validate_arrangement(s, 2, 2)
    with pytest.raises(NegativeCount):
        validate_arrangement(s, -1, 0)
    with pytest.raises(NegativeCount):
        validate_arrangement(s, 0, -2)
    # e = 0: any counts allowed, (0,1) is marked formula_only
    assert validate_arrangement(Scroll(2, 2), 0, 5).supported
    assert validate_arrangement(Scroll(2, 2), 0, 1).formula_only
    assert not validate_arrangement(Scroll(2, 2), 1, 1).formula_only


def test_unsupported_refuses_formula():
    arr = validate_arrangement(Scroll(1, 2), 1, 0)
    with pytest.raises(UnsupportedArrangement):
        log_splitting_type(arr)


def test_splitting_frozen_examples():
    split = log_splitting_type(validate_arrangement(Scroll(1, 2), 2, 0))
    assert set(split.leaves()) == {DivisorClass(0, 0), DivisorClass(-2, 3)}
    split = log_splitting_type(validate_arrangement(Scroll(1, 2), 2, 1))
    assert set(split.leaves()) == {DivisorClass(0, 0), DivisorClass(-1, 1)}
    split = log_splitting_type(validate_arrangement(Scroll(2, 2), 3, 2))
    assert set(split.leaves()) == {DivisorClass(0, 1), DivisorClass(0, 0)}
    # empty arrangement at e = 0: the split cotangent bundle
    split = log_splitting_type(validate_arrangement(Scroll(2, 2), 0, 0))
    assert set(split.leaves()) == {DivisorClass(0, -2), DivisorClass(-2, 4)}


def test_formula_coherence_at_e0():
    # the general e=0 formula specializes to the one- and zero-curve
    # formulas used when e > 0
    for s in (Scroll(1, 1), Scroll(2, 2), Scroll(3, 3)):
        for a in range(0, 9):
            b0 = log_splitting_type(validate_arrangement(s, a, 0))
            assert set(b0.leaves()) == {DivisorClass(0, a - 2), DivisorClass(-2, s.c)}
            b1 = log_splitting_type(validate_arrangement(s, a, 1))
            assert set(b1.leaves()) == {DivisorClass(0, a - 2), DivisorClass(-1, s.a0)}


def test_c1_additivity_everywhere():
    for s in LOG_SCROLLS:
        for arr in supported_arrangements(s):
            split = log_splitting_type(arr)
            assert split.c1() == s.K + arr.boundary_class()


def test_chi_consistency_small_grid():
    grid = tuple(twist_rectangle((-2, 2), (-3, 3)))
    for s in LOG_SCROLLS:
        for arr in supported_arrangements(s, max_lines=5, max_curves=3):
            report = residue_consistency(arr, log_splitting_type(arr), grid)
            assert report.ok
            assert report.c1_check


def test_perturbed_claim_fails():
    s = Scroll(2, 2)
    arr = validate_arrangement(s, 3, 2)
    bogus = bundle_sum(DivisorClass(0, 2), DivisorClass(0, 0))
    report = residue_consistency(arr, bogus, twist_rectangle((-2, 2), (-3, 3)))
    assert not report.c1_check
    assert not report.ok


def test_report_counts_match_a_brute_count():
    # a bogus claim that fails at some twists of the rectangle but not
    # all; the report counts every twist, keeps the first failures in
    # grid order, and is ok exactly when nothing failed
    s = Scroll(2, 2)
    arr = validate_arrangement(s, 3, 2)
    bogus = bundle_sum(DivisorClass(0, 2), DivisorClass(-1, 3))
    grid = tuple(twist_rectangle((-2, 2), (-3, 3)))
    brute = []
    for tw in grid:
        lhs = sum(euler_rr(s, d + tw) for d in bogus.leaves())
        rhs = (
            euler_rr(s, DivisorClass(0, -2) + tw)
            + euler_rr(s, DivisorClass(-2, s.c) + tw)
            + 3 * (intersect(tw, DivisorClass(0, 1), s) + 1)
            + 2 * (intersect(tw, s.narrow_section(), s) + 1)
        )
        if lhs != rhs:
            brute.append((tw, lhs, rhs))
    assert KEPT_FAILURES < len(brute) < len(grid)
    report = residue_consistency(arr, bogus, iter(grid))
    assert (report.chi_total, report.chi_failed) == (len(grid), len(brute))
    assert [(c.twist, c.lhs, c.rhs) for c in report.chi_failures] == brute[:KEPT_FAILURES]
    assert not report.ok
    good = residue_consistency(arr, log_splitting_type(arr), grid)
    assert (good.chi_total, good.chi_failed, good.chi_failures, good.ok) == (len(grid), 0, (), True)


def test_rank_must_be_two():
    arr = validate_arrangement(Scroll(2, 2), 3, 2)
    with pytest.raises(RankMismatch):
        residue_consistency(arr, bundle_sum(DivisorClass(0, 0)), twist_rectangle((-1, 1), (-1, 1)))


def test_h1_of_cotangent_bundle_is_two():
    # Picard-rank sanity on e=0 scrolls: the two pieces of the split
    # cotangent bundle carry one h^1 each
    for s in (Scroll(1, 1), Scroll(2, 2), Scroll(3, 3)):
        pieces = log_splitting_type(validate_arrangement(s, 0, 0))
        total = sum(line_cohomology(s, d).h1 for d in pieces.leaves())
        assert total == 2
        assert all(line_cohomology(s, d).h0 == 0 for d in pieces.leaves())


def test_classification_frozen():
    result = classify_regular_acm_log(Scroll(2, 2), 7, 4)
    assert [(a, b) for a, b, _ in result] == [(2, 2), (3, 2), (4, 2), (5, 2)]
    for a, b, split in result:
        assert set(split.leaves()) == {DivisorClass(0, a - 2), DivisorClass(0, 0)}
    result = classify_regular_acm_log(Scroll(3, 3), 9, 4)
    assert [(a, b) for a, b, _ in result] == [(a, 2) for a in range(2, 8)]


def test_classification_hypotheses():
    with pytest.raises(HypothesisViolated):
        classify_regular_acm_log(Scroll(1, 1), 5, 4)  # c = 2
    with pytest.raises(HypothesisViolated):
        classify_regular_acm_log(Scroll(1, 3), 8, 4)  # e != 0
    with pytest.raises(ValueError):
        classify_regular_acm_log(Scroll(2, 2), 5, 4)  # max_lines < c+2
    with pytest.raises(ValueError):
        classify_regular_acm_log(Scroll(2, 2), 7, 2)  # max_curves < 3


def test_twist_rectangle_shape():
    grid = tuple(twist_rectangle((-1, 1), (-2, 2)))
    assert len(grid) == 3 * 5
    assert grid[0] == DivisorClass(-1, -2)
    assert grid[-1] == DivisorClass(1, 2)
