"""Counted direct sums against the expanded multisets they replace.

A `Sum` stores (class, count) pairs.  The oracles below work on the
sorted expansion of those pairs, the representation the package used
before counts were stored, so the properties pin the counted form to it.
"""

import pytest
from hypothesis import given, strategies as st

from scrollcalc import (
    DivisorClass,
    NegativeCount,
    Scroll,
    Sum,
    Verdict,
    decide_split_tH,
    format_bundle,
    is_acm,
    line_cohomology,
    parse_bundle_spec,
    reg,
    sum_cohomology,
)

from conftest import TEST_SCROLLS

scrolls = st.sampled_from(TEST_SCROLLS)
divisors = st.builds(
    DivisorClass, st.integers(min_value=-4, max_value=4), st.integers(min_value=-6, max_value=6)
)
# a small pool of classes too, so that equal classes meet and get merged
pool = st.sampled_from([DivisorClass(h, f) for h in (-2, 0, 1) for f in (-3, 0, 2)])
counted = st.lists(st.tuples(pool | divisors, st.integers(min_value=0, max_value=4)), max_size=6)


def grouping_format(expanded):
    """The formatter of the expanded representation: group equal
    neighbours of the sorted multiset into counts."""
    if not expanded:
        return "0*O(0,0)"
    parts = []
    i = 0
    while i < len(expanded):
        j = i
        while j < len(expanded) and expanded[j] == expanded[i]:
            j += 1
        d, count = expanded[i], j - i
        text = f"O({d.h},{d.f})"
        parts.append(text if count == 1 else f"{count}*{text}")
        i = j
    return " + ".join(parts)


@given(scrolls, counted, divisors)
def test_counted_sum_matches_expanded_multiset(s, pairs, t):
    b = Sum(tuple(pairs))
    expanded = sorted(d for d, n in pairs for _ in range(n))
    assert [d for d, _ in b.terms] == sorted(set(expanded))
    assert all(n > 0 for _, n in b.terms)
    assert list(b.leaves()) == expanded
    assert b.rank() == len(expanded)
    assert format_bundle(b) == grouping_format(expanded)
    per_leaf = tuple(sum(line_cohomology(s, d + t).as_tuple()[i] for d in expanded) for i in range(3))
    assert sum_cohomology(s, b, t).as_tuple() == per_leaf


@given(counted)
def test_parser_multiplies_counts(pairs):
    text = " + ".join(f"{n}*O({d.h},{d.f})" for d, n in pairs) or "0*O(0,0)"
    assert parse_bundle_spec(text) == Sum(tuple(pairs))


@pytest.mark.parametrize("n", [0, -1, True, 3])
def test_one_pair_sum_matches_the_general_path(n):
    # a second pair of count 0 sends the same terms through the general path
    d = DivisorClass(1, 2)

    def built(terms):
        try:
            b = Sum(terms)
        except NegativeCount as e:
            return str(e)
        return b.terms, [type(count) for _, count in b.terms]

    assert built(((d, n),)) == built(((d, n), (d, 0)))


def test_billion_copies_cost_nothing():
    s = Scroll(1, 2)
    b = parse_bundle_spec("O(0,0)^1000000000 + 3*O(1,-1)")
    assert b.terms == ((DivisorClass(0, 0), 10**9), (DivisorClass(1, -1), 3))
    assert b.rank() == 1_000_000_003
    assert format_bundle(b) == "1000000000*O(0,0) + 3*O(1,-1)"
    # Reg(O(aH+bf)) = max(-a, ceil(-b/a0) - a): 0 for O(0,0) and
    # max(-1, 1 - 1) = 0 for O(H-f)
    assert reg(s, b) == 0
    # h^1(O(hH+ff)) != 0 needs h >= 0 and h + f <= -2, or h <= -2 and
    # f >= -h + 1 (a0 = 1, c = 3).  Along O(tH) and O((t+1)H - f) neither
    # branch has a solution, so the sum is ACM
    assert is_acm(s, b).verdict is Verdict.TRUE
    # the (c-1)f family never fires; in the -f family, O(H-f)(tH-f) at
    # t = -1 is O(0,-2), with h^1 = 1 per copy, so 3 in all
    v = decide_split_tH(s, b)
    assert v.outcome is Verdict.FALSE
    assert (v.failure.name, v.failure.twist.h, v.failure.lo) == ("h1(E(tH-f))", -1, 3)
