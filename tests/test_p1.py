import pytest
from hypothesis import given, strategies as st

import reference_p1
from scrollcalc import DivisorClass, Scroll, euler_rr, line_cohomology
from scrollcalc.errors import NegativeSymPower
from scrollcalc.p1 import P1Sum, p1_cohomology, sym_decompose


def test_single_degree_cohomology():
    assert p1_cohomology(P1Sum((0,))) == (1, 0)
    assert p1_cohomology(P1Sum((3,))) == (4, 0)
    assert p1_cohomology(P1Sum((-1,))) == (0, 0)
    assert p1_cohomology(P1Sum((-2,))) == (0, 1)
    assert p1_cohomology(P1Sum((-5,))) == (0, 4)


def test_sym_decompose_degrees():
    s = Scroll(1, 2)
    # Sym^2 of O(1)+O(2) twisted by -1: degrees 2a0-1, a0+a1-1, 2a1-1
    assert tuple(sym_decompose(s, 2, -1)) == (1, 2, 3)
    assert sym_decompose(s, 0, 5).rank == 1
    assert sym_decompose(s, 3, 0).rank == 4


def test_sym_decompose_rejects_negative_power():
    with pytest.raises(NegativeSymPower):
        sym_decompose(Scroll(1, 1), -1, 0)


def test_degrees_are_sorted():
    p = P1Sum((5, -2, 3))
    assert tuple(p) == p.degrees == (-2, 3, 5)
    assert p.rank == len(p) == 3 and 3 in p
    assert repr(p) == "P1Sum(degrees=(-2, 3, 5))"


@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=8))
def test_chi_matches_degree_sum(degrees):
    # chi(O(d)) = d + 1 on P^1, additive over summands
    h0, h1 = p1_cohomology(P1Sum(tuple(degrees)))
    assert h0 - h1 == sum(d + 1 for d in degrees)
    assert h0 >= 0 and h1 >= 0


@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=8))
def test_p1_serre_duality(degrees):
    # h^1(O(d)) = h^0(O(-2-d))
    _, h1 = p1_cohomology(P1Sum(tuple(degrees)))
    dual0, _ = p1_cohomology(P1Sum(tuple(-2 - d for d in degrees)))
    assert h1 == dual0


# -- the sorted-progression route against the generator-and-sort reference

scrolls = st.builds(
    lambda a0, e: Scroll(a0, a0 + e),
    st.integers(min_value=1, max_value=6),
    st.one_of(st.just(0), st.integers(min_value=0, max_value=8)),
)


@given(scrolls, st.integers(min_value=0, max_value=300), st.integers(min_value=-600, max_value=600))
def test_sym_decompose_matches_reference(s, a, b):
    p = sym_decompose(s, a, b)
    assert type(p) is P1Sum
    assert p == reference_p1.sym_decompose(s, a, b)
    assert list(p) == sorted(p) and p.rank == a + 1


# the degrees where a summand's contribution changes: -2 is the last with
# h^1 > 0, -1 has no cohomology, 0 is the first with h^0 > 0
degrees = st.one_of(st.sampled_from((-2, -1, 0)), st.integers(min_value=-60, max_value=60))


@given(st.lists(degrees, max_size=40))
def test_p1_cohomology_matches_reference(ds):
    p = P1Sum(ds)
    assert p1_cohomology(p) == reference_p1.p1_cohomology(p)


def test_p1_cohomology_of_the_empty_sum():
    assert p1_cohomology(P1Sum(())) == reference_p1.p1_cohomology(P1Sum(())) == (0, 0)


def _series(first: int, last: int, count: int) -> int:
    """The sum of an arithmetic progression from its ends and length."""
    return (first + last) * count // 2


N = 10**6


@pytest.mark.parametrize(
    "scroll, h, expected",
    [
        # h >= 0: Sym^N(O(1) + O(2)) has degrees N..2N, each giving d + 1
        (Scroll(1, 2), N, (_series(N + 1, 2 * N + 1, N + 1), 0, 0)),
        # balanced: N + 1 copies of degree 2N
        (Scroll(2, 2), N, (_series(2 * N + 1, 2 * N + 1, N + 1), 0, 0)),
        # h <= -2: duality gives Sym^N twisted by c - 2 = 1, degrees N+1..2N+1
        (Scroll(1, 2), -N - 2, (0, 0, _series(N + 2, 2 * N + 2, N + 1))),
        # balanced, twisted by c - 2 = 2: N + 1 copies of degree 2N + 2
        (Scroll(2, 2), -N - 2, (0, 0, _series(2 * N + 3, 2 * N + 3, N + 1))),
    ],
    ids=["S(1,2)+", "S(2,2)+", "S(1,2)-", "S(2,2)-"],
)
def test_line_cohomology_at_a_million(scroll, h, expected):
    d = DivisorClass(h, 0)
    rec = line_cohomology(scroll, d)
    assert rec.as_tuple() == expected
    assert rec.chi == euler_rr(scroll, d)
