import pytest
from hypothesis import given, strategies as st

from scrollcalc import NegativeSymPower, P1Sum, Scroll, p1_cohomology, sym_decompose


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
