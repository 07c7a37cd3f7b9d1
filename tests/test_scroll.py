import pytest
from hypothesis import given, strategies as st

from scrollcalc import (
    FIBRE,
    HYPERPLANE,
    DivisorClass,
    InvalidScroll,
    Scroll,
    Sum,
    intersect,
    serre_dual,
)

divisors = st.builds(
    DivisorClass, st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20)
)
scrolls = st.builds(
    lambda a0, d: Scroll(a0, a0 + d),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=6),
)


@pytest.mark.parametrize("a0,a1", [(0, 1), (-1, 2), (2, 1), (0, 0), (3, 2)])
def test_invalid_scrolls_rejected(a0, a1):
    with pytest.raises(InvalidScroll):
        Scroll(a0, a1)
    with pytest.raises(InvalidScroll):
        Scroll(3, 3)._replace(a0=a0, a1=a1)


def test_invalid_scroll_message():
    with pytest.raises(InvalidScroll, match=r"invalid scroll S\(0,1\): need 0 < a0 <= a1"):
        Scroll(0, 1)


def test_basic_numerics(scroll):
    assert scroll.c == scroll.a0 + scroll.a1
    assert scroll.e == scroll.a1 - scroll.a0
    assert scroll.K == DivisorClass(-2, scroll.c - 2)
    # H^2 = c, H.f = 1, f^2 = 0
    assert intersect(HYPERPLANE, HYPERPLANE, scroll) == scroll.c
    assert intersect(HYPERPLANE, FIBRE, scroll) == 1
    assert intersect(FIBRE, FIBRE, scroll) == 0
    # the narrow section has self-intersection -e
    n = scroll.narrow_section()
    assert intersect(n, n, scroll) == -scroll.e
    # K^2 = 8 on any geometrically ruled surface over P^1
    assert intersect(scroll.K, scroll.K, scroll) == 8


def test_divisor_arithmetic():
    d = DivisorClass(2, -3)
    assert d + DivisorClass(1, 1) == DivisorClass(3, -2)
    assert d - DivisorClass(1, 1) == DivisorClass(1, -4)
    assert -d == DivisorClass(-2, 3)
    assert 3 * d == d * 3 == DivisorClass(6, -9)
    # the lattice's operations, not a tuple's concatenation or repetition
    e = DivisorClass(1, 1)
    assert all(type(v) is DivisorClass for v in (d + e, d - e, -d, d * 2, 2 * d))
    assert str(d) == "O(2,-3)"
    assert repr(d) == "DivisorClass(h=2, f=-3)"
    assert repr(Sum(((d, 2),))) == "Sum(terms=((DivisorClass(h=2, f=-3), 2),))"
    assert str(Scroll(1, 2)) == "S(1,2)"


@given(st.lists(divisors, max_size=8))
def test_divisor_class_is_its_pair(ds):
    # equal to, hashed as and sorted as the plain (h, f) tuple
    pairs = [(d.h, d.f) for d in ds]
    assert ds == pairs
    assert [hash(d) for d in ds] == [hash(p) for p in pairs]
    assert sorted(ds) == sorted(pairs)
    assert all(tuple(d) == (h, f) for d, (h, f) in zip(ds, pairs))


@given(scrolls, divisors, divisors)
def test_intersection_bilinear_symmetric(s, d1, d2):
    assert intersect(d1, d2, s) == intersect(d2, d1, s)
    assert intersect(d1 + d2, d1, s) == intersect(d1, d1, s) + intersect(d2, d1, s)


@given(scrolls, divisors)
def test_serre_dual_involution(s, d):
    assert serre_dual(serre_dual(d, s), s) == d
    assert serre_dual(d, s) == s.K - d


def test_restriction_degrees(scroll):
    d = DivisorClass(2, -1)
    # restriction to a fibre sees only the H coefficient
    assert intersect(d, FIBRE, scroll) == 2
    assert intersect(d, HYPERPLANE, scroll) == 2 * scroll.c - 1
    n = scroll.narrow_section()
    assert intersect(d, n, scroll) == 2 * scroll.a0 - 1
