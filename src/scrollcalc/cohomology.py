"""Exact cohomology of line bundles and their direct sums on a scroll.

Every computation reduces to the base P^1 through three branches:

* h-coefficient >= 0: push forward along the ruling and read cohomology
  off the Sym decomposition,
* h-coefficient = -1: the bundle has no cohomology at all,
* h-coefficient <= -2: relative duality sends O(aH+bf) to the case
  Sym^(-a-2) twisted by c-b-2, with the outer degrees swapped.

The route builds every degree of the Sym power, so its time and memory
are still linear in the h-coefficient.

The degree swap in the last branch (X-degree i reads off P^1-degree 2-i)
lives in the cached `_line_cohomology`.  Its cache holds plain
(h0, h1, h2) tuples, and `line_cohomology` alone wraps one in a
`CohomRecord`.  Every other caller reads it through one batched reader,
`_sum_values`, the value of each of a list of Sums at each of a list of
twists: `sum_cohomology` is its one-twist call, the Ext kernel calls it
once per walk, and `reg` checks its certificate with it.  Where no
class of an Ext tree has h^1, the kernel reads no leaf: it takes the
direct sum from Riemann-Roch over the tree's `h_groups`, with
`h1_free_direct_sums`, in time independent of the coefficients.  Both
give the kernel's one value shape, `_Value`, exact here:
(h0, h0, h1, h1, h2, h2, chi).  `_check_interval` is the one check of
those values and of every `IntervalCohom`.

A direct sum of line bundles is a `Sum`: counted classes, the leaf
node of the bundle trees in the extensions module.  Its cohomology is
additive, so `_sum_values` and `restricted_cohomology` weight each
distinct class by its count and never expand a multiplicity.

The closed forms sit together at the end of the module: `euler_rr`, an
independent oracle that computes the Euler characteristic from the
intersection form alone, chi(D) = 1 + D.(D-K)/2, and never touches the
direct-image route (the test suite insists the two agree before
anything downstream is trusted); `h1_violating_h_twists`, where h^1 is
nonzero; `line_bundle_reg` and `gg_region`, the regular and globally
generated regions of a line bundle; the h-group terms that answer
h^1-free twists of a tree from both; and `p1_line_cohomology`, the
one-line formula on P^1 behind `restricted_cohomology`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

from .errors import NegativeCount, OddIntersection, UnsupportedCurveClass
from .p1 import p1_cohomology, sym_decompose
from .scroll import ZERO, DivisorClass, Scroll, intersect


def _frozen(self, name: str, value=None):
    """`__setattr__` and `__delattr__` of the hand-written records below
    and `Ext`: each field is set once, by `__init__`."""
    raise AttributeError(f"cannot assign to field {name!r}")


class CohomRecord:
    """Exact dimensions (h^0, h^1, h^2); chi is derived, never stored."""

    __slots__ = ("h0", "h1", "h2")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, h0: int, h1: int, h2: int) -> None:
        if min(h0, h1, h2) < 0:
            raise ValueError("cohomology dimensions must be nonnegative")
        for name, value in zip(self.__slots__, (h0, h1, h2)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self.as_tuple() == other.as_tuple() if type(other) is CohomRecord else NotImplemented

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"CohomRecord(h0={self.h0!r}, h1={self.h1!r}, h2={self.h2!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by assigning slots
        return CohomRecord, self.as_tuple()

    @property
    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)


class Sum:
    """A direct sum of line bundles, stored as counted classes.

    `terms` holds (DivisorClass, count) pairs sorted by class, with equal
    classes merged and zero counts dropped, so a multiplicity costs O(1)
    however large it is; `leaves()` alone expands it.
    """

    __setattr__ = __delattr__ = _frozen

    def __init__(self, terms: tuple[tuple[DivisorClass, int], ...] = ()) -> None:
        if type(terms) is tuple and len(terms) == 1 and type(terms[0][1]) is int and terms[0][1] > 0:
            ((d, n),) = terms  # one positive count: sorted, merged and nonzero
            terms = ((d, n),)
        else:
            counts: dict[DivisorClass, int] = {}
            for d, n in terms:
                if n < 0:
                    raise NegativeCount(f"a direct sum cannot hold {n} copies of {d}")
                counts[d] = counts.get(d, 0) + n
            terms = tuple(sorted((d, n) for d, n in counts.items() if n))
        self.__dict__["terms"] = terms

    def __eq__(self, other):
        return self.terms == other.terms if type(other) is Sum else NotImplemented

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"Sum(terms={self.terms!r})"

    def rank(self) -> int:
        return sum(n for _, n in self.terms)

    def leaves(self) -> tuple[DivisorClass, ...]:
        return tuple(d for d, n in self.terms for _ in range(n))

    def c1(self) -> DivisorClass:
        out = ZERO
        for d, n in self.terms:
            out = out + n * d
        return out

    def sums(self) -> tuple[Sum]:
        """The Sum nodes of the expression: just this one."""
        return (self,)


@lru_cache(maxsize=None)
def _line_cohomology(a0: int, a1: int, h: int, f: int) -> tuple[int, int, int]:
    s = Scroll(a0, a1)
    if h >= 0:
        p0, p1 = p1_cohomology(sym_decompose(s, h, f))
        return (p0, p1, 0)
    if h == -1:
        return (0, 0, 0)
    # duality branch: X-degree i equals P^1-degree 2-i of the dual data
    p0, p1 = p1_cohomology(sym_decompose(s, -h - 2, s.c - f - 2))
    return (0, p1, p0)


def line_cohomology(s: Scroll, d: DivisorClass) -> CohomRecord:
    """Exact (h^0, h^1, h^2) of O(d.h H + d.f f) on the scroll."""
    return CohomRecord(*_line_cohomology(s.a0, s.a1, d.h, d.f))


# the Ext kernel's one value shape, from the leaf reader to the root
_Value = tuple[int, int, int, int, int, int, int]  # (lo0, hi0, lo1, hi1, lo2, hi2, chi)


def _check_interval(lo0: int, hi0: int, lo1: int, hi1: int, lo2: int, hi2: int, chi: int) -> None:
    """0 <= lo_i <= hi_i and chi inside the alternating-sum range."""
    for i, lo, hi in ((0, lo0, hi0), (1, lo1, hi1), (2, lo2, hi2)):
        if not 0 <= lo <= hi:
            raise ValueError(f"degree {i}: need 0 <= lo <= hi")
    if not (lo0 - hi1 + lo2 <= chi <= hi0 - lo1 + hi2):
        raise ValueError("chi falls outside the interval alternating sum")


def _sum_values(
    a0: int, a1: int, sums: Sequence[tuple], twists: Iterable[tuple[int, int]]
) -> list[_Value]:
    """The exact (h0, h0, h1, h1, h2, h2, chi) of each of `sums`
    (`Sum.terms`) twisted by each (th, tf) of `twists`, twist-major.  It
    looks `_line_cohomology` up when it runs, so a function put in its
    place (the benchmark's oracles swap in the uncached one) is the one
    called; a negative entry, which only such a function gives, fails
    `_check_interval`, and only such a value is checked."""
    line = _line_cohomology
    out = []
    for th, tf in twists:
        for terms in sums:
            h0 = h1 = h2 = 0
            for (h, f), n in terms:
                l0, l1, l2 = line(a0, a1, h + th, f + tf)
                h0 += n * l0
                h1 += n * l1
                h2 += n * l2
            if (h0 | h1 | h2) < 0:
                _check_interval(h0, h0, h1, h1, h2, h2, h0 - h1 + h2)
            out.append((h0, h0, h1, h1, h2, h2, h0 - h1 + h2))
    return out


def sum_cohomology(s: Scroll, b: Sum, twist: DivisorClass = ZERO) -> CohomRecord:
    """Cohomology of a twisted direct sum: n*h^i per distinct class, h^i
    at place 2i of the reader's value."""
    return CohomRecord(*_sum_values(s.a0, s.a1, (b.terms,), (twist,))[0][:5:2])


def euler_rr(s: Scroll, d: DivisorClass) -> int:
    """chi(O(d)) = 1 + d.(d - K)/2, straight from the intersection form."""
    # D.(D - K) by `scroll.intersect`'s form, with D - K = (h + 2)H + (f - c + 2)f
    h, f = d
    c = s.a0 + s.a1
    prod = h * (h + 2) * c + h * (f - c + 2) + f * (h + 2)
    if prod % 2:
        # adjunction forces D.(D-K) even; reaching here means the lattice
        # data is corrupt, not that the input is unusual
        raise OddIntersection(f"D.(D-K) = {prod} is odd for D = {d} on {s}")
    return 1 + prod // 2


def h1_violating_h_twists(s: Scroll, d: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """Closed intervals of t with h^1(O((h + t)H + f f)) != 0, where
    d = (h, f) is a class or a plain pair.

    Only the minimal degree in the direct image matters, so h^1(O(hH+ff))
    is nonzero exactly when

    * h >= 0 and h*a0 + f <= -2, or
    * h <= -2 and f >= (-h - 2)*a0 + c;

    never for h = -1.  The first needs f <= -2 and the second f >= c, so
    at most one finite interval comes out, and conditions of the shape
    "h^1 vanishes for every twist t" reduce to finitely many checks.
    """
    h, f = d
    a0 = s.a0
    if f <= -2:
        return ((-h, (-2 - f) // a0 - h),)
    c = a0 + s.a1
    if f >= c:
        return ((-h - 2 - (f - c) // a0, -h - 2),)
    return ()


def line_bundle_reg(s: Scroll, d: DivisorClass) -> int:
    """Reg of a single line bundle in closed form: the least p with
    O(d + pH) regular, that is in the region a >= 0, b >= -a*a0."""
    # ceil(-b/a0) written with floor division
    return max(-d.h, -(d.f // s.a0) - d.h)


def gg_region(s: Scroll, d: DivisorClass) -> bool:
    """Global generation region: a >= 0 and a*a0 + b >= 0.

    Equivalently every degree in the direct image on P^1 is >= 0.
    """
    return d.h >= 0 and d.h * s.a0 + d.f >= 0


# the counted classes of one h-coefficient: (h, N, NF, fmin, fmax), with
# N the sum of the counts and NF the sum of count * f
HGroup = tuple[int, int, int, int, int]


def h_groups(counted: Iterable[tuple[DivisorClass, int]]) -> tuple[HGroup, ...]:
    """The counted classes grouped by h-coefficient, one `HGroup` per
    distinct h.  The groups with the most extreme f come first, since
    they are the likeliest to have h^1 at a twist."""
    groups: dict[int, list[int]] = {}
    for (h, f), n in counted:
        g = groups.get(h)
        if g is None:
            groups[h] = [n, n * f, f, f]
        else:
            g[0] += n
            g[1] += n * f
            if f < g[2]:
                g[2] = f
            elif f > g[3]:
                g[3] = f
    return tuple(sorted(((h, *g) for h, g in groups.items()), key=lambda g: (-max(-g[3], g[4]), g[0])))


def h1_free_direct_sums(
    a0: int, a1: int, groups: tuple[HGroup, ...], twists: Iterable[tuple[int, int]]
) -> list[_Value | None]:
    """Per twist (th, tf) of `twists`, in order: the exact value
    (h0, h0, 0, 0, h2, h2, h0 + h2) of the direct sum of the grouped
    classes twisted by O(th H + tf f) when no class has h^1 there, else
    None.

    With h' = h + th, a class of a group has h^1 exactly when
    `h1_violating_h_twists` says so:

    * h' >= 0 and h'*a0 + f + tf <= -2, or
    * h' <= -2 and h'*a0 + f + tf >= c - 2*a0 = a1 - a0,

    so the group's least f decides the first and its greatest the
    second.  Without h^1 each class has h^0 = chi when h' >= 0, h^2 = chi
    when h' <= -2 and no cohomology when h' = -1, and chi(O(hH + ff)) =
    (h+1)(f+1) + c*h(h+1)/2 (`euler_rr`) summed over a group is
    (h'+1)(NF + (tf+1)N) + c*N*h'(h'+1)/2, which is 0 at h' = -1.  The
    cost is one pass over the groups per twist, whatever the
    coefficients.
    """
    c = a0 + a1
    e = a1 - a0
    out: list[_Value | None] = []
    for th, tf in twists:
        for h, _, _, fmin, fmax in groups:
            h += th
            if h >= 0:
                if h * a0 + fmin + tf <= -2:
                    out.append(None)
                    break
            elif h <= -2 and h * a0 + fmax + tf >= e:
                out.append(None)
                break
        else:
            h0 = h2 = 0
            for h, n, nf, _, _ in groups:
                h += th
                chi = (h + 1) * (nf + (tf + 1) * n) + c * n * (h * (h + 1) // 2)
                if h >= 0:
                    h0 += chi
                else:  # chi = 0 at h' = -1
                    h2 += chi
            out.append((h0, h0, 0, 0, h2, h2, h0 + h2))
    return out


def p1_line_cohomology(d: int) -> tuple[int, int]:
    """(h^0, h^1) of O(d) on P^1."""
    return max(d + 1, 0), max(-d - 1, 0)


def restricted_cohomology(
    s: Scroll, b: Sum, curve: DivisorClass, twist: DivisorClass = ZERO
) -> tuple[int, int]:
    """(h^0, h^1) of (b (x) twist) restricted to a rational curve on s.

    Supported curve classes: the fibre (0,1), the hyperplane section
    (1,0) and the narrow section (1,-a1).  All three are smooth rational,
    so the restriction is a sum of line bundles on P^1 with degrees given
    by the intersection pairing: O(d)|_C has degree d.C.
    """
    allowed = (DivisorClass(0, 1), DivisorClass(1, 0), DivisorClass(1, -s.a1))
    if curve not in allowed:
        raise UnsupportedCurveClass(
            f"restriction to {curve} is not supported on {s}; "
            f"choose one of {', '.join(str(a) for a in allowed)}"
        )
    h0 = h1 = 0
    for d, n in b.terms:
        p0, p1 = p1_line_cohomology(intersect(d + twist, curve, s))
        h0 += n * p0
        h1 += n * p1
    return (h0, h1)
