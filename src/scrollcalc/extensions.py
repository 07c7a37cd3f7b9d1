"""Bundles presented as iterated extensions of line-bundle sums.

A bundle expression, `BundleExpr = Sum | Ext`, is a tree: its leaves
are `Sum` nodes of counted line-bundle classes (from the cohomology
module), and its inner nodes are extensions.  An `Ext(sub, quot)` node
stands for the whole class of bundles E sitting in
0 -> sub -> E -> quot -> 0, with no genericity assumption on the
extension class.  Cohomology of such a node is therefore interval
valued: the long exact sequence gives

    hi_i = hi_i(sub) + hi_i(quot)
    lo_i = max(lo_i(sub) - hi_{i-1}(quot), 0)
         + max(lo_i(quot) - hi_{i+1}(sub), 0)

per degree (out-of-range degrees count as zero).  The two clamped terms
bound the image of H^i(sub) and the part surjecting onto H^i(quot)
separately, so in particular a degree is forced exact whenever both
flanking groups vanish.  Euler characteristics are exact and additive
regardless of the class.

The interval kernel `_walk`, `rank()`, `leaves()` and `sums()` walk a
tree iteratively, with an explicit stack and no recursion, so its depth
is bounded by memory alone.  Consumers read the counted `terms` of the
Sum nodes that `sums()` yields; only `leaves()` expands multiplicities.

The kernel evaluates a batch of twists in one post-order walk: every
node carries one value per twist, and each distinct Sum of the tree is
evaluated once per walk, at all the twists together.
`extension_cohomology_batch` is its entry point and
`extension_cohomology` its one-twist call.  Every node at every twist,
not just the root, is still checked against the `IntervalCohom`
invariants of `_check_interval` (0 <= lo_i <= hi_i, chi inside the
alternating-sum range), and a failure raises through it.

Every decision procedure in the package (regularity, splitting, ACM,
Ulrich, summand detection) asks whether finitely many h^i vanish, and
they all read the answer with one rule, `_judge`, over `Probe`s: FALSE
as soon as some probe has lo > 0, which refutes every member of the
class; otherwise TRUE when every hi is 0, which certifies every member;
otherwise INDETERMINATE, with the probes whose hi > 0.  `INDETERMINATE`
is an ordinary outcome, not an error.  A fixed probe plan, such as
regularity's three probes or Ulrich's six, is read by `_probes` from one
walk at the plan's twists; a lazy scan builds its probes one twist at a
time with `_probe`, so it walks no twist past a refuting one.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .cohomology import Sum, line_cohomology, sum_cohomology_batch
from .scroll import ZERO, DivisorClass, Scroll


class Verdict(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Probe:
    """One evaluated cohomology test: a named twist with an [lo, hi] value."""

    name: str
    twist: DivisorClass
    lo: int
    hi: int

    @property
    def forced(self) -> bool:
        return self.lo == self.hi

    def describe(self) -> str:
        value = str(self.lo) if self.forced else f"[{self.lo},{self.hi}]"
        return f"{self.name} at twist {self.twist} = {value}"


@dataclass(frozen=True)
class ProbeVerdict:
    """A verdict read off probes: FALSE carries the refuting probe as its
    witness, INDETERMINATE the unresolved probes."""

    verdict: Verdict
    witness: Probe | None = None
    probes: tuple[Probe, ...] = ()


@dataclass(frozen=True)
class Ext:
    sub: BundleExpr
    quot: BundleExpr

    def rank(self) -> int:
        return sum(n for node in self.sums() for _, n in node.terms)

    def leaves(self) -> tuple[DivisorClass, ...]:
        return tuple(d for node in self.sums() for d in node.leaves())

    def sums(self) -> Iterator[Sum]:
        """The Sum nodes left to right, walked from an explicit stack."""
        todo: list[BundleExpr] = [self]
        while todo:
            node = todo.pop()
            if isinstance(node, Ext):
                todo += (node.quot, node.sub)
            else:
                yield node


BundleExpr = Sum | Ext


def line_bundle(h: int, f: int) -> Sum:
    return Sum(((DivisorClass(h, f), 1),))


def bundle_sum(*divisors: DivisorClass) -> Sum:
    return Sum(tuple((d, 1) for d in divisors))


def as_bundle_expr(x) -> BundleExpr:
    """Coerce a DivisorClass into a one-term Sum; pass expressions through."""
    if isinstance(x, BundleExpr):
        return x
    if isinstance(x, DivisorClass):
        return Sum(((x, 1),))
    raise TypeError(f"cannot interpret {x!r} as a bundle expression")


def _check_interval(lo0: int, hi0: int, lo1: int, hi1: int, lo2: int, hi2: int, chi: int) -> None:
    for i, lo, hi in ((0, lo0, hi0), (1, lo1, hi1), (2, lo2, hi2)):
        if not 0 <= lo <= hi:
            raise ValueError(f"degree {i}: need 0 <= lo <= hi")
    if not (lo0 - hi1 + lo2 <= chi <= hi0 - lo1 + hi2):
        raise ValueError("chi falls outside the interval alternating sum")


@dataclass(frozen=True)
class IntervalCohom:
    """Per-degree bounds lo_i <= h^i <= hi_i together with the exact chi."""

    lo0: int
    hi0: int
    lo1: int
    hi1: int
    lo2: int
    hi2: int
    chi: int

    def __post_init__(self) -> None:
        _check_interval(self.lo0, self.hi0, self.lo1, self.hi1, self.lo2, self.hi2, self.chi)

    @classmethod
    def exact(cls, h0: int, h1: int, h2: int) -> "IntervalCohom":
        return cls(h0, h0, h1, h1, h2, h2, h0 - h1 + h2)

    def lo(self, i: int) -> int:
        return (self.lo0, self.lo1, self.lo2)[i] if 0 <= i <= 2 else 0

    def hi(self, i: int) -> int:
        return (self.hi0, self.hi1, self.hi2)[i] if 0 <= i <= 2 else 0

    @property
    def forced(self) -> bool:
        return all(self.lo(i) == self.hi(i) for i in range(3))

    def forced_at(self, i: int) -> bool:
        return self.lo(i) == self.hi(i)

    def as_record_tuple(self) -> tuple[int, int, int]:
        """The exact dimensions; only meaningful when forced."""
        if not self.forced:
            raise ValueError("interval is not forced; no exact record exists")
        return (self.lo0, self.lo1, self.lo2)


_Value = tuple[int, int, int, int, int, int, int]  # (lo0, hi0, lo1, hi1, lo2, hi2, chi)


def _walk(s: Scroll, b, twists: Sequence[DivisorClass]) -> list[_Value]:
    """The interval kernel: one post-order walk for a batch of twists.

    Every node carries one value per twist, a plain (lo0, hi0, lo1, hi1,
    lo2, hi2, chi) tuple.  A Sum is evaluated exactly, once per distinct
    `terms` within the walk; an Ext node combines its children twist by
    twist through the long exact sequence bounds of the module
    docstring, and each combined value must pass `_check_interval`.
    """
    todo: list[BundleExpr | None] = [as_bundle_expr(b)]  # None: combine the top two values
    values: list[list[_Value]] = []
    exact: dict[tuple, list[_Value]] = {}  # Sum terms -> its values; shared, never mutated
    while todo:
        node = todo.pop()
        if node is None:
            quots = values.pop()
            subs = values.pop()
            combined = []
            for (sl0, sh0, sl1, sh1, sl2, sh2, schi), (ql0, qh0, ql1, qh1, ql2, qh2, qchi) in zip(subs, quots):
                # the bounds of the module docstring, with each max(x, 0)
                # written as a conditional
                lo0 = ql0 - sh1
                lo0 = sl0 + lo0 if lo0 > 0 else sl0
                lo1 = sl1 - qh0
                lo1b = ql1 - sh2
                lo1 = (lo1 if lo1 > 0 else 0) + (lo1b if lo1b > 0 else 0)
                lo2 = sl2 - qh1
                lo2 = lo2 + ql2 if lo2 > 0 else ql2
                hi0, hi1, hi2, chi = sh0 + qh0, sh1 + qh1, sh2 + qh2, schi + qchi
                # the condition of _check_interval, inlined; a failure
                # raises through it, with its message
                if not (
                    0 <= lo0 <= hi0
                    and 0 <= lo1 <= hi1
                    and 0 <= lo2 <= hi2
                    and lo0 - hi1 + lo2 <= chi <= hi0 - lo1 + hi2
                ):
                    _check_interval(lo0, hi0, lo1, hi1, lo2, hi2, chi)
                combined.append((lo0, hi0, lo1, hi1, lo2, hi2, chi))
            values.append(combined)
        elif isinstance(node, Sum):
            leaf = exact.get(node.terms)
            if leaf is None:
                # exact, so lo = hi and chi is the alternating sum; the
                # batch has already checked h^i >= 0
                leaf = exact[node.terms] = [
                    (h0, h0, h1, h1, h2, h2, h0 - h1 + h2) for h0, h1, h2 in sum_cohomology_batch(s, node, twists)
                ]
            values.append(leaf)
        else:
            todo += (None, node.quot, node.sub)
    return values[0]


def extension_cohomology_batch(s: Scroll, b, twists: Iterable[DivisorClass]) -> list[IntervalCohom]:
    """Interval cohomology of a bundle expression at each of `twists`,
    in order, from one walk of the tree."""
    return [IntervalCohom(*v) for v in _walk(s, b, tuple(twists))]


def extension_cohomology(s: Scroll, b, twist: DivisorClass = ZERO) -> IntervalCohom:
    """Interval cohomology of a bundle expression twisted by `twist`:
    the one-twist walk of the batch kernel."""
    return IntervalCohom(*_walk(s, b, (twist,))[0])


def _probe(s: Scroll, b, name: str, twist: DivisorClass, degree: int) -> Probe:
    """The interval of h^degree(b(twist)), as a named probe."""
    iv = extension_cohomology(s, b, twist)
    return Probe(name, twist, iv.lo(degree), iv.hi(degree))


def _probes(s: Scroll, b, plan: Iterable[tuple[str, DivisorClass, int]]) -> tuple[Probe, ...]:
    """Every (name, twist, degree) probe of a plan, from one walk over
    the plan's distinct twists."""
    plan = tuple(plan)
    twists = tuple(dict.fromkeys(tw for _, tw, _ in plan))
    at = dict(zip(twists, extension_cohomology_batch(s, b, twists)))
    return tuple(Probe(name, tw, at[tw].lo(degree), at[tw].hi(degree)) for name, tw, degree in plan)


def _judge(probes: Iterable[Probe]) -> ProbeVerdict:
    """The vanishing rule of the module docstring.

    Probes are read lazily, so no probe after a refuting one is ever
    evaluated.
    """
    unresolved = []
    for pr in probes:
        if pr.lo > 0:
            return ProbeVerdict(Verdict.FALSE, witness=pr)
        if pr.hi > 0:
            unresolved.append(pr)
    if unresolved:
        return ProbeVerdict(Verdict.INDETERMINATE, probes=tuple(unresolved))
    return ProbeVerdict(Verdict.TRUE)


def ext1_dim(s: Scroll, from_: DivisorClass, to: DivisorClass) -> int:
    """dim Ext^1(O(from_), O(to)) = h^1(O(to - from_))."""
    return line_cohomology(s, to - from_).h1


def forced_split(s: Scroll, b: BundleExpr) -> bool:
    """True when every extension class in the expression must vanish.

    Checked leafwise: if Ext^1 between each quotient leaf and each sub
    leaf is zero at every Ext node, the only member of the class is the
    direct sum of the leaves.  Two leaves of different Sum nodes meet at
    exactly one Ext node, with the leaf further left on its sub side, so
    the Sum nodes are walked left to right and each distinct leaf of one
    is checked against each distinct leaf of the Sums before it.
    """
    earlier: set[DivisorClass] = set()
    for node in b.sums():
        here = {d for d, _ in node.terms}
        if any(ext1_dim(s, q, t) for q in here for t in earlier):
            return False
        earlier |= here
    return True
