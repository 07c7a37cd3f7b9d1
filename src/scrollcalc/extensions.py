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

`_compile`, `rank()`, `leaves()`, `sums()` and Ext's ==, hash and repr
read a tree through `_pieces`, which walks it from an explicit stack
with no recursion, so its depth is bounded by memory alone.  Consumers
read the counted `terms` of the Sum nodes that `sums()` yields; only
`leaves()` expands multiplicities.

The interval kernel runs in two steps.  `_compile` turns a tree into a
post-order program over its distinct Sums, deduplicated by `terms`;
`_walk` runs that program at a batch of twists: each distinct Sum is
evaluated once per twist, straight from the cached line cohomology of
its classes, and every node carries one value per twist that is not
forced (below).  `extension_cohomology_stream` is the batch API: it
compiles once and walks BATCH_BOUND twists at a time.
`extension_cohomology` compiles and walks for one twist.

In a tree with an Ext node, a twist where every distinct Sum has
h^1 = 0 is forced, and `_walk` answers it as the direct sum without
running the program: H^1 of every node is then 0 (it sits between H^1
of its sub and quot), so each long exact sequence splits into
0 -> H^i(sub) -> H^i(E) -> H^i(quot) -> 0 for i = 0, 2, and every
member of the class has the direct sum's cohomology.

Values are checked against the `IntervalCohom` invariants of
`_check_interval` (0 <= lo_i <= hi_i, chi inside the alternating-sum
range) once, at the leaves: each Sum value where it is summed.  Being
exact, it fails only through a negative entry.  What is built from
valid values needs no check: each clamped term above is at most the
matching child's hi; chi stays in range because
max(lo_0(quot) - hi_1(sub), 0) + max(lo_2(sub) - hi_1(quot), 0) is at
most lo_2(sub) + lo_0(quot), and lo_1 at most lo_1(sub) + lo_1(quot);
and a counts-weighted direct sum of valid exact values is valid.  The
API wraps values in `IntervalCohom` without checking them again; an
`IntervalCohom` built directly checks its fields.

Every decision procedure in the package (regularity, splitting, ACM,
Ulrich, summand detection) asks whether finitely many h^i vanish, and
they all read the answer with one rule, `_judge`, over `Probe`s: FALSE
as soon as some probe has lo > 0, which refutes every member of the
class; otherwise TRUE when every hi is 0, which certifies every member;
otherwise INDETERMINATE, with the probes whose hi > 0.  `INDETERMINATE`
is an ordinary outcome, not an error.  There is one `_Evaluator` per
expression and scroll, kept on the expression by `_evaluator` and
living as long as it.  Every decision on the expression reads through
it: the tree is compiled once, (name, twist, degree) plan entries turn
into probes in plan order, and each twist walked is remembered, so no
twist is walked twice, within a decision or across decisions.  A fixed
plan, such as regularity's three probes, reg's three or six or Ulrich's
six, is read in one walk at its twists not walked before.  A lazy scan
is read in batches of 1, 2, 4, ... entries, capped at BATCH_BOUND
(256), each batch one walk: a scan that stops at its k-th probe has
evaluated at most min(2k - 1, k + 255) entries.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice
from typing import NamedTuple

from . import cohomology
from .cohomology import Sum, _frozen, line_cohomology
from .errors import EmptyBundle
from .scroll import ZERO, DivisorClass, Scroll


class Verdict(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    INDETERMINATE = "indeterminate"


class Probe(NamedTuple):
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


class ProbeVerdict(NamedTuple):
    """A verdict read off probes: FALSE carries the refuting probe as its
    witness.  A fixed plan carries every probe it read (regularity
    always, Ulrich on TRUE or FALSE); a scan, and Ulrich on
    INDETERMINATE, carries the unresolved probes."""

    verdict: Verdict
    witness: Probe | None = None
    probes: tuple[Probe, ...] = ()


class Ext:
    """The class of extensions 0 -> sub -> E -> quot -> 0.  Its ==, hash
    and repr read the tree from `_pieces`, so any depth compares, hashes
    and prints without recursion."""

    __setattr__ = __delattr__ = _frozen

    def __init__(self, sub: BundleExpr, quot: BundleExpr) -> None:
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "quot", quot)

    def __eq__(self, other):
        if type(other) is not Ext:
            return NotImplemented
        return list(_pieces(self)) == list(_pieces(other))

    def __hash__(self) -> int:
        return hash(tuple(_pieces(self)))

    def __repr__(self) -> str:
        return "".join(p if isinstance(p, str) else repr(p) for p in _pieces(self))

    def rank(self) -> int:
        return sum(n for node in self.sums() for _, n in node.terms)

    def leaves(self) -> tuple[DivisorClass, ...]:
        return tuple(d for node in self.sums() for d in node.leaves())

    def sums(self) -> Iterator[Sum]:
        """The Sum nodes left to right."""
        return (p for p in _pieces(self) if isinstance(p, Sum))


BundleExpr = Sum | Ext


def _pieces(
    b: BundleExpr, opening: str = "Ext(sub=", middle: str = ", quot=", closing: str = ")"
) -> Iterator[str | Sum]:
    """The tree left to right as text and Sums: each Ext node as
    `opening`, its sub, `middle`, its quot and `closing`, walked from an
    explicit stack.  The defaults spell the repr."""
    todo: list[BundleExpr | str] = [b]
    while todo:
        node = todo.pop()
        if isinstance(node, Ext):
            todo += (closing, node.quot, middle, node.sub, opening)
        else:
            yield node


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


def _nonzero(b, message: str) -> BundleExpr:
    """The rank-0 guard of the decisions: b as a bundle expression, or
    EmptyBundle(message) when it has no line bundle at all."""
    b = as_bundle_expr(b)
    if not any(node.terms for node in b.sums()):
        raise EmptyBundle(message)
    return b


def _check_interval(lo0: int, hi0: int, lo1: int, hi1: int, lo2: int, hi2: int, chi: int) -> None:
    for i, lo, hi in ((0, lo0, hi0), (1, lo1, hi1), (2, lo2, hi2)):
        if not 0 <= lo <= hi:
            raise ValueError(f"degree {i}: need 0 <= lo <= hi")
    if not (lo0 - hi1 + lo2 <= chi <= hi0 - lo1 + hi2):
        raise ValueError("chi falls outside the interval alternating sum")


class IntervalCohom(
    NamedTuple("IntervalCohom", [(name, int) for name in ("lo0", "hi0", "lo1", "hi1", "lo2", "hi2", "chi")])
):
    """Per-degree bounds lo_i <= h^i <= hi_i together with the exact chi."""

    __slots__ = ()
    # `_make`, and `_replace` through it, construct and so validate
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs) -> IntervalCohom:
        self = super().__new__(cls, *args, **kwargs)
        _check_interval(*self)
        return self

    def lo(self, i: int) -> int:
        return self[2 * i] if 0 <= i <= 2 else 0

    def hi(self, i: int) -> int:
        return self[2 * i + 1] if 0 <= i <= 2 else 0

    @property
    def forced(self) -> bool:
        return all(self.lo(i) == self.hi(i) for i in range(3))

    def forced_at(self, i: int) -> bool:
        return self.lo(i) == self.hi(i)


_Value = tuple[int, int, int, int, int, int, int]  # (lo0, hi0, lo1, hi1, lo2, hi2, chi)

# a compiled tree: the terms of its distinct Sums, its nodes in
# post-order, each the index of a Sum or _COMBINE for an Ext node, and
# how often each distinct Sum occurs in the tree
_Program = tuple[tuple[tuple[tuple[DivisorClass, int], ...], ...], tuple[int, ...], tuple[int, ...]]
_COMBINE = -1

# twists per walk, at most: `table` walks batches of this many, and a
# lazy scan's batches double up to it
BATCH_BOUND = 256


def _compile(b) -> _Program:
    """The post-order program of a bundle expression, built from an
    explicit stack; Sums are deduplicated by `terms`."""
    sums: list[tuple] = []
    counts: list[int] = []
    index: dict[tuple, int] = {}  # Sum terms -> position in sums
    ops: list[int] = []
    for piece in _pieces(as_bundle_expr(b)):
        if isinstance(piece, Sum):
            i = index.setdefault(piece.terms, len(sums))
            if i == len(sums):
                sums.append(piece.terms)
                counts.append(0)
            counts[i] += 1
            ops.append(i)
        elif piece == ")":  # the Ext node's sub and quot are done
            ops.append(_COMBINE)
    return tuple(sums), tuple(ops), tuple(counts)


def _walk(s: Scroll, program: _Program, twists: Sequence[DivisorClass]) -> list[_Value]:
    """The interval kernel: one run of a compiled tree for a batch of twists.

    Each distinct Sum is evaluated exactly, once per twist, from the
    cached line cohomology of its classes, and checked there; forced
    twists take the direct sum.  The remaining twists run the program,
    every node carrying one plain (lo0, hi0, lo1, hi1, lo2, hi2, chi)
    tuple per twist: an Ext node combines its children twist by twist
    through the long exact sequence bounds.  Both steps keep the
    invariants (module docstring).  Values come back in the order of
    `twists`.
    """
    sums, ops, counts = program
    a0, a1 = s.a0, s.a1
    # looked up when the walk runs, so that a function put in the
    # module's place (the benchmark's oracles swap in the uncached one)
    # is the one called
    line = cohomology._line_cohomology
    m = len(sums)
    lone = len(ops) == 1  # no combine for the forced shortcut to skip
    # the exact value of each Sum, m to a twist, at each twist not forced
    flat = []
    forced = []  # (position in twists, direct-sum value)
    for th, tf in twists:
        h1s = 0  # nonzero once some Sum has h^1 > 0
        for terms in sums:
            h0 = h1 = h2 = 0
            for (h, f), n in terms:
                l0, l1, l2 = line(a0, a1, h + th, f + tf)
                h0 += n * l0
                h1 += n * l1
                h2 += n * l2
            # exact, so lo = hi and chi is the alternating sum
            v = (h0, h0, h1, h1, h2, h2, h0 - h1 + h2)
            if (h0 | h1 | h2) < 0:
                _check_interval(*v)
            h1s |= h1
            flat.append(v)
        if h1s or lone:
            continue
        t0 = t2 = 0
        for v, n in zip(flat[-m:], counts):
            t0 += n * v[0]
            t2 += n * v[4]
        del flat[-m:]
        # the twists before this one: those left in flat, and the forced
        forced.append((len(flat) // m + len(forced), (t0, t0, 0, 0, t2, t2, t0 + t2)))
    if not flat:
        return [v for _, v in forced]
    values: list[list[_Value]] = []
    for op in ops:
        if op != _COMBINE:
            values.append(flat[op::m])
            continue
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
            combined.append((lo0, sh0 + qh0, lo1, sh1 + qh1, lo2, sh2 + qh2, schi + qchi))
        values.append(combined)
    out = values[0]
    # in increasing position, so each lands where it belongs
    for k, v in forced:
        out.insert(k, v)
    return out


def extension_cohomology(s: Scroll, b, twist: DivisorClass = ZERO) -> IntervalCohom:
    """Interval cohomology of a bundle expression twisted by `twist`:
    one walk of the kernel at one twist."""
    return tuple.__new__(IntervalCohom, _walk(s, _compile(b), (twist,))[0])


def extension_cohomology_stream(
    s: Scroll, b, twists: Iterable[DivisorClass]
) -> Iterator[tuple[DivisorClass, IntervalCohom]]:
    """Each of `twists` with the interval cohomology there, in order and
    lazily: the tree is compiled once and walked BATCH_BOUND twists at a
    time, so memory does not grow with the number of twists."""
    program = _compile(b)
    twists = iter(twists)
    while batch := tuple(islice(twists, BATCH_BOUND)):
        for twist, v in zip(batch, _walk(s, program, batch)):
            yield twist, tuple.__new__(IntervalCohom, v)


class _Evaluator:
    """A bundle expression compiled once for one scroll, with the value
    of every twist it has walked, so no twist is walked twice.

    There is one per expression and scroll (see `_evaluator`), and it
    lives as long as the expression.  Its memo holds one value per twist
    the decisions on it walked, so it is bounded by the scans their
    verdicts already hold: an INDETERMINATE verdict carries every
    unresolved probe, and a FALSE one stopped within
    min(2k - 1, k + 255) entries of its k-th probe.
    """

    def __init__(self, s: Scroll, b):
        self.s = s
        self.program = _compile(b)
        self.values: dict[DivisorClass, _Value] = {}
        # f-offset -> splitting.violating_twists, read by every scan
        self.violations: dict[int, tuple[tuple[int, int], ...]] = {}

    def probes(self, plan: Iterable[tuple[str, DivisorClass, int]], batch: int = 1) -> Iterator[Probe]:
        """The (name, twist, degree) probes of a plan, lazily and in plan order.

        The plan is read `batch` entries at a time, then twice as many,
        and so on up to BATCH_BOUND, and the twists of a batch not walked
        before take one walk.  From the default first batch of one, a
        reader that stops at the k-th probe has had at most
        min(2k - 1, k + BATCH_BOUND - 1) entries evaluated.
        """
        plan = iter(plan)
        values = self.values
        while entries := tuple(islice(plan, batch)):
            new = tuple(dict.fromkeys(tw for _, tw, _ in entries if tw not in values))
            if new:
                values.update(zip(new, _walk(self.s, self.program, new)))
            for name, tw, degree in entries:
                v = values[tw]
                yield Probe(name, tw, v[2 * degree], v[2 * degree + 1])
            batch = min(2 * batch, BATCH_BOUND)

    def read(self, plan: Iterable[tuple[str, DivisorClass, int]]) -> tuple[Probe, ...]:
        """Every probe of a fixed plan, from at most one walk."""
        plan = tuple(plan)
        return tuple(self.probes(plan, len(plan)))


def _evaluator(s: Scroll, b) -> _Evaluator:
    """The evaluator of b on s, made on first use and kept in b's own
    `__dict__` by (a0, a1): no global table, and the tree, whose hash
    walks every node, is never hashed."""
    b = as_bundle_expr(b)
    evaluators = b.__dict__.setdefault("_evaluators", {})
    key = (s.a0, s.a1)
    if key not in evaluators:
        evaluators[key] = _Evaluator(s, b)
    return evaluators[key]


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
    the Sum nodes are walked left to right and each leaf q of one is
    checked against the leaves t of the Sums before it.

    Ext^1(O(q), O(t)) = h^1(O(t - q)), and with g(x) = x.h*a0 + x.f the
    closed form of `h1_violating_h_twists` says it is nonzero iff

    * t.h >= q.h and g(t) <= g(q) - 2, or
    * t.h <= q.h - 2 and g(t) - g(q) >= c - 2*a0.

    So each q asks for the least g(t) over t.h >= q.h and the greatest
    over t.h <= q.h - 2: a suffix-min and a prefix-max Fenwick tree over
    the ranks of the leaves' h answer both in O(log n).
    """
    nodes = [[(d.h, d.h * s.a0 + d.f) for d, _ in node.terms] for node in b.sums()]
    hs = sorted({h for leaves in nodes for h, _ in leaves})
    n, gap = len(hs), s.c - 2 * s.a0
    # least[i]: least g over a block of ranks counted from the top;
    # greatest[i]: greatest g over a block counted from the bottom
    least = [float("inf")] * (n + 1)
    greatest = [float("-inf")] * (n + 1)
    for leaves in nodes:
        for h, g in leaves:
            i = n - bisect_left(hs, h)  # the ranks with t.h >= h
            while i:
                if least[i] <= g - 2:
                    return False
                i &= i - 1
            i = bisect_right(hs, h - 2)  # the ranks with t.h <= h - 2
            while i:
                if greatest[i] >= g + gap:
                    return False
                i &= i - 1
        for h, g in leaves:
            rank = bisect_left(hs, h)
            i = n - rank
            while i <= n:
                least[i] = min(least[i], g)
                i += i & -i
            i = rank + 1
            while i <= n:
                greatest[i] = max(greatest[i], g)
                i += i & -i
    return True
