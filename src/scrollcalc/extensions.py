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

`rank()`, `leaves()`, `sums()`, Ext's ==, hash and repr, and
`format_bundle` read a tree through `_pieces`, which walks it from an
explicit stack with no recursion, so its depth is bounded by memory
alone; `_compile` walks the nodes from a stack of its own, without
`_pieces`' text.  Consumers read the counted `terms` of the Sum nodes
that `sums()` yields; only `leaves()` expands multiplicities.

The interval kernel runs in two steps.  `_compile` turns a tree into a
post-order program over its distinct Sums, deduplicated by `terms`,
with the classes of a tree with an Ext node grouped by h-coefficient
(`cohomology.h_groups`, every occurrence counted); `_walk` runs that
program at a batch of twists.  The twists that are not forced (below)
take one call of the leaf reader, `cohomology._sum_values`, which
evaluates each distinct Sum once at each of them.  Every value, from
the reader and the forced test up to the root, has one shape: the
plain 7-tuple `_Value`, the fields of `IntervalCohom`.
`_batches` compiles once and walks BATCH_BOUND twists at a time; the
batch API `extension_cohomology_stream` and the CLI's `table` both read
it.  `extension_cohomology` compiles and walks for one twist.

In a tree with an Ext node, a twist where no class has h^1 is forced,
and `_walk` answers it as the direct sum without running the program
or reading a leaf: H^1 of every node is then 0 (it sits between H^1 of
its sub and quot), so each long exact sequence splits into
0 -> H^i(sub) -> H^i(E) -> H^i(quot) -> 0 for i = 0, 2, and every
member of the class has the direct sum's cohomology.  Whether a class
has h^1 is the closed form of `cohomology.h1_violating_h_twists`, and
without h^1 a class's h^0 or h^2 is its chi, so
`cohomology.h1_free_direct_sums` finds and answers forced twists from
the h-groups alone: one pass over the tree's distinct h-coefficients,
whatever the size of the coefficients.  Its list holds None at the
other twists, and `_walk` fills those places with the root's values,
in order.

Leaf values are read only at unforced twists, and checked once, by the
reader, against the `IntervalCohom` invariants of `_check_interval`
(0 <= lo_i <= hi_i, chi inside the alternating-sum range), which lives
beside it in `cohomology`, and with its message.  Being exact, a Sum
value fails them only through a negative entry.  What is built from
valid values needs no check: each clamped term above is at most the
matching child's hi; chi stays in range
because max(lo_0(quot) - hi_1(sub), 0) + max(lo_2(sub) - hi_1(quot), 0)
is at most lo_2(sub) + lo_0(quot), and lo_1 at most
lo_1(sub) + lo_1(quot).  A forced value (t0, t0, 0, 0, t2, t2, t0 + t2)
is valid by construction: its lo and hi agree and chi is their
alternating sum, and t0 and t2 are not negative, because each group's
term is, class by class, an h^0 or an h^2.  Without h^1, every degree
d of the P^1 data the class's cohomology is read from (the direct
image, or its dual in the duality branch) is at least -1, so that
h^0 or h^2 is the sum of d + 1 over them, which is chi and at least 0;
at h' = -1 the term is 0.  The API wraps values in `IntervalCohom`
without checking them again; an `IntervalCohom` built directly checks
its fields.

Every decision procedure in the package (regularity, splitting, ACM,
Ulrich, summand detection) asks whether finitely many h^i vanish, and
they all read the answer with one rule, `_judge`, over `Probe`s: FALSE
as soon as some probe has lo > 0, which refutes every member of the
class; otherwise TRUE when every hi is 0, which certifies every member;
otherwise INDETERMINATE, with the probes whose hi > 0.  `INDETERMINATE`
is an ordinary outcome, not an error.  There is one `_Evaluator` per
expression and scroll, kept on the expression by `_evaluator` and
living as long as it.  Every decision on it reads through one
primitive, `read`: the tree is compiled once, (name, twist, degree)
plan entries turn into probes in plan order, and the plan's twists not
walked before take one walk and are remembered, so no twist is walked
twice, within a decision or across decisions.  It also keeps the
tree's distinct classes, which `reg`'s bound and certificate and the
scans' violating intervals read instead of walking the tree again.  A
fixed plan, such as regularity's three probes, reg's three at r - 1 or
Ulrich's six, is one `read`; a lazy scan, `probes`, reads 1, 2, 4, ...
entries at a time, capped at BATCH_BOUND (256), and stopping at its
k-th probe has evaluated at most min(2k - 1, k + 255) entries.  Every
decision returns one record, `ProbeVerdict`, built at full arity with
`tuple.__new__`, past its NamedTuple's `__new__`, as probes are.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from itertools import filterfalse, islice
from operator import itemgetter
from typing import NamedTuple

from . import cohomology
from .cohomology import Sum, _Value, _frozen, line_cohomology
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
    """The record of every decision.  `witness` is the refuting probe of
    a FALSE verdict or the cause probe of a found summand, else None;
    `probes` are a fixed plan's probes (regularity always, Ulrich on
    TRUE or FALSE), a found summand's auxiliaries, or else the
    unresolved ones; `value` is a split's summands, as one Sum, or the
    summand found; `note` says why an INDETERMINATE has no probes."""

    verdict: Verdict
    witness: Probe | None = None
    probes: tuple[Probe, ...] = ()
    value: Sum | DivisorClass | None = None
    note: str = ""

    # the old names that perfbench/workloads.py reads; ROADMAP item 3b,
    # a benchmark PR, moves it to `verdict` and `value` and drops them
    outcome = property(itemgetter(0))
    summand = property(itemgetter(3))


class Ext:
    """The class of extensions 0 -> sub -> E -> quot -> 0.  Its ==, hash
    and repr read the tree from `_pieces`, so any depth compares, hashes
    and prints without recursion."""

    __setattr__ = __delattr__ = _frozen

    def __init__(self, sub: BundleExpr, quot: BundleExpr) -> None:
        self.__dict__.update(sub=sub, quot=quot)

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
    if type(b) is Sum:
        nonzero = b.terms
    else:
        b = as_bundle_expr(b)
        nonzero = any(node.terms for node in b.sums())
    if not nonzero:
        raise EmptyBundle(message)
    return b


class IntervalCohom(
    NamedTuple("IntervalCohom", [(name, int) for name in ("lo0", "hi0", "lo1", "hi1", "lo2", "hi2", "chi")])
):
    """Per-degree bounds lo_i <= h^i <= hi_i together with the exact chi."""

    __slots__ = ()
    # `_make`, and `_replace` through it, construct and so validate
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs) -> IntervalCohom:
        self = super().__new__(cls, *args, **kwargs)
        cohomology._check_interval(*self)
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


# a compiled tree: the terms of its distinct Sums, its nodes in
# post-order, each the index of a Sum or _COMBINE for an Ext node, and
# the `cohomology.h_groups` of its classes, counted over the whole tree
# (none for a lone Sum, which has no forced twists to find)
_Program = tuple[tuple[tuple[tuple[DivisorClass, int], ...], ...], tuple[int, ...], tuple[cohomology.HGroup, ...]]
_COMBINE = -1

_TWIST = itemgetter(1)  # of a (name, twist, degree) plan entry

# twists per walk, at most: `table` walks batches of this many, and a
# lazy scan's batches double up to it
BATCH_BOUND = 256


def _compile(b) -> _Program:
    """The post-order program of a bundle expression, built from an
    explicit stack of its nodes; Sums are deduplicated by `terms`, and
    in a tree with an Ext node their classes are grouped by h with every
    occurrence counted."""
    sums: list[tuple] = []
    counts: list[int] = []
    index: dict[tuple, int] = {}  # Sum terms -> position in sums
    ops: list[int] = []
    todo = [as_bundle_expr(b)]
    while todo:
        node = todo.pop()
        if node is None:  # the Ext node's sub and quot are done
            ops.append(_COMBINE)
        elif type(node) is Ext:
            todo += (None, node.quot, node.sub)
        else:
            i = index.setdefault(node.terms, len(sums))
            if i == len(sums):
                sums.append(node.terms)
                counts.append(0)
            counts[i] += 1
            ops.append(i)
    if len(ops) == 1:  # a lone Sum: its walk never looks for forced twists
        return tuple(sums), tuple(ops), ()
    counted = ((d, k * n) for terms, k in zip(sums, counts) for d, n in terms)
    return tuple(sums), tuple(ops), cohomology.h_groups(counted)


def _walk(s: Scroll, program: _Program, twists: Sequence[DivisorClass]) -> list[_Value]:
    """The interval kernel: one run of a compiled tree for a batch of twists.

    In a tree with an Ext node, a twist where no class has h^1 is
    forced: `cohomology.h1_free_direct_sums` gives the direct sum's value
    there from Riemann-Roch over the program's h-groups, reading no
    leaf, and None at the other twists.  Those take one call of the leaf
    reader, `cohomology._sum_values`: the exact value of each distinct
    Sum at each of them, checked there.  The program then runs, an Ext
    node combining its children twist by twist through the long exact
    sequence bounds, and the root's values fill the None places in
    order.  Every value is one plain `_Value` tuple
    (lo0, hi0, lo1, hi1, lo2, hi2, chi), and both steps keep the
    invariants (module docstring).
    """
    sums, ops, groups = program
    a0, a1 = s.a0, s.a1
    if len(ops) == 1:  # a lone Sum: no combine for the forced test to skip
        return cohomology._sum_values(a0, a1, sums, twists)
    out = cohomology.h1_free_direct_sums(a0, a1, groups, twists)
    unforced = [t for t, v in zip(twists, out) if v is None]
    if not unforced:
        return out
    flat = cohomology._sum_values(a0, a1, sums, unforced)
    m = len(sums)
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
    # the root's values fill the unforced positions, in order
    fill = iter(values[0])
    return [v or next(fill) for v in out]


def extension_cohomology(s: Scroll, b, twist: DivisorClass = ZERO) -> IntervalCohom:
    """Interval cohomology of a bundle expression twisted by `twist`:
    one walk of the kernel at one twist."""
    return tuple.__new__(IntervalCohom, _walk(s, _compile(b), (twist,))[0])


def _batches(s: Scroll, b, twists: Iterable[DivisorClass]) -> Iterator[tuple[tuple, list[_Value]]]:
    """Each batch of up to BATCH_BOUND of `twists`, in order and lazily,
    with its values from one walk of the tree compiled once."""
    program = _compile(b)
    twists = iter(twists)
    while batch := tuple(islice(twists, BATCH_BOUND)):
        yield batch, _walk(s, program, batch)


def extension_cohomology_stream(
    s: Scroll, b, twists: Iterable[DivisorClass]
) -> Iterator[tuple[DivisorClass, IntervalCohom]]:
    """Each of `twists` with the interval cohomology there, in order and
    lazily: the tree is compiled once and walked BATCH_BOUND twists at a
    time, so memory does not grow with the number of twists."""
    for batch, values in _batches(s, b, twists):
        for twist, v in zip(batch, values):
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
        # the tree's distinct line-bundle classes, in tree order
        self.classes = tuple(dict.fromkeys(d for terms in self.program[0] for d, _ in terms))
        self.values: dict[DivisorClass, _Value] = {}
        # f-offset -> splitting.violating_twists, read by every scan
        self.violations: dict[int, tuple[tuple[int, int], ...]] = {}

    def read(self, plan: Sequence[tuple[str, DivisorClass, int]]) -> tuple[Probe, ...]:
        """The (name, twist, degree) probes of a plan, in plan order.

        The plan's twists not walked before take one walk, together.
        """
        values = self.values
        # each twist once, in plan order
        new = tuple(dict.fromkeys(filterfalse(values.__contains__, map(_TWIST, plan))))
        if new:
            values.update(zip(new, _walk(self.s, self.program, new)))
        probes = []
        for name, tw, degree in plan:
            v = values[tw]
            probes.append(tuple.__new__(Probe, (name, tw, v[2 * degree], v[2 * degree + 1])))
        return tuple(probes)

    def classes_values(self, twists: Sequence[DivisorClass]) -> list[_Value]:
        """The exact value of the direct sum of `classes`, each once, at
        each of `twists`, h^i at places 2i and 2i + 1: one call of the
        leaf reader, no walk."""
        return cohomology._sum_values(self.s.a0, self.s.a1, (tuple((d, 1) for d in self.classes),), twists)

    def probes(self, plan: Iterable[tuple[str, DivisorClass, int]]) -> Iterator[Probe]:
        """The probes of a plan, lazily and in plan order: `read` over
        its first entry, then the next two, four, and so on up to
        BATCH_BOUND.  A reader that stops at the k-th probe has had at
        most min(2k - 1, k + BATCH_BOUND - 1) entries evaluated.
        """
        plan = iter(plan)
        batch = 1
        while entries := tuple(islice(plan, batch)):
            yield from self.read(entries)
            batch = min(2 * batch, BATCH_BOUND)


def _evaluator(s: Scroll, b: BundleExpr) -> _Evaluator:
    """The evaluator of b on s, made on first use and kept in b's own
    `__dict__`, keyed by the scroll: no global table, and the tree,
    whose hash walks every node, is never hashed."""
    try:
        return b._evaluators[s]
    except (AttributeError, KeyError):
        evaluator = b.__dict__.setdefault("_evaluators", {})[s] = _Evaluator(s, b)
        return evaluator


def _judge(probes: Iterable[Probe]) -> ProbeVerdict:
    """The vanishing rule of the module docstring.

    Probes are read lazily, so no probe after a refuting one is ever
    evaluated.
    """
    unresolved = []
    for pr in probes:
        if pr.lo > 0:
            return tuple.__new__(ProbeVerdict, (Verdict.FALSE, pr, (), None, ""))
        if pr.hi > 0:
            unresolved.append(pr)
    if unresolved:
        return tuple.__new__(ProbeVerdict, (Verdict.INDETERMINATE, None, tuple(unresolved), None, ""))
    return tuple.__new__(ProbeVerdict, (Verdict.TRUE, None, (), None, ""))


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
