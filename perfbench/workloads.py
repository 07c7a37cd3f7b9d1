"""Seeded inputs, queries and oracles of the three benchmark workloads.

Every workload is a stream of query blocks drawn from `--seed`.  A block
is a stratified design: the sizes that drive cost (coefficient decade,
Ext node count, twist-rectangle size) and the query shapes are laid out
by stratum index.  The seed draws coefficient magnitudes inside their
strata, every other coefficient, the scrolls and the order; Ext and
rectangle sizes sit at the centres of their strata.  Every seed
therefore gets different inputs with the same cost mix, which keeps
medians and percentiles comparable across seeds.  A run processes whole
blocks.

`run_*` functions call the library through its public API and nothing
else; they are what the benchmark times.  `check_*` functions are the
oracles: they compare a query's output with values derived from the
generator's own record of the input (its leaf multiset), from the
intersection form, from the harness's structural characterisations and
brute-force scans, or from the direct-sum member of an extension class.
Oracles run outside the timed region and under `uncached()`.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import random
import time
from collections import Counter
from dataclasses import dataclass

import scrollcalc as sc
from scrollcalc import cli, cohomology
from scrollcalc import harness

Leaf = tuple[int, int]

# Exit codes cli.main may end in: computed, usage/parse error, domain error.
CLI_CLEAN_EXITS = (0, 2, 3)
ROBUSTNESS_DEPTH = 1200


@dataclass(frozen=True)
class Query:
    """One generated input.  `leaves` is the generator's own multiset."""

    scroll: tuple[int, int]
    spec: str
    leaves: tuple[Leaf, ...]
    depth: int = 0
    size: int = 0  # big-coeff: largest |coefficient|
    twists: tuple[int, int, int, int] = (0, 0, 0, 0)  # ext-sweep: hlo, hhi, flo, fhi

    def text(self) -> str:
        """Canonical one-line form, the unit of the input digest."""
        a0, a1 = self.scroll
        return f"S({a0},{a1}) {self.spec} twists={self.twists}"

    @property
    def cells(self) -> int:
        hlo, hhi, flo, fhi = self.twists
        return (hhi - hlo + 1) * (fhi - flo + 1)


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{stream}:{seed}")


def _line_text(leaf: Leaf) -> str:
    return f"O({leaf[0]},{leaf[1]})"


# ---------------------------------------------------------------- oracles

@contextlib.contextmanager
def uncached():
    """Oracles compute line cohomology afresh, bypassing the product's
    `_line_cohomology` cache (while it exists), so that the cache's
    entries, hits and misses are the product's own."""
    cached = getattr(cohomology, "_line_cohomology", None)
    fresh = getattr(cached, "__wrapped__", None)
    if fresh is None:
        yield
        return
    cohomology._line_cohomology = fresh
    try:
        yield
    finally:
        cohomology._line_cohomology = cached


def _direct_sum(leaves) -> sc.Sum:
    return sc.bundle_sum(*(sc.DivisorClass(h, f) for h, f in leaves))


def _shifted(leaves, dh: int, df: int):
    return tuple((h + dh, f + df) for h, f in leaves)


def is_least_regular_twist(s: sc.Scroll, leaves, p: int) -> bool:
    """Whether p is the least h-twist making the direct sum regular.

    Regularity of a direct sum of line bundles is monotone in p, so two
    evaluations of the definition decide it."""
    return brute_regular(s, _shifted(leaves, p, 0)) and not brute_regular(s, _shifted(leaves, p - 1, 0))


def brute_regular(s: sc.Scroll, leaves) -> bool:
    """The three regularity probes of the definition, leaf by leaf, read
    off `line_cohomology`."""
    c = s.c
    D = sc.DivisorClass
    return all(
        sc.line_cohomology(s, D(h - 1, f + c - 2)).h2 == 0
        and sc.line_cohomology(s, D(h - 1, f + c - 1)).h1 == 0
        and sc.line_cohomology(s, D(h, f - 1)).h1 == 0
        for h, f in leaves
    )


def brute_ulrich(s: sc.Scroll, leaves) -> bool:
    """All h^i(L(-H)) and h^i(L(-2H)) vanish, leaf by leaf."""
    D = sc.DivisorClass
    return all(
        sc.line_cohomology(s, D(h + k, f)).as_tuple() == (0, 0, 0)
        for h, f in leaves
        for k in (-1, -2)
    )


@dataclass(frozen=True)
class SumTruth:
    """Verdicts of the direct sum of `leaves`, from the oracles alone."""

    acm: bool
    ulrich: bool
    split_h: bool
    split_acm3: bool
    regular: bool
    regular_minus_h: bool


# Every violating twist of a leaf with |h| <= 8, |f| <= 12 on a default
# scroll lies in [-26, 18]; the window leaves margin on both sides.
_ACM_WINDOW = (-40, 40)


@functools.lru_cache(maxsize=None)
def _leaf_acm(a0: int, a1: int, leaf: Leaf) -> bool:
    """`harness.brute_force_violations` on one leaf.  A twist violates a
    direct sum iff it violates one of its leaves, so the sum is ACM iff
    every leaf is.  The memo is the oracle's own and holds at most one
    bool per leaf of the bounded coefficient box, a few thousand."""
    return harness.brute_force_violations(sc.Scroll(a0, a1), _direct_sum([leaf]), 0, _ACM_WINDOW) == ()


def sum_truth(s: sc.Scroll, leaves) -> SumTruth:
    direct = _direct_sum(leaves)
    return SumTruth(
        acm=all(_leaf_acm(s.a0, s.a1, leaf) for leaf in set(leaves)),
        ulrich=brute_ulrich(s, leaves),
        split_h=harness.splits_into_h_twists(direct),
        split_acm3=harness.splits_into_three_types(direct),
        regular=brute_regular(s, leaves),
        regular_minus_h=brute_regular(s, _shifted(leaves, -1, 0)),
    )


def _leaf_multiset(expr) -> list[Leaf]:
    return sorted((d.h, d.f) for d in expr.leaves())


def _verdict_problems(label: str, got, expected: bool, is_sum: bool) -> list[str]:
    """A TRUE/FALSE verdict must equal the direct sum's; only extension
    classes may be INDETERMINATE."""
    if got is sc.Verdict.INDETERMINATE:
        return [f"{label}: INDETERMINATE on a direct sum"] if is_sum else []
    if (got is sc.Verdict.TRUE) != expected:
        return [f"{label}: got {got.value}, direct sum gives {expected}"]
    return []


# ---------------------------------------------------------- decide-corpus

# A block has 12 sums and 8 Ext trees, 4 queries on each default scroll.
# The mix keeps p50 inside the sums' latency mode and p90 inside the
# depth-3 mode, away from the gaps between modes.
DECIDE_BLOCK = 20
_DECIDE_EXT_DEPTHS = (1, 1, 2, 2, 3, 3, 3, 3)
WARM_BLOCKS = 25


def _decide_sum(rng: random.Random, max_terms: int) -> tuple[str, list[Leaf]]:
    terms, leaves = [], []
    for _ in range(rng.randint(1, max_terms)):
        leaf = (rng.randint(-harness.H_BOUND, harness.H_BOUND), rng.randint(-harness.F_BOUND, harness.F_BOUND))
        mult = rng.choice((1, 1, 1, 2))
        atom = _line_text(leaf)
        if mult == 1:
            terms.append(atom)
        else:
            terms.append(f"{mult}*{atom}" if rng.random() < 0.5 else f"{atom}^{mult}")
        leaves += [leaf] * mult
    return " + ".join(terms), leaves


def _decide_ext(rng: random.Random, depth: int) -> tuple[str, list[Leaf]]:
    """An Ext tree of exactly `depth` nested levels."""
    if depth == 0:
        return _decide_sum(rng, 2)
    deep = rng.randrange(2)
    depths = [depth - 1, rng.randrange(depth)]
    if deep:
        depths.reverse()
    sub, sub_leaves = _decide_ext(rng, depths[0])
    quot, quot_leaves = _decide_ext(rng, depths[1])
    return f"ext({sub}; {quot})", sub_leaves + quot_leaves


def decide_blocks(seed: int, stream: str = "run"):
    rng = _rng("decide-corpus", seed, stream)
    scrolls = [s for s in harness.DEFAULT_SCROLLS for _ in range(DECIDE_BLOCK // len(harness.DEFAULT_SCROLLS))]
    depths = [0] * (DECIDE_BLOCK - len(_DECIDE_EXT_DEPTHS)) + list(_DECIDE_EXT_DEPTHS)
    while True:
        rng.shuffle(scrolls)
        block = []
        for scroll, depth in zip(scrolls, depths):
            if depth == 0:
                spec, leaves = _decide_sum(rng, 3)
            elif depth >= 2 and rng.random() < 0.25:
                # the grammar folds "A + ext(B; C)" into ext(A; ext(B; C))
                spec, leaves = _decide_sum(rng, 2)
                tail, tail_leaves = _decide_ext(rng, depth - 1)
                spec, leaves = f"{spec} + {tail}", leaves + tail_leaves
            else:
                spec, leaves = _decide_ext(rng, depth)
            block.append(Query(scroll, spec, tuple(sorted(leaves)), depth=depth))
        rng.shuffle(block)
        yield block


@dataclass
class DecideOut:
    expr: object
    reg: object
    acm: object
    ulrich: object
    split_h: object
    split_acm3: object
    summand: object = None  # SummandVerdict when the bundle is regular

    def verdicts(self) -> list:
        out = [self.reg if isinstance(self.reg, sc.Verdict) else sc.Verdict.TRUE]
        out += [self.acm.verdict, self.ulrich.verdict, self.split_h.outcome, self.split_acm3.outcome]
        if self.summand is not None:
            out.append(self.summand.verdict)
        return out


def run_decide(q: Query) -> DecideOut:
    s = sc.Scroll(*q.scroll)
    expr = sc.parse_bundle_spec(q.spec)
    out = DecideOut(
        expr=expr,
        reg=sc.reg(s, expr),
        acm=sc.is_acm(s, expr),
        ulrich=sc.is_ulrich(s, expr),
        split_h=sc.decide_split_tH(s, expr),
        split_acm3=sc.decide_split_acm3(s, expr),
    )
    if sc.is_regular(s, expr).verdict is sc.Verdict.TRUE:
        out.summand = sc.detect_line_summand(s, expr)
    return out


def check_decide(q: Query, out: DecideOut) -> list[str]:
    if _leaf_multiset(out.expr) != list(q.leaves):
        return ["parse: leaf multiset differs from the generated one"]
    s = sc.Scroll(*q.scroll)
    truth = sum_truth(s, q.leaves)
    is_sum = isinstance(out.expr, sc.Sum)
    problems = []
    if isinstance(out.reg, int):
        if not is_least_regular_twist(s, q.leaves, out.reg):
            problems.append(f"reg: got {out.reg}, not the direct sum's least regular twist")
    elif is_sum:
        problems.append("reg: INDETERMINATE on a direct sum")
    problems += _verdict_problems("is_acm", out.acm.verdict, truth.acm, is_sum)
    problems += _verdict_problems("is_ulrich", out.ulrich.verdict, truth.ulrich, is_sum)
    problems += _verdict_problems("decide_split_tH", out.split_h.outcome, truth.split_h, is_sum)
    problems += _verdict_problems("decide_split_acm3", out.split_acm3.outcome, truth.split_acm3, is_sum)
    if out.summand is not None:
        # a certified-regular class contains the regular direct sum; the
        # detector's TRUE names a leaf and means E(-H) is not regular,
        # its FALSE means E(-H) is regular
        v = out.summand
        if not truth.regular:
            problems.append("is_regular: TRUE but the direct sum is not regular")
        elif v.verdict is sc.Verdict.TRUE:
            if (v.summand.h, v.summand.f) not in q.leaves or truth.regular_minus_h:
                problems.append(f"detect_line_summand: {v.summand} is not a certified summand")
        elif v.verdict is sc.Verdict.FALSE and not truth.regular_minus_h:
            problems.append("detect_line_summand: FALSE but E(-H) is not regular")
    return problems


# ---------------------------------------------------------------- big-coeff

BIG_BLOCK = 50
BIG_SCROLLS = harness.DEFAULT_SCROLLS + ((1, 50), (3, 40))
_BIG_DECADES = (2, 6)  # |coefficients| log-uniform in 10^2 .. 10^6
# Coefficient slot j of query k takes stratum (k * _BIG_SCRAMBLE[j]) %
# BIG_BLOCK.  The multipliers are coprime to BIG_BLOCK, so each slot a
# query has visits each stratum at most once per block, and the two
# slots of every query's first summand visit all of them.
_BIG_SCRAMBLE = (1, 19, 29, 41)


def _big_magnitude(rng: random.Random, stratum: int) -> int:
    lo, hi = _BIG_DECADES
    u = lo + (hi - lo) * (stratum + rng.random()) / BIG_BLOCK
    return min(10**hi, max(10**lo, round(10**u)))


def big_blocks(seed: int, stream: str = "run"):
    rng = _rng("big-coeff", seed, stream)
    seen: set[tuple] = set()
    while True:
        block = []
        for k in range(BIG_BLOCK):
            scroll = BIG_SCROLLS[k % len(BIG_SCROLLS)]
            rank = 1 + (k // len(BIG_SCROLLS)) % 2
            while True:
                coeffs = []
                for j in range(2 * rank):
                    sign = -1 if (k >> j) & 1 else 1
                    coeffs.append(sign * _big_magnitude(rng, (k * _BIG_SCRAMBLE[j]) % BIG_BLOCK))
                leaves = tuple(sorted(zip(coeffs[0::2], coeffs[1::2])))
                if (scroll, leaves) not in seen:
                    seen.add((scroll, leaves))
                    break
            spec = " + ".join(_line_text(leaf) for leaf in leaves)
            block.append(Query(scroll, spec, leaves, size=max(abs(c) for c in coeffs)))
        rng.shuffle(block)
        yield block


@dataclass
class BigOut:
    records: list  # (line_cohomology(D), line_cohomology(K - D)) per leaf
    split_h: object
    acm: object
    reg: object

    def verdicts(self) -> list:
        reg = self.reg if isinstance(self.reg, sc.Verdict) else sc.Verdict.TRUE
        return [self.split_h.outcome, self.acm.verdict, reg]


def run_big(q: Query) -> BigOut:
    s = sc.Scroll(*q.scroll)
    divisors = [sc.DivisorClass(h, f) for h, f in q.leaves]
    records = [(sc.line_cohomology(s, d), sc.line_cohomology(s, sc.serre_dual(d, s))) for d in divisors]
    bundle = sc.bundle_sum(*divisors)
    return BigOut(records, sc.decide_split_tH(s, bundle), sc.is_acm(s, bundle), sc.reg(s, bundle))


def check_big(q: Query, out: BigOut) -> list[str]:
    s = sc.Scroll(*q.scroll)
    problems = []
    for (h, f), (rec, dual) in zip(q.leaves, out.records):
        d = sc.DivisorClass(h, f)
        if rec.chi != sc.euler_rr(s, d):
            problems.append(f"chi of {d} is {rec.chi}, Riemann-Roch gives {sc.euler_rr(s, d)}")
        if rec.as_tuple() != dual.as_tuple()[::-1]:
            problems.append(f"Serre duality fails for {d}: {rec.as_tuple()} vs dual {dual.as_tuple()}")
    splits = harness.splits_into_h_twists(_direct_sum(q.leaves))
    problems += _verdict_problems("decide_split_tH", out.split_h.outcome, splits, True)
    return problems


# ---------------------------------------------------------------- ext-sweep

# A block has a chain and a balanced tree on each of 50 rungs of a log
# ladder of node counts; query j takes rung (19 j) % 100 of the cell
# ladder and default scroll j % 5.  The rungs are dense enough that p90
# does not jump between them.
EXT_RUNGS = 50
EXT_BLOCK = 2 * EXT_RUNGS
EXT_MAX_NODES = 128
EXT_MAX_CELLS = 256
_EXT_CELL_SCRAMBLE = 19
_EXT_H, _EXT_F = 2, 3  # small coefficients: |h| <= 2, |f| <= 3


def _ext_leaf(rng: random.Random) -> Leaf:
    return (rng.randint(-_EXT_H, _EXT_H), rng.randint(-_EXT_F, _EXT_F))


def _chain(rng: random.Random, nodes: int) -> tuple[str, list[Leaf], int]:
    """A chain of `nodes` Ext nodes, growing on the sub or quotient side;
    returns its spec, leaves and depth."""
    first = _ext_leaf(rng)
    spec, leaves = _line_text(first), [first]
    left = rng.random() < 0.5
    for _ in range(nodes):
        leaf = _ext_leaf(rng)
        leaves.append(leaf)
        spec = f"ext({spec}; {_line_text(leaf)})" if left else f"ext({_line_text(leaf)}; {spec})"
    return spec, leaves, nodes


def _balanced(rng: random.Random, nodes: int) -> tuple[str, list[Leaf], int]:
    """A balanced Ext tree with `nodes` Ext nodes (nodes + 1 leaves)."""
    if nodes == 0:
        leaf = _ext_leaf(rng)
        return _line_text(leaf), [leaf], 0
    left = (nodes - 1) // 2
    sub, sub_leaves, sub_depth = _balanced(rng, left)
    quot, quot_leaves, quot_depth = _balanced(rng, nodes - 1 - left)
    return f"ext({sub}; {quot})", sub_leaves + quot_leaves, 1 + max(sub_depth, quot_depth)


def _log_ladder(rung: int, rungs: int, top: int) -> int:
    """The centre of rung `rung` of `rungs` log-scale rungs over 1..top.
    The ladder is the same for every seed: these sizes set the cost."""
    return max(1, min(top, round(top ** ((rung + 0.5) / rungs))))


def ext_blocks(seed: int, stream: str = "run"):
    rng = _rng("ext-sweep", seed, stream)
    while True:
        block = []
        for j in range(EXT_BLOCK):
            nodes = _log_ladder(j // 2, EXT_RUNGS, EXT_MAX_NODES)
            spec, leaves, depth = (_chain if j % 2 == 0 else _balanced)(rng, nodes)
            cells = _log_ladder((j * _EXT_CELL_SCRAMBLE) % EXT_BLOCK, EXT_BLOCK, EXT_MAX_CELLS)
            wh = max(1, min(cells, round(math.sqrt(cells) * 2 ** rng.uniform(-1, 1))))
            wf = max(1, cells // wh)
            hlo, flo = rng.randint(-3, 2), rng.randint(-4, 3)
            twists = (hlo, hlo + wh - 1, flo, flo + wf - 1)
            scroll = harness.DEFAULT_SCROLLS[j % len(harness.DEFAULT_SCROLLS)]
            block.append(Query(scroll, spec, tuple(sorted(leaves)), depth=depth, twists=twists))
        rng.shuffle(block)
        yield block


def table_argv(q: Query) -> list[str]:
    hlo, hhi, flo, fhi = q.twists
    a0, a1 = q.scroll
    return ["table", f"--scroll={a0},{a1}", f"--bundle={q.spec}", f"--twists={hlo}:{hhi},{flo}:{fhi}"]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


@dataclass
class ExtOut:
    expr: object
    reg: object
    code: int
    table: str
    table_ns: int

    def verdicts(self) -> list:
        return [self.reg if isinstance(self.reg, sc.Verdict) else sc.Verdict.TRUE]


def run_ext(q: Query) -> ExtOut:
    s = sc.Scroll(*q.scroll)
    expr = sc.parse_bundle_spec(q.spec)
    r = sc.reg(s, expr)
    t0 = time.perf_counter_ns()
    code, table = run_cli(table_argv(q))
    return ExtOut(expr, r, code, table, time.perf_counter_ns() - t0)


def _sum_h(s: sc.Scroll, leaves) -> list[int]:
    """Exact h^i of the direct sum of `leaves`, each distinct leaf's
    `line_cohomology` taken once and weighted by its multiplicity."""
    total = [0, 0, 0]
    for (h, f), mult in Counter(leaves).items():
        for i, v in enumerate(sc.line_cohomology(s, sc.DivisorClass(h, f)).as_tuple()):
            total[i] += mult * v
    return total


def _cell_holds(cell: str, exact: int) -> bool:
    lo, _, hi = cell.partition("..")
    return int(lo) <= exact <= int(hi or lo)


def check_ext(q: Query, out: ExtOut) -> list[str]:
    if out.code != 0:
        return [f"table: exit code {out.code}"]
    if _leaf_multiset(out.expr) != list(q.leaves):
        return ["parse: leaf multiset differs from the generated one"]
    s = sc.Scroll(*q.scroll)
    problems = []
    if isinstance(out.reg, int) and not is_least_regular_twist(s, q.leaves, out.reg):
        problems.append(f"reg: got {out.reg}, not the direct sum's least regular twist")
    hlo, hhi, flo, fhi = q.twists
    rows = out.table.splitlines()
    want = [(th, tf) for th in range(hlo, hhi + 1) for tf in range(flo, fhi + 1)]
    if rows[:1] != ["tH,tf,h0,h1,h2,chi"] or len(rows) != len(want) + 1:
        return problems + [f"table: {len(rows)} lines for {len(want)} twists"]
    for row, (th, tf) in zip(rows[1:], want):
        cols = row.split(",")
        if cols[:2] != [str(th), str(tf)]:
            problems.append(f"table: row {row!r} out of order, expected twist {th},{tf}")
            continue
        twisted = _shifted(q.leaves, th, tf)
        chi = sum(sc.euler_rr(s, sc.DivisorClass(h, f)) for h, f in twisted)
        if int(cols[5]) != chi:
            problems.append(f"table: chi {cols[5]} at {th},{tf}, Riemann-Roch gives {chi}")
        exact = _sum_h(s, twisted)
        for i in range(3):
            if not _cell_holds(cols[2 + i], exact[i]):
                problems.append(f"table: h{i} cell {cols[2 + i]} at {th},{tf} excludes the direct sum's {exact[i]}")
    return problems


def robustness_probe() -> list[str]:
    """One 1200-deep Ext spec through the CLI; any clean exit code passes."""
    spec = "ext(" * ROBUSTNESS_DEPTH + "O(0,0)" + "; O(0,0))" * ROBUSTNESS_DEPTH
    code, _ = run_cli(["table", "--scroll=1,2", f"--bundle={spec}", "--twists=0:0,0:0"])
    return [] if code in CLI_CLEAN_EXITS else [f"robustness: exit code {code}"]


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    blocks: object  # (seed, stream) -> iterator of query blocks
    run: object  # query -> output, through the public API; timed
    check: object  # (query, output) -> list of oracle mismatches; untimed
    trace_queries: int  # queries in a traced (fixed-count) pass
    sharp_queries: int  # queries in the sharpness corpus
    warm_blocks: int = 0  # blocks run untimed, from a disjoint stream, first
    robustness: bool = False  # ends the pass with the deep-spec CLI probe


WORKLOADS = {
    "decide-corpus": Workload(decide_blocks, run_decide, check_decide, 20 * DECIDE_BLOCK, 20 * DECIDE_BLOCK,
                              warm_blocks=WARM_BLOCKS),
    # direct sums always resolve, so a small corpus pins the rate at 1
    "big-coeff": Workload(big_blocks, run_big, check_big, BIG_BLOCK, 10),
    "ext-sweep": Workload(ext_blocks, run_ext, check_ext, EXT_BLOCK, EXT_BLOCK, robustness=True),
}
