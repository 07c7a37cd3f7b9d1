#!/usr/bin/env python3
"""Python opcodes per benchmark query, and the functions that run them.

    python3 tools/opcodes.py [--seed 2] [--top 8]

Run from the root of a checkout: the library is imported from ./src and
the queries are the benchmark's own, from perfbench/workloads.py.  Every
bytecode instruction the interpreter executes inside a query is counted
with `sys.settrace` and `f_trace_opcodes`, and charged to the function
whose frame runs it; C functions (builtins, `lru_cache` hits) count
nothing.  The count is exact and repeatable, so it tells two trees apart
where wall time is too noisy, but it weighs every opcode alike.  Work
moved into C, such as a regular expression of `re` or a builtin, counts
zero however long it takes, so an opcode drop is not a speed-up by
itself: time it too.

After each group's top functions come its opcodes per query by module:
those of scrollcalc's bundlespec, extensions, splitting, regularity,
cohomology and cli, and the rest (other scrollcalc modules, the
benchmark's own code and the standard library) as one figure.

- decide-corpus: the workload's warm blocks run untraced, then its first
  480 queries run traced, the whole of `run_decide` each (parse and
  every decision).  Direct sums and Ext trees are reported apart.
- ext-sweep: its first 60 queries run once untraced, to fill the
  cohomology cache, and then again traced, the whole of `run_ext` each
  (parse, `reg` and the in-process `table`).
"""

from __future__ import annotations

import argparse
import collections
import itertools
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DECIDE_QUERIES = 480
EXT_QUERIES = 60
MODULES = ("bundlespec", "extensions", "splitting", "regularity", "cohomology", "cli")
PACKAGE = os.path.join(ROOT, "src", "scrollcalc")


class OpcodeCounter:
    """Opcodes executed per code object while `count` runs a function."""

    def __init__(self) -> None:
        self.by_code: collections.Counter = collections.Counter()

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.by_code[frame.f_code] += 1
        return self._local

    def _global(self, frame, event, arg):
        frame.f_trace_opcodes = True
        return self._local

    def count(self, run, *args):
        sys.settrace(self._global)
        try:
            return run(*args)
        finally:
            sys.settrace(None)


def report(title: str, queries: int, counter: OpcodeCounter, top: int) -> None:
    total = sum(counter.by_code.values())
    print(f"{title}: {queries} queries, {total / queries:,.0f} opcodes per query")
    for code, n in counter.by_code.most_common(top):
        where = f"{os.path.basename(code.co_filename)}:{code.co_firstlineno}"
        print(f"  {n / queries:>10,.0f}  {getattr(code, 'co_qualname', code.co_name)}  {where}")
    by_module: collections.Counter = collections.Counter()
    for code, n in counter.by_code.items():
        folder, name = os.path.split(os.path.abspath(code.co_filename))
        module = name.removesuffix(".py")
        by_module[module if folder == PACKAGE and module in MODULES else "rest"] += n
    print("  by module:")
    for module in MODULES + ("rest",):
        print(f"  {by_module[module] / queries:>10,.0f}  {module}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--top", type=int, default=8, help="functions listed per group")
    args = ap.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads as wl

    decide = wl.WORKLOADS["decide-corpus"]
    warm = decide.blocks(args.seed, "warm")
    for q in itertools.chain.from_iterable(itertools.islice(warm, decide.warm_blocks)):
        decide.run(q)
    sums, trees = OpcodeCounter(), OpcodeCounter()
    counts = [0, 0]
    for q in itertools.islice(itertools.chain.from_iterable(decide.blocks(args.seed)), DECIDE_QUERIES):
        (trees if q.depth else sums).count(decide.run, q)
        counts[bool(q.depth)] += 1
    print(f"seed {args.seed}")
    report("decide-corpus direct sums", counts[0], sums, args.top)
    report("decide-corpus Ext trees", counts[1], trees, args.top)

    sweep = wl.WORKLOADS["ext-sweep"]
    queries = list(itertools.islice(itertools.chain.from_iterable(sweep.blocks(args.seed)), EXT_QUERIES))
    for q in queries:
        sweep.run(q)
    tables = OpcodeCounter()
    for q in queries:
        tables.count(sweep.run, q)
    report("ext-sweep", len(queries), tables, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
