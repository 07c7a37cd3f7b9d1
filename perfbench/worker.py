#!/usr/bin/env python3
"""One pass of one workload in a fresh interpreter; prints one JSON line.

run.py starts this script and waits for it; a fresh process per pass
gives each pass an empty cohomology cache and its own peak-RSS reading.
Modes:

  timed      whole query blocks until the queries' own time reaches
             --seconds and at least MIN_QUERIES queries completed;
             tracing off
  untraced   the first `trace_queries` queries, tracing off
  traced     the same queries with every layer traced
  sharpness  the first `sharp_queries` queries, tracing off; run.py
             runs it on a fixed seed

Fixed-count passes end with the workload's robustness probe, if any.

One client issues queries back to back from this single thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import scrollcalc  # noqa: E402

if not os.path.abspath(scrollcalc.__file__).startswith(SRC + os.sep):
    sys.exit(f"scrollcalc was imported from {scrollcalc.__file__}, not from {SRC}")

import workloads as wl  # noqa: E402
from reference import reference_ns  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_QUERIES = 100  # the p90 keeps at least 10 samples beyond it
REF_EVERY_S = 0.25
HARD_CAP_S = 120.0  # a timed pass stops here even short of MIN_QUERIES
MAX_PROBLEMS = 5


def cache_stats():
    """`(hits, misses, entries)` of the line-cohomology cache, if any."""
    cached = getattr(sys.modules["scrollcalc.cohomology"], "_line_cohomology", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return None
    i = info()
    return (i.hits, i.misses, i.currsize)


class Pass:
    """Counters of one pass over a workload's queries."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0  # failed ops whose output disagreed with an oracle
        self.problems: list[str] = []
        self.latency_ns: list[int] = []
        self.started_s: list[float] = []  # perf_counter at each timed query's start
        self.samples: list[tuple[int, int, int, int, int]] = []  # size, depth, cells, ns, table_ns
        self.verdicts: dict[str, int] = {}
        self.digest = hashlib.sha256()
        self.digested = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(what)

    def query(self, w: wl.Workload, q: wl.Query, tracer: Tracer | None) -> None:
        if self.digested < MIN_QUERIES:
            self.digest.update(q.text().encode() + b"\n")
            self.digested += 1
        self.attempted += 1
        span = tracer.span("bench.query") if tracer else contextlib.nullcontext()
        started = time.perf_counter()
        t0 = time.perf_counter_ns()
        try:
            with span:
                out = w.run(q)
        except Exception as exc:  # one failed op must not end the pass
            self.fail(f"{q.text()}: {type(exc).__name__}: {exc}"[:300])
            return
        ns = time.perf_counter_ns() - t0
        self.latency_ns.append(ns)
        self.started_s.append(started)
        self.samples.append((q.size, q.depth, q.cells, ns, getattr(out, "table_ns", 0)))
        with tracer.oracle() if tracer else contextlib.nullcontext(), wl.uncached():
            problems = w.check(q, out)
        if problems:
            self.mismatches += 1
            self.fail(f"{q.text()}: {'; '.join(problems)}"[:300])
        for v in out.verdicts():
            self.verdicts[v.value] = self.verdicts.get(v.value, 0) + 1

    def robustness(self) -> None:
        self.attempted += 1
        try:
            problems = wl.robustness_probe()
        except Exception as exc:  # e.g. a RecursionError escaping cli.main
            self.fail(f"robustness probe: {type(exc).__name__} escaped cli.main")
            return
        if problems:
            self.mismatches += 1
            self.fail("; ".join(problems))

    def result(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "mismatches": self.mismatches,
            "problems": self.problems,
            "latency_ns": self.latency_ns,
            "started_s": self.started_s,
            "samples": self.samples,
            "verdicts": self.verdicts,
            "inputs_sha256": self.digest.hexdigest(),
            "inputs_digested": self.digested,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }


def warm(w: wl.Workload, seed: int) -> None:
    blocks = w.blocks(seed, "warm")
    for _ in range(w.warm_blocks):
        for q in next(blocks):
            w.run(q)


def timed(w: wl.Workload, seed: int, seconds: float) -> dict:
    warm(w, seed)
    p = Pass()
    refs = []
    start = last_ref = time.perf_counter()
    for block in w.blocks(seed):
        for q in block:
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                last_ref = time.perf_counter()
                refs.append((last_ref, reference_ns()))
            p.query(w, q, None)
        measured = sum(p.latency_ns) / 1e9
        if (measured >= seconds and len(p.latency_ns) >= MIN_QUERIES) or time.perf_counter() - start >= HARD_CAP_S:
            break
    refs.append((time.perf_counter(), reference_ns()))
    out = p.result()
    out["reference_ns"] = refs
    return out


def fixed(w: wl.Workload, seed: int, count: int, tracer: Tracer | None) -> dict:
    warm(w, seed)
    p = Pass()
    cache0 = cache_stats()
    if tracer is not None:
        tracer.install()
    for q in itertools.islice(itertools.chain.from_iterable(w.blocks(seed)), count):
        p.query(w, q, tracer)
    if w.robustness:
        p.robustness()
    out = p.result()
    if tracer is None:
        return out
    tracer.uninstall()
    out["trace"] = {
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "self_ns": dict(tracer.self_ns),
        "oracle_ns": tracer.oracle_ns,
    }
    cache1 = cache_stats()
    if cache0 is not None:
        hits, misses = cache1[0] - cache0[0], cache1[1] - cache0[1]
        out["trace"]["cache"] = {"hits": hits, "misses": misses, "entries": cache1[2]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("timed", "untraced", "traced", "sharpness"))
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()
    w = wl.WORKLOADS[args.workload]
    if args.mode == "timed":
        out = timed(w, args.seed, args.seconds)
    elif args.mode == "sharpness":
        out = fixed(w, args.seed, w.sharp_queries, None)
    else:
        out = fixed(w, args.seed, w.trace_queries, Tracer() if args.mode == "traced" else None)
    print(json.dumps(out, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
