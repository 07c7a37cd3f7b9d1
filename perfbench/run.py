#!/usr/bin/env python3
"""scrollcalc benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload decide-corpus --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; the library is imported from
./src, so nothing needs installing.  Human-readable lines come first;
the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 its per-layer ones.  Every pass runs in a fresh
interpreter started by this script (see worker.py), one at a time.
Exits 2 without a result when ./src/scrollcalc is missing, 1 when a
pass fails to finish.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys
import time

from reference import REFERENCE_NS, reference_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_RUNS = 5  # timed starts per set-up sample, taken three times a run
SETUP_REFS = 3  # reference loops timed just before and just after each start
REFERENCE_WINDOW_S = 1.0
DEADLINE_S = 170.0  # the whole run, set-up measurement included
# decided_rate is read off a fixed corpus: the first queries of this
# seed of the workload's own generator, whatever --seed is, so the
# figure is exact and moves only when verdicts change.
SHARP_SEED = 0

# Per-query size buckets reported by the traced run, as (metric, size
# field, lowest, highest, time field) over a pass's samples, whose fields
# are 0 largest |coefficient|, 1 Ext depth, 2 cells, 3 query ns, 4 table ns.
BUCKETS = (
    ("bucket.coeff_1e2.query_ms", 0, 10**2, 10**3 - 1, 3),
    ("bucket.coeff_1e3.query_ms", 0, 10**3, 10**4 - 1, 3),
    ("bucket.coeff_1e4.query_ms", 0, 10**4, 10**5 - 1, 3),
    ("bucket.coeff_1e5.query_ms", 0, 10**5, 10**6, 3),
    ("bucket.depth_1-2.query_ms", 1, 1, 2, 3),
    ("bucket.depth_3-8.query_ms", 1, 3, 8, 3),
    ("bucket.depth_9-32.query_ms", 1, 9, 32, 3),
    ("bucket.depth_33-128.query_ms", 1, 33, 128, 3),
    ("bucket.cells_1-4.table_ms", 2, 1, 4, 4),
    ("bucket.cells_5-16.table_ms", 2, 5, 16, 4),
    ("bucket.cells_17-64.table_ms", 2, 17, 64, 4),
    ("bucket.cells_65-256.table_ms", 2, 65, 256, 4),
)


class RunFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise RunFailed("out of time")
    return left


def measure_setup(deadline: float) -> tuple[list[float], list[float]]:
    """Wall times, raw and scaled, of fresh interpreters importing
    scrollcalc and its CLI.

    One untimed start first, so bytecode caches exist as they do for a
    user's second call.  Each start is scaled by the reference loops
    timed just around it (see reference.py)."""
    argv = [sys.executable, "-c", "import scrollcalc, scrollcalc.cli"]
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        refs = [reference_ns() for _ in range(SETUP_REFS)]
        t0 = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=remaining(deadline))
        elapsed = time.perf_counter() - t0
        refs += [reference_ns() for _ in range(SETUP_REFS)]
        if done.returncode != 0:
            raise RunFailed(f"import failed: {done.stderr.decode(errors='replace').strip()}")
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * REFERENCE_NS / statistics.median(refs))
    return raw, scaled


def run_pass(args, mode: str, seed: int, deadline: float) -> dict:
    argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--mode", mode]
    try:
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} pass did not finish in time")
    if done.returncode != 0 or not done.stdout.strip():
        raise RunFailed(f"{mode} pass exited with {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def rate(verdicts: dict) -> float:
    total = sum(verdicts.values())
    return verdicts.get("indeterminate", 0) / total if total else 0.0


def scaled_latencies_ms(timed: dict) -> list[float]:
    """Query times at the reference machine speed: each query is scaled
    by the median of the reference-loop times taken within
    REFERENCE_WINDOW_S of it (see reference.py)."""
    refs = timed["reference_ns"]
    at = [t for t, _ in refs]
    out = []
    for started, ns in zip(timed["started_s"], timed["latency_ns"]):
        lo = bisect.bisect_left(at, started - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(at, started + ns / 1e9 + REFERENCE_WINDOW_S)
        local = [r for _, r in refs[lo:hi]] or [r for _, r in refs]
        out.append(ns / 1e6 * REFERENCE_NS / statistics.median(local))
    return out


def end_to_end(args, deadline: float) -> tuple[dict, list[dict], list[str]]:
    # set-up is sampled before, between and after the two passes, so that
    # its median spans the drift in machine speed over the whole run
    setups = [measure_setup(deadline)]
    timed = run_pass(args, "timed", args.seed, deadline)
    setups.append(measure_setup(deadline))
    sharp = run_pass(args, "sharpness", SHARP_SEED, deadline)
    setups.append(measure_setup(deadline))
    setup_raw = [t for raw, _ in setups for t in raw]
    setup = [t for _, scaled in setups for t in scaled]
    raw_ms = [ns / 1e6 for ns in timed["latency_ns"]]
    lat_ms = scaled_latencies_ms(timed)
    reference = statistics.median(r for _, r in timed["reference_ns"])
    n = len(lat_ms)
    if n < 2:
        raise RunFailed(f"only {n} timed queries completed")
    info = [
        f"inputs: sha256 {timed['inputs_sha256']} over the first {timed['inputs_digested']} queries",
        f"sharpness corpus (seed {SHARP_SEED}): sha256 {sharp['inputs_sha256']} over the first "
        f"{sharp['inputs_digested']} queries, {sum(sharp['verdicts'].values())} verdicts {sharp['verdicts']}",
        f"latency samples: {n} queries, {n - math.ceil(0.9 * n)} beyond p90; setup samples: {len(setup)}, "
        f"unscaled median {statistics.median(setup_raw):.4f} s",
        f"reference loop: median {reference / 1e6:.3f} ms over {len(timed['reference_ns'])} samples; "
        f"unscaled p50 {statistics.median(raw_ms):.4f} ms, "
        f"p90 {statistics.quantiles(raw_ms, n=10)[8]:.4f} ms, {n / (sum(raw_ms) / 1e3):.4f} queries/s",
    ]
    metrics = {
        "setup_s": statistics.median(setup),
        "queries_per_s": n / (sum(lat_ms) / 1e3),
        "query_p50_ms": statistics.median(lat_ms),
        "query_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": timed["peak_rss_kb"] / 1024,
        "decided_rate": 1.0 - rate(sharp["verdicts"]),
    }
    return metrics, [timed, sharp], info


def bucket_medians(samples: list) -> dict:
    out = {}
    for name, field, lo, hi, time_field in BUCKETS:
        picked = [s[time_field] / 1e6 for s in samples if lo <= s[field] <= hi]
        out[name] = statistics.median(picked) if picked else 0.0
    return out


def per_layer(args, deadline: float) -> tuple[dict, list[dict], list[str]]:
    plain = run_pass(args, "untraced", args.seed, deadline)
    traced = run_pass(args, "traced", args.seed, deadline)
    tr = traced["trace"]
    calls, counts = tr["calls"], tr["counts"]

    def ms(layer: str) -> float:
        return tr["self_ns"].get(layer, 0) / 1e6

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    cache = tr.get("cache", {"hits": 0, "misses": 0, "entries": 0})
    nodes = calls.get("extensions.extension_cohomology", 0)
    regs = calls.get("regularity.reg", 0)
    metrics = {
        "p1.sym_calls": calls.get("p1.sym_decompose", 0),
        "p1.degrees_materialised": counts.get("p1.degrees_materialised", 0),
        "p1.self_ms": ms("p1"),
        "cohomology.line_calls": calls.get("cohomology.line_cohomology", 0),
        "cohomology.sum_calls": calls.get("cohomology.sum_cohomology", 0),
        "cohomology.self_ms": ms("cohomology"),
        "cohomology.cache_hit_ratio": share(cache["hits"], cache["hits"] + cache["misses"]),
        "cohomology.cache_entries": cache["entries"],
        "extensions.nodes_evaluated": nodes,
        "extensions.forced_ratio": share(counts.get("extensions.forced", 0), nodes),
        "extensions.self_ms": ms("extensions"),
        "regularity.reg_calls": regs,
        "regularity.window_probes": share(counts.get("regularity.window_probes", 0), regs),
        "regularity.self_ms": ms("regularity"),
        "splitting.twists_scanned": counts.get("splitting.twists_scanned", 0),
        "splitting.probe_evals": counts.get("splitting.probe_evals", 0),
        "splitting.self_ms": ms("splitting"),
        "bundlespec.parse_calls": calls.get("bundlespec.parse_bundle_spec", 0),
        "bundlespec.bytes_parsed": counts.get("bundlespec.bytes_parsed", 0),
        "bundlespec.self_ms": ms("bundlespec"),
        "cli.main_calls": calls.get("cli.main", 0),
        "cli.self_ms": ms("cli"),
        "harness.oracle_ms": tr["oracle_ns"] / 1e6,
        "trace.overhead_ratio": sum(traced["latency_ns"]) / sum(plain["latency_ns"]),
        "query.indeterminate_rate": rate(traced["verdicts"]),
    }
    # buckets come from the untraced pass over the same queries, so
    # tracing overhead does not bend the size slopes
    metrics.update(bucket_medians(plain["samples"]))
    info = [
        f"inputs: sha256 {traced['inputs_sha256']} over the first {traced['inputs_digested']} queries",
        f"traced queries: {len(traced['latency_ns'])}, product {sum(traced['latency_ns']) / 1e6:.1f} ms "
        f"traced vs {sum(plain['latency_ns']) / 1e6:.1f} ms untraced, oracles {tr['oracle_ns'] / 1e6:.1f} ms apart",
    ]
    return metrics, [traced], info


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "scrollcalc", "__init__.py")):
        print(f"error: no scrollcalc sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    deadline = time.perf_counter() + DEADLINE_S
    try:
        metrics, passes, info = (per_layer if args.trace else end_to_end)(args, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != {m["name"] for m in declared}:
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(m['name'] for m in declared)}",
              file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    mismatches = sum(p["mismatches"] for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for line in info:
        print(line)
    print(f"ops: {attempted} attempted, {failed} failed, {mismatches} oracle mismatches")
    for p in passes:
        for problem in p["problems"]:
            print(f"  failed: {problem}")
    for m in declared:
        print(f"{m['name']:<32} {metrics[m['name']]:>16.6f} {m['unit']}")
    result = {
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
