"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print; without -s they appear in captured output on failure.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from scrollcalc import (
    DivisorClass,
    Ext,
    HypothesisViolated,
    Scroll,
    Verdict,
    bundle_sum,
    classify_regular_acm_log,
    decide_split_acm3,
    detect_line_summand,
    euler_rr,
    ext1_dim,
    extension_cohomology,
    format_bundle,
    is_pp_regular,
    is_regular,
    is_ulrich,
    line_bundle_reg,
    line_cohomology,
    log_splitting_type,
    make_ulrich,
    parse_bundle_spec,
    reg,
    residue_consistency,
    serre_dual,
    sum_cohomology,
    twist_rectangle,
    validate_arrangement,
)
from scrollcalc.harness import random_sum_bundle, run_split_harness

from conftest import TEST_SCROLLS

GOLDEN = Path(__file__).parent / "golden"


def _report(n: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}: {label}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _grid(h_bound=8, f_bound=12):
    for h in range(-h_bound, h_bound + 1):
        for f in range(-f_bound, f_bound + 1):
            yield DivisorClass(h, f)


def test_criterion_1_duality_and_rr():
    failures = 0
    for s in TEST_SCROLLS:
        for d in _grid():
            rec = line_cohomology(s, d)
            dual = line_cohomology(s, serre_dual(d, s))
            if rec.as_tuple() != tuple(reversed(dual.as_tuple())):
                failures += 1
            if rec.chi != euler_rr(s, d):
                failures += 1
    _report(1, "Serre duality and Riemann-Roch agree on the full grid", failures == 0,
            f"{failures} failures")


def test_criterion_2_regular_region():
    ok = True
    detail = ""
    for s in TEST_SCROLLS:
        for d in _grid():
            b = bundle_sum(d)
            if (is_regular(s, b).verdict is Verdict.TRUE) != (line_bundle_reg(s, d) <= 0):
                ok, detail = False, f"region mismatch at {s} {d}"
                break
            r = line_bundle_reg(s, d)
            if is_pp_regular(s, b, r, 0).verdict is not Verdict.TRUE:
                ok, detail = False, f"closed form not regular at {s} {d}"
                break
            if is_pp_regular(s, b, r - 1, 0).verdict is not Verdict.FALSE:
                ok, detail = False, f"closed form not minimal at {s} {d}"
                break
        if not ok:
            break
    if ok:
        for s in TEST_SCROLLS:
            for d in (DivisorClass(0, 0), DivisorClass(0, 1), DivisorClass(1, -1)):
                if reg(s, bundle_sum(d)) != 0:
                    ok, detail = False, f"Reg({d}) != 0 on {s}"
    _report(2, "regularity probes match the closed-form region and Reg values", ok, detail)


def test_criterion_3_splitting_harness():
    reports = [run_split_harness(s, count=1000, seed=0) for s in TEST_SCROLLS]
    ok = all(r.ok for r in reports) and all(r.checked == 1000 for r in reports)
    detail = "; ".join(r.summary() for r in reports if not r.ok)
    # the counterexample: O(2f) on S(1,2) fails at h^1(O(-2H+3f)) = 1
    v = decide_split_acm3(Scroll(1, 2), bundle_sum(DivisorClass(0, 2)))
    witness_ok = (
        v.outcome is Verdict.FALSE
        and (v.failure.name, v.failure.twist.h, v.failure.lo)
        == ("h1(E(tH+(a1-1)f))", -2, 1)
        and line_cohomology(Scroll(1, 2), DivisorClass(-2, 3)).h1 == 1
    )
    _report(3, "5000 random bundles: verdicts match structure, t-sets match scans",
            ok and witness_ok, detail or "counterexample witness mismatch")


def test_criterion_4_ulrich_suite():
    ok = True
    detail = ""
    # ext1 pattern c-2 for c = 2..8
    for c in range(2, 9):
        scrolls = [Scroll(1, c - 1)]
        if c % 2 == 0:
            scrolls.append(Scroll(c // 2, c // 2))
        for s in scrolls:
            if ext1_dim(s, DivisorClass(0, c - 1), DivisorClass(1, -1)) != c - 2:
                ok, detail = False, f"ext1 != {c - 2} on {s}"
    # constructed bundles on S(1,2) and S(2,2)
    for s in (Scroll(1, 2), Scroll(2, 2)):
        for a in range(0, 4):
            for b in range(0, 4):
                if a + b == 0 or not ok:
                    continue
                e = make_ulrich(s, a, b)
                u = is_ulrich(s, e)
                if u.verdict is not Verdict.TRUE or not all(p.forced for p in u.probes):
                    ok, detail = False, f"make_ulrich({a},{b}) not forced-Ulrich on {s}"
                    continue
                if is_regular(s, e).verdict is not Verdict.TRUE:
                    ok, detail = False, f"make_ulrich({a},{b}) not regular on {s}"
                    continue
                for i in range(0, 5):
                    for j in range(0, 5):
                        h2 = extension_cohomology(s, e, DivisorClass(i - 2, j))
                        g1 = extension_cohomology(s, e, DivisorClass(i - 1, j))
                        g2 = extension_cohomology(s, e, DivisorClass(i, j - 1))
                        if h2.hi(2) != 0 or g1.hi(1) != 0 or g2.hi(1) != 0:
                            ok, detail = False, f"vanishing grid fails at ({a},{b}) twist ({i},{j})"
    # decomposable classification on the grid
    if ok:
        for s in TEST_SCROLLS:
            ulrich = {DivisorClass(1, -1), DivisorClass(0, s.c - 1)}
            for d in _grid(4, s.c + 4):
                if (is_ulrich(s, bundle_sum(d)).verdict is Verdict.TRUE) != (d in ulrich):
                    ok, detail = False, f"classification mismatch at {s} {d}"
    _report(4, "Ulrich construction, vanishing grids, and classification", ok, detail)


def test_criterion_5_logarithmic_suite():
    ok = True
    detail = ""
    grid = tuple(twist_rectangle((-4, 4), (-6, 6)))
    for s in TEST_SCROLLS:
        for a in range(0, 9):
            for b in range(0, 5):
                if s.e > 0 and b >= 2:
                    continue
                arr = validate_arrangement(s, a, b)
                if not arr.supported:
                    continue
                split = log_splitting_type(arr)
                report = residue_consistency(arr, split, grid)
                if not (report.c1_check and report.ok):
                    ok, detail = False, f"residue check fails at {s} a={a} b={b}"
    # the general e=0 formula at b in {0,1} reproduces the e>0 formulas
    if ok:
        for s in (Scroll(1, 1), Scroll(2, 2), Scroll(3, 3)):
            for a in range(0, 9):
                want0 = {DivisorClass(0, a - 2), DivisorClass(-2, s.c)}
                want1 = {DivisorClass(0, a - 2), DivisorClass(-1, s.a0)}
                if set(log_splitting_type(validate_arrangement(s, a, 0)).leaves()) != want0:
                    ok, detail = False, f"b=0 coherence fails at {s} a={a}"
                if set(log_splitting_type(validate_arrangement(s, a, 1)).leaves()) != want1:
                    ok, detail = False, f"b=1 coherence fails at {s} a={a}"
    if ok:
        got = [(a, b) for a, b, _ in classify_regular_acm_log(Scroll(2, 2), 7, 4)]
        if got != [(a, 2) for a in range(2, 6)]:
            ok, detail = False, f"classification S(2,2) = {got}"
        got = [(a, b) for a, b, _ in classify_regular_acm_log(Scroll(3, 3), 9, 4)]
        if got != [(a, 2) for a in range(2, 8)]:
            ok, detail = False, f"classification S(3,3) = {got}"
        try:
            classify_regular_acm_log(Scroll(1, 1), 5, 4)
            ok, detail = False, "S(1,1) accepted despite c = 2"
        except HypothesisViolated:
            pass
    _report(5, "log residue consistency, formula coherence, classification", ok, detail)


def test_criterion_6_erratum_regression():
    s = Scroll(1, 2)
    e = bundle_sum(DivisorClass(0, 1))
    # the printed hypotheses hold numerically for E = O(f)
    hyp = (
        is_regular(s, e).verdict is Verdict.TRUE
        and sum_cohomology(s, e, DivisorClass(-2, s.c - 1)).h1 == 1
        and sum_cohomology(s, e, DivisorClass(-1, s.a0 - 1)).h1 == 0
        and sum_cohomology(s, e, DivisorClass(-1, s.a1 - 1)).h1 == 0
        and sum_cohomology(s, e, DivisorClass(-2, s.c - 2)).h1 == 0
    )
    v = detect_line_summand(s, e)
    # detector must answer O(f), not the misprinted O(H-f)
    ok = (
        hyp
        and v.verdict is Verdict.TRUE
        and v.summand == DivisorClass(0, 1)
        and v.summand != DivisorClass(1, -1)
        and v.witness.name == "h1(E(-2H+(c-1)f))"
        and v.witness.lo == 1
    )
    _report(6, "summand detector follows the proof mapping on E = O(f)", ok,
            f"verdict {v.verdict}, summand {v.summand}")


def _run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "scrollcalc.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _random_spec_expr(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.5:
        return random_sum_bundle(rng, max_rank=4)
    return Ext(_random_spec_expr(rng, depth - 1), _random_spec_expr(rng, depth - 1))


def test_criterion_7_cli_goldens_and_round_trip():
    code1, out1, _ = _run_cli("cohomology", "--scroll", "1,2", "--divisor", "1,0", "--json")
    code2, out2, _ = _run_cli("ulrich", "--scroll", "1,2", "--bundle", "ext(O(1,-1); O(0,2))")
    code3, _, err3 = _run_cli("cohomology", "--scroll", "0,1", "--divisor", "0,0")
    ok = (
        code1 == 0
        and out1 == (GOLDEN / "cohomology_s12_h.json").read_text()
        and json.loads(out1) == {"scroll": {"a0": 1, "a1": 2}, "divisor": [1, 0], "h": [5, 0, 0], "chi": 5}
        and code2 == 0
        and out2 == (GOLDEN / "ulrich_ext_s12.txt").read_text()
        and code3 == 3
        and err3 == (GOLDEN / "invalid_scroll.txt").read_text()
    )
    detail = f"exit codes {code1},{code2},{code3}"
    if ok:
        rng = random.Random(12345)
        for _ in range(100):
            expr = _random_spec_expr(rng, 2)
            text = format_bundle(expr)
            if format_bundle(parse_bundle_spec(text)) != text:
                ok, detail = False, f"round trip broke on {text!r}"
                break
    _report(7, "CLI goldens byte-identical and 100 spec round-trips", ok, detail)
