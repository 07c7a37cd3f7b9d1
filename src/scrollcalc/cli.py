"""Command line front end.

Every subcommand handler takes the parsed arguments, the scroll and the
parsed `--bundle` (None for commands without one) and returns one
result: the JSON object and the lines of the plain form.  `main` builds
the scroll and the bundle, calls the handler and prints the result,
one JSON line under `--json` and the plain lines otherwise; it is the
only place that writes to stdout.  `table` has no JSON form: it returns
None and a lazy iterator of CSV text: the header, then one chunk of
rows per batch of `extensions.BATCH_BOUND` twists, formatted from the
values of one walk of the tree compiled once and printed by one call,
so memory does not grow with the width of `--twists`.

A handler describes its result once and `_render` writes both forms:
the JSON envelope `{"scroll", "input", <result fields>, "witnesses",
"flags"}`, and the plain lines, one `key: value` per result field in
order, then one line per witness (a witness is a pair of its JSON object
and its plain line), then one `key: value` per flag (a split verdict's
`note`, `log`'s `supported` and `formula_only`).  Fields that are None
are left out of both, and a value that is not a string prints as its
JSON text.  `cohomology` and `table` keep shapes of their own; `ext1`,
`log-check` and `classify-log` keep their own plain lines, and take
their JSON from `_render`.

Exit codes: 0 when a result was computed (negative and indeterminate
verdicts included), 2 for usage or bundle-spec parse errors, 3 for
domain errors such as invalid scrolls or unsupported arrangements and
for a computation that runs out of memory or overflows a machine-sized
integer, as an h-coefficient of 2^63 or more does (stdout keeps what
was printed before, for `table` its header), and 141 (EXIT_BROKEN_PIPE)
when stdout is closed before the output is all written, as in
`scrollcalc table ... | head`; nothing goes to stderr then.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bundlespec import format_bundle, parse_bundle_spec
from .cohomology import line_cohomology
from .errors import ParseError, RankMismatch, ScrollCalcError
from .extensions import Probe, Sum, Verdict, _batches, ext1_dim
from .logbundles import (
    classify_regular_acm_log,
    log_splitting_type,
    residue_consistency,
    validate_arrangement,
)
from .regularity import is_pp_regular, reg
from .scroll import DivisorClass, Scroll, twist_rectangle
from .splitting import (
    decide_split_acm3,
    decide_split_tH,
    detect_line_summand,
    is_acm,
    is_ulrich,
    make_ulrich,
)

# what `main` returns when the reader of stdout has gone away, as in
# `scrollcalc table ... | head`: 128 + SIGPIPE, the status a shell
# reports for a writer killed by the signal
EXIT_BROKEN_PIPE = 141

_SPLIT_WORDS = {Verdict.TRUE: "splits", Verdict.FALSE: "fails", Verdict.INDETERMINATE: "indeterminate"}


def _int_pair(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(",")
        return (int(a), int(b))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'A,B' with integers, got {text!r}")


def _twist_ranges(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    try:
        hpart, fpart = text.split(",")
        hlo, hhi = (int(x) for x in hpart.split(":"))
        flo, fhi = (int(x) for x in fpart.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'HMIN:HMAX,FMIN:FMAX', got {text!r}")
    if hlo > hhi or flo > fhi:
        raise argparse.ArgumentTypeError("twist ranges must be nondecreasing")
    return ((hlo, hhi), (flo, fhi))


def _scroll_obj(s: Scroll) -> dict:
    return {"a0": s.a0, "a1": s.a1}


def _probe_pair(p: Probe, label: str) -> tuple[dict, str]:
    """A probe as a witness: its JSON object and its plain line."""
    return {"name": p.name, "twist": [p.twist.h, p.twist.f], "lo": p.lo, "hi": p.hi}, f"{label}: {p.describe()}"


def _render(s: Scroll, given, witnesses=(), flags=None, **fields) -> tuple[dict, list[str]]:
    """One result in both forms, by the rule of the module docstring;
    result fields whose value is None are left out of both."""
    fields = {k: v for k, v in fields.items() if v is not None}
    flags = flags or {}
    obj = {"scroll": _scroll_obj(s), "input": given, **fields, "witnesses": [w for w, _ in witnesses], "flags": flags}

    def plain(items):
        return [f"{k}: {v if isinstance(v, str) else json.dumps(v)}" for k, v in items]

    return obj, plain(fields.items()) + [line for _, line in witnesses] + plain(flags.items())


def _cmd_cohomology(args, s, b):
    d = DivisorClass(*args.divisor)
    rec = line_cohomology(s, d)
    obj = {"scroll": _scroll_obj(s), "divisor": [d.h, d.f], "h": [rec.h0, rec.h1, rec.h2], "chi": rec.chi}
    return obj, [f"h0 = {rec.h0}", f"h1 = {rec.h1}", f"h2 = {rec.h2}", f"chi = {rec.chi}"]


def _cmd_table(args, s, b):
    def chunks():
        yield "tH,tf,h0,h1,h2,chi"
        for batch, values in _batches(s, b, twist_rectangle(*args.twists)):
            yield "\n".join(
                f"{th},{tf},{lo0 if lo0 == hi0 else f'{lo0}..{hi0}'},{lo1 if lo1 == hi1 else f'{lo1}..{hi1}'},"
                f"{lo2 if lo2 == hi2 else f'{lo2}..{hi2}'},{chi}"
                for (th, tf), (lo0, hi0, lo1, hi1, lo2, hi2, chi) in zip(batch, values)
            )

    return None, chunks()


def _cmd_regularity(args, s, b):
    report = is_pp_regular(s, b, args.p, args.pp)
    r = reg(s, b)
    given = {"bundle": format_bundle(b), "p": args.p, "pp": args.pp}
    witnesses = [_probe_pair(p, "probe") for p in report.probes]
    return _render(s, given, witnesses, verdict=report.verdict.value, reg=r if isinstance(r, int) else r.value)


def _cmd_split(s, b, decide):
    verdict = decide(s, b)
    witnesses = []
    if verdict.failure is not None:
        w = verdict.failure
        line = f"witness: {w.name} at t = {w.twist.h}, value {w.lo}"
        witnesses.append(({"condition": w.name, "t": w.twist.h, "value": w.lo}, line))
    witnesses += (_probe_pair(p, "unresolved") for p in verdict.probes)
    splitting = format_bundle(verdict.witness) if verdict.witness is not None else None
    flags = {"note": verdict.note} if verdict.note else None
    return _render(s, format_bundle(b), witnesses, flags, verdict=_SPLIT_WORDS[verdict.outcome], splitting=splitting)


def _cmd_summand(args, s, b):
    result = detect_line_summand(s, b)
    witnesses = [_probe_pair(result.witness, "witness")] if result.witness is not None else []
    witnesses += (_probe_pair(p, "probe") for p in result.probes)
    summand = str(result.summand) if result.summand is not None else None
    return _render(s, format_bundle(b), witnesses, verdict=result.verdict.value, summand=summand)


def _cmd_acm(args, s, b):
    result = is_acm(s, b)
    witnesses = []
    if result.witness is not None:
        w = result.witness
        witnesses.append(({"t": w.twist.h, "value": w.lo}, f"witness: t = {w.twist.h}, h1 = {w.lo}"))
    witnesses += (_probe_pair(p, "unresolved") for p in result.probes)
    return _render(s, format_bundle(b), witnesses, verdict=result.verdict.value)


def _cmd_ulrich(args, s, b):
    result = is_ulrich(s, b)
    witnesses = []
    if result.witness is not None:
        witnesses = [_probe_pair(result.witness, "witness")]
    elif result.verdict is Verdict.INDETERMINATE:
        witnesses = [_probe_pair(p, "unresolved") for p in result.probes]
    return _render(s, format_bundle(b), witnesses, verdict=result.verdict.value)


def _cmd_ulrich_make(args, s, b):
    expr = make_ulrich(s, args.a, args.b)
    given = {"a": args.a, "b": args.b}
    return _render(s, given, bundle=format_bundle(expr), verdict=is_ulrich(s, expr).verdict.value)


def _cmd_ext1(args, s, b):
    from_, to = DivisorClass(*args.from_), DivisorClass(*args.to)
    dim = ext1_dim(s, from_, to)
    obj, _ = _render(s, {"from": [from_.h, from_.f], "to": [to.h, to.f]}, ext1=dim)
    return obj, [f"ext1 = {dim}"]


def _cmd_log(args, s, b):
    arr = validate_arrangement(s, args.lines, args.curves)
    flags = {"supported": arr.supported, "formula_only": arr.formula_only}
    given = {"lines": args.lines, "curves": args.curves}
    return _render(s, given, flags=flags, splitting=format_bundle(log_splitting_type(arr)))


def _cmd_log_check(args, s, b):
    arr = validate_arrangement(s, args.lines, args.curves)
    if args.claimed is None:
        claimed = log_splitting_type(arr)
    else:
        claimed = parse_bundle_spec(args.claimed)
        if not isinstance(claimed, Sum):
            raise RankMismatch("the claimed splitting must be a direct sum of line bundles")
    report = residue_consistency(arr, claimed, twist_rectangle(*args.twists))
    verdict = "true" if report.ok else "false"
    given = {"lines": args.lines, "curves": args.curves, "claimed": format_bundle(claimed)}
    witnesses = [
        ({"twist": [c.twist.h, c.twist.f], "lhs": c.lhs, "rhs": c.rhs},
         f"chi mismatch at twist {c.twist}: claimed {c.lhs}, residue {c.rhs}")
        for c in report.chi_failures
    ]
    obj, _ = _render(s, given, witnesses, verdict=verdict, c1_ok=report.c1_check,
                     chi_total=report.chi_total, chi_failed=report.chi_failed)
    lines = [
        f"verdict: {verdict}",
        f"c1: {'ok' if report.c1_check else 'mismatch, expected ' + str(report.c1_expected)}",
        f"chi: {report.chi_total - report.chi_failed}/{report.chi_total} ok",
    ]
    return obj, lines + [line for _, line in witnesses]


def _cmd_classify_log(args, s, b):
    found = [
        {"lines": a, "curves": c, "splitting": format_bundle(split)}
        for a, c, split in classify_regular_acm_log(s, args.max_lines, args.max_curves)
    ]
    obj, _ = _render(s, {"max_lines": args.max_lines, "max_curves": args.max_curves}, classification=found)
    return obj, [f"({r['lines']},{r['curves']}): {r['splitting']}" for r in found] + [f"count: {len(found)}"]


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scrollcalc",
        description="exact cohomology and bundle calculus on rational normal scrolls",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, bundle=False, divisor=False, json_flag=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scroll", type=_int_pair, required=True, metavar="A0,A1")
        if divisor:
            p.add_argument("--divisor", type=_int_pair, required=True, metavar="H,F")
        if bundle:
            p.add_argument("--bundle", required=True, metavar="SPEC")
        if json_flag:
            p.add_argument("--json", action="store_true")
        p.set_defaults(handler=handler, json=False)
        return p

    add("cohomology", _cmd_cohomology, "h^i and chi of one line bundle", divisor=True)

    p = add("table", _cmd_table, "CSV sweep of h^i over a twist rectangle", bundle=True, json_flag=False)
    p.add_argument("--twists", type=_twist_ranges, default=((-2, 2), (-3, 3)), metavar="HMIN:HMAX,FMIN:FMAX")

    p = add("regularity", _cmd_regularity, "regularity test and least regular h-twist", bundle=True)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--pp", type=int, default=0)

    add("split-h", lambda a, s, b: _cmd_split(s, b, decide_split_tH), "does the bundle split into h-twists of O", bundle=True)
    add("split-acm", lambda a, s, b: _cmd_split(s, b, decide_split_acm3), "does it split into twists of O, O(f), O(H-f)", bundle=True)
    add("summand", _cmd_summand, "detect a distinguished line summand of a regular bundle", bundle=True)
    add("acm", _cmd_acm, "is h^1(E(tH)) = 0 for every t", bundle=True)
    add("ulrich", _cmd_ulrich, "do all h^i(E(-H)) and h^i(E(-2H)) vanish", bundle=True)

    p = add("ulrich-make", _cmd_ulrich_make, "build an Ulrich bundle from block counts")
    p.add_argument("--a", type=int, required=True, help="number of O(H-f) blocks")
    p.add_argument("--b", type=int, required=True, help="number of O((c-1)f) blocks")

    p = add("ext1", _cmd_ext1, "dimension of Ext^1 between two line bundles")
    p.add_argument("--from", dest="from_", type=_int_pair, required=True, metavar="H,F")
    p.add_argument("--to", type=_int_pair, required=True, metavar="H,F")

    p = add("log", _cmd_log, "splitting type of the log bundle of an arrangement")
    p.add_argument("--lines", type=int, required=True)
    p.add_argument("--curves", type=int, required=True)

    p = add("log-check", _cmd_log_check, "residue-sequence consistency of a claimed splitting")
    p.add_argument("--lines", type=int, required=True)
    p.add_argument("--curves", type=int, required=True)
    p.add_argument("--claimed", metavar="SPEC")
    p.add_argument("--twists", type=_twist_ranges, default=((-4, 4), (-6, 6)), metavar="HMIN:HMAX,FMIN:FMAX")

    p = add("classify-log", _cmd_classify_log, "arrangements with regular ACM log bundles")
    p.add_argument("--max-lines", type=int, required=True)
    p.add_argument("--max-curves", type=int, required=True)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        s = Scroll(*args.scroll)
        b = parse_bundle_spec(args.bundle) if "bundle" in args else None
        obj, lines = args.handler(args, s, b)
        if args.json:
            lines = [json.dumps(obj, separators=(",", ":"))]
        try:
            for line in lines:
                print(line)
        except BrokenPipeError:
            _discard_stdout()
            return EXIT_BROKEN_PIPE
    except ScrollCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 3
    except MemoryError:
        print("error: the computation ran out of memory", file=sys.stderr)
        return 3
    except OverflowError:
        print("error: a coefficient is too large for the computation", file=sys.stderr)
        return 3
    return 0


def _discard_stdout() -> None:
    """Point a closed stdout's descriptor at devnull, so the interpreter's
    final flush of the unsent rows cannot fail a second time."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a file: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
