"""Command line front end.

Each subcommand handler takes the parsed arguments, the scroll and the
parsed `--bundle` (None for commands without one) and returns the JSON
object and the plain lines of its result; `main` prints one or the
other, and is the only place that writes to stdout.

The decision subcommands are the rows of one table, `_DECISIONS`, all
run by `_cmd_decision`.  A row holds the name, help and API call, which
returns the record `ProbeVerdict`; the verdict's words; the result field
that prints the record's value, and how; the witness format, or none
(`regularity` prints its refuting probe among its probe lines); the
probe lines' label, and whether they print on INDETERMINATE only; and
the integer options, which the input echoes.

`_render` writes both forms: the JSON envelope `{"scroll", "input",
<result fields>, "witnesses", "flags"}`, and as plain lines one
`key: value` per result field in order, one line per witness (a pair of
its JSON object and plain line) and one `key: value` per flag (a split
verdict's `note`, `log`'s `supported` and `formula_only`).  Fields that
are None are left out of both, and a value that is not a string prints
as its JSON text.  `ext1`, `log-check` and `classify-log` print plain
lines of their own.  `cohomology` has its own JSON and `table` none: it
returns a lazy iterator of CSV chunks, the header and then the rows of
`extensions.BATCH_BOUND` twists at a time from one walk of the tree
compiled once, so memory does not grow with the width of `--twists`.

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
from collections.abc import Callable
from typing import NamedTuple

from .bundlespec import format_bundle, parse_bundle_spec
from .cohomology import line_cohomology
from .errors import ParseError, RankMismatch, ScrollCalcError
from .extensions import Probe, Sum, Verdict, _batches, ext1_dim
from .logbundles import classify_regular_acm_log, log_splitting_type, residue_consistency, validate_arrangement
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

_WORDS = {v: v.value for v in Verdict}
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


# a witness probe as its JSON object and plain line, by a row's format
_WITNESS = {
    "split": lambda w: ({"condition": w.name, "t": w.twist.h, "value": w.lo},
                        f"witness: {w.name} at t = {w.twist.h}, value {w.lo}"),
    "acm": lambda w: ({"t": w.twist.h, "value": w.lo}, f"witness: t = {w.twist.h}, h1 = {w.lo}"),
    "probe": lambda w: _probe_pair(w, "witness"),
}


class _Decision(NamedTuple):
    """A decision subcommand: one row of `_DECISIONS`, run by `_cmd_decision`."""

    name: str
    help: str
    call: Callable  # (scroll, bundle, *options) -> ProbeVerdict
    value: tuple | None = None  # (result field, printer) of the record's value
    witness: str | None = None  # a key of _WITNESS
    words: dict = _WORDS  # verdict -> the word it prints as
    label: str = "unresolved"  # of each carried probe's line
    undecided_probes_only: bool = False  # print the probes on INDETERMINATE alone
    options: tuple[str, ...] = ()  # integer options, default 0, echoed in the input


# the value, witness format and words of both split rows
_SPLIT = (("splitting", format_bundle), "split", _SPLIT_WORDS)
_DECISIONS = (
    _Decision("regularity", "regularity test and least regular h-twist",  # reg's int or Verdict rides in value
              lambda s, b, p, pp: is_pp_regular(s, b, p, pp)._replace(value=reg(s, b)),
              ("reg", lambda r: r.value if isinstance(r, Verdict) else r), label="probe", options=("p", "pp")),
    _Decision("split-h", "does the bundle split into h-twists of O", decide_split_tH, *_SPLIT),
    _Decision("split-acm", "does it split into twists of O, O(f), O(H-f)", decide_split_acm3, *_SPLIT),
    _Decision("summand", "detect a distinguished line summand of a regular bundle", detect_line_summand,
              ("summand", str), "probe", label="probe"),
    _Decision("acm", "is h^1(E(tH)) = 0 for every t", is_acm, witness="acm"),
    _Decision("ulrich", "do all h^i(E(-H)) and h^i(E(-2H)) vanish", is_ulrich, witness="probe",
              undecided_probes_only=True),
)


def _cmd_decision(row: _Decision, args, s, b):
    options = {name: getattr(args, name) for name in row.options}
    r = row.call(s, b, *options.values())
    witnesses = [_WITNESS[row.witness](r.witness)] if row.witness and r.witness is not None else []
    if not row.undecided_probes_only or r.verdict is Verdict.INDETERMINATE:
        witnesses += (_probe_pair(p, row.label) for p in r.probes)
    fields = {"verdict": row.words[r.verdict]}
    if row.value and r.value is not None:
        fields[row.value[0]] = row.value[1](r.value)
    given = {"bundle": format_bundle(b), **options} if options else format_bundle(b)
    return _render(s, given, witnesses, {"note": r.note} if r.note else None, **fields)


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

    for row in _DECISIONS:
        p = add(row.name, functools.partial(_cmd_decision, row), row.help, bundle=True)
        for name in row.options:
            p.add_argument(f"--{name}", type=int, default=0)

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
