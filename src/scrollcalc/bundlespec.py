"""Text syntax for bundle expressions.

Grammar (whitespace ignored between tokens):

    spec := term ("+" term)*
    term := [nat "*"] atom ["^" nat]
    atom := "O(" int "," int ")"
          | "ext(" spec ";" spec ")"

"O(h,f)" is the line bundle O(hH + ff); "ext(A; B)" is the class of
extensions 0 -> A -> E -> B -> 0.  "2*O(0,3)" and "O(0,3)^2" both mean
O(0,3) + O(0,3).  The multiplicities of line bundles are stored as
counts, never expanded, so "O(0,0)^1000000000" costs no more than
"O(0,0)".

One scan of one regular expression, `_TOKEN`, reads the text: a
well-formed "O(h,f)", whitespace and all, is one token carrying both
integers, as are "ext(", a count "n*" and a power "^n", and any other
token is one int, name or punctuation mark.  Where a token does not fit,
`_fail` reads on by the single-token rules: an unexpected character
anywhere is the error, else the first token out of place.

The parser keeps the specs open around the current term on an explicit
stack, so it has no depth limit of its own.  As a policy, a parsed
expression is at most MAX_EXT_DEPTH Ext levels deep, counted on the
folded tree below: "+" chains and multiplicities such as "N*ext(...)"
add levels just as nested "ext(" atoms do.  An "ext" token nested past
the bound is a ParseError at that token, raised once its "(" is read; a
term whose folding passes the bound is a ParseError at the start of
that term, raised before its copies are built.

A "+" of plain line-bundle terms builds one Sum, with the counts of
equal classes added.  When ext terms are mixed in, each run of adjacent
line-bundle terms becomes one Sum and the pieces are folded left to
right into nested extension classes; the direct sum is always a member
of the resulting class, so cohomology bounds stay valid (they may just
stop being forced).

`format_bundle` prints a canonical form: a Sum's counted classes in
sorted order, each as "n*O(h,f)" or, when n = 1, "O(h,f)", and
extensions as ext(...; ...).  parse followed by format is idempotent,
which is the normalisation contract the round-trip tests pin down.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NoReturn

from .errors import ParseError
from .extensions import BundleExpr, Ext, Sum, _pieces
from .scroll import DivisorClass

_SINGLE = re.compile(r"-?\d+|[^\W\d_]+|\S")
# groups: O(h,f)'s h and f, "ext(", a count, a power and a single token
_TOKEN = re.compile(r"O\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)|(ext)\s*\(|(\d+)\s*\*|\^\s*(\d+)|(" + _SINGLE.pattern + ")")

# A policy, not a limit of the parser or of any walk of the tree: room
# for Ext depths up to 200, the top of the roadmap's depth-scaling curve.
MAX_EXT_DEPTH = 200


def _single(m: re.Match) -> tuple[str, str, int]:
    """A single token as (kind, text, offset); kind is "int", "name" or the mark."""
    text, s = m[0], m.start()
    if text[-1].isdecimal() or text in "(),;+*^":
        return ("int" if text[-1].isdecimal() else text, text, s)
    for i, ch in enumerate(text):
        if not ch.isalpha():  # "[^\W\d_]" also takes digits such as "²"
            raise ParseError(f"unexpected character {ch!r}", s + i, ("token",))
    return ("name", text, s)


def _expect(tok: tuple[str, str, int], kind: str) -> None:
    """The rule for one single token: `kind` is due ("nat": an unsigned int)."""
    due = "int" if kind == "nat" else kind
    if tok[0] != due:
        raise ParseError(f"expected {due!r}, found {tok[1] or 'end of input'!r}", tok[2], (due,))
    if kind == "nat" and tok[1].startswith("-"):
        raise ParseError(f"expected a nonnegative count, found {tok[1]!r}", tok[2], ("nat",))
    if due == "int":
        try:
            int(tok[1])
        except ValueError:  # more digits than the interpreter converts
            raise ParseError(f"integer of {len(tok[1])} digits is too long", tok[2], ("int",)) from None


def _fail(text: str, pos: int, rule: str | tuple[str, tuple[str, ...]] = "term") -> NoReturn:
    """Raise the error from the pos-th token on by the single-token rules.
    `rule` is what is due there: a "term", a tail closed by ";", ")" or
    the "end", or a depth error (message, expected) at that token."""
    start = next((m.start() for m in islice(_TOKEN.finditer(text), pos, None)), len(text))
    tokens = [_single(m) for m in _SINGLE.finditer(text, start)] + [("end", "", len(text))]
    if type(rule) is tuple:
        raise ParseError(rule[0], start, rule[1])
    if tokens[0][0] == ("int" if rule == "term" else "^"):  # a count or a power
        for tok, kind in zip(tokens, ("nat", "*") if rule == "term" else ("^", "nat")):
            _expect(tok, kind)
        tokens = tokens[2:]
    tok = tokens[0]
    if rule == "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], ("+", "end"))
    if rule != "term":
        _expect(tok, rule)  # raises: the parser takes the closer itself
    if tok[0] != "name" or tok[1] not in ("O", "ext"):
        raise ParseError(f"expected 'O' or 'ext', found {tok[1] or 'end of input'!r}", tok[2], ("O", "ext"))
    # "ext" without its "(", or an O without two convertible ints
    for tok, kind in zip(tokens[1:], ("(", "int", ",", "int", ")")):
        _expect(tok, kind)
    raise AssertionError(f"no error from token {pos} of {text!r}")


def _fold(pieces: list) -> BundleExpr:
    """A spec's pieces folded left into nested Ext nodes: Ext atoms, and
    lists of (class, count) pairs, one per run of plain terms, as Sums."""
    out = None
    for piece in pieces:
        piece = Sum(tuple(piece)) if type(piece) is list else piece
        out = piece if out is None else Ext(out, piece)
    return Sum() if out is None else out


def parse_bundle_spec(text: str) -> BundleExpr:
    """Parse a bundle spec; errors carry character offsets, indices
    into `text` as a str rather than into its UTF-8 bytes."""
    tokens, pos = _TOKEN.findall(text) + [("",) * 6], 0  # and an empty end
    # the spec being read: its pieces, the depth of their left fold and,
    # in the quotient of an ext, the folded sub and its depth
    pieces, depth, sub = [], 0, None
    # per open "ext(": the enclosing spec's pieces, depth and sub, and
    # the token and count that opened its term
    stack: list = []
    try:
        while True:
            start, tail = pos, None
            h, f, ext, count, _, _ = tokens[pos]
            if count:
                pos += 1
                h, f, ext, _, _, _ = tokens[pos]
            count = int(count) if count else 1
            pos += 1
            if ext:
                if len(stack) == MAX_EXT_DEPTH:
                    _fail(text, pos - 1, (f"ext(...) nested deeper than {MAX_EXT_DEPTH} levels", ("O",)))
                stack.append((pieces, depth, sub, start, count))
                pieces, depth, sub = [], 0, None
                continue
            atom, atom_depth = tuple.__new__(DivisorClass, (int(h), int(f))), 0
            # finish the term, then every spec and ext atom that ends with it
            while True:
                tail = pos
                if tokens[pos][4]:
                    count *= int(tokens[pos][4])
                    pos += 1
                if type(atom) is DivisorClass:
                    if pieces and type(pieces[-1]) is list:
                        pieces[-1].append((atom, count))
                        count = 0
                    else:
                        atom, count = [(atom, count)], 1
                if count:
                    # every piece after the first adds one Ext level on top
                    depth = max(depth, atom_depth) + count if pieces else atom_depth + count - 1
                    if depth > MAX_EXT_DEPTH:
                        if tokens[tail][5] == "^":  # a bad power's error comes first
                            _fail(text, tail, "end")
                        _fail(text, start, (f"ext(...) terms fold deeper than {MAX_EXT_DEPTH} levels", ()))
                    pieces += [atom] * count
                other = tokens[pos][5]
                if other == "+":
                    pos += 1
                    break
                if not stack:
                    if any(tokens[pos]):
                        _fail(text, tail, "end")
                    return _fold(pieces)
                if sub is None:
                    if other != ";":
                        _fail(text, tail, ";")
                    pos += 1
                    sub, pieces, depth = (_fold(pieces), depth), [], 0
                    break
                if other != ")":
                    _fail(text, tail, ")")
                pos += 1
                atom, atom_depth = Ext(sub[0], _fold(pieces)), 1 + max(sub[1], depth)
                pieces, depth, sub, start, count = stack.pop()
    except ValueError:  # not a term, or an int too long to convert
        at, rule = (start, "term") if tail is None else (tail, "end")
    _fail(text, at, rule)  # outside the handler, so no ValueError is chained


def _format_sum(b: Sum) -> str:
    return " + ".join(str(d) if n == 1 else f"{n}*{d}" for d, n in b.terms) or "0*O(0,0)"


def format_bundle(b: BundleExpr) -> str:
    """Canonical text for a bundle expression, written left to right
    from an explicit stack, so any depth prints without recursion."""
    return "".join(p if isinstance(p, str) else _format_sum(p) for p in _pieces(b, "ext(", "; ", ")"))


def normalize(text: str) -> str:
    """format(parse(text)); idempotent by construction."""
    return format_bundle(parse_bundle_spec(text))
