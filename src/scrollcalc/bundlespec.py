"""Text syntax for bundle expressions.

Grammar (whitespace ignored between tokens):

    spec := term ("+" term)*
    term := [nat "*"] atom ["^" nat]
    atom := "O(" int "," int ")"
          | "ext(" spec ";" spec ")"

"O(h,f)" is the line bundle O(hH + ff); "ext(A; B)" is the class of
extensions 0 -> A -> E -> B -> 0.  Multiplicities multiply out into
multisets: "2*O(0,3)" and "O(0,3)^2" both mean O(0,3) + O(0,3).

"ext(" atoms nest at most MAX_EXT_DEPTH deep; a deeper one is a
ParseError at the offending "ext" token, raised before the parser
descends into it.

A "+" of plain line-bundle terms builds one Sum.  When ext terms are
mixed in, adjacent line-bundle runs are merged into Sums and the pieces
are folded left to right into nested extension classes; the direct sum
is always a member of the resulting class, so cohomology bounds stay
valid (they may just stop being forced).

`format_bundle` prints a canonical form: summands sorted with grouped
multiplicities, extensions as ext(...; ...).  parse followed by format
is idempotent, which is the normalisation contract the round-trip tests
pin down.
"""

from __future__ import annotations

from .cohomology import LineBundleSum
from .errors import ParseError
from .extensions import BundleExpr, Ext, Sum
from .scroll import DivisorClass

_PUNCT = "(),;+*^"

# The parser and the evaluators recurse once per nesting level.  The
# bound turns a deep spec into a ParseError instead of a RecursionError,
# with room for Ext depths up to 200, the top of the roadmap's
# depth-scaling curve.
MAX_EXT_DEPTH = 200


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            out.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i, ("token",))
    out.append(("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ext_depth = 0  # "ext(" atoms open around the current position

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            shown = tok[1] or "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", tok[2], (kind,))
        return self.advance()

    def parse_int(self) -> int:
        return int(self.expect("int")[1])

    def parse_nat(self) -> int:
        tok = self.expect("int")
        if tok[1].startswith("-"):
            raise ParseError(f"expected a nonnegative count, found {tok[1]!r}", tok[2], ("nat",))
        return int(tok[1])

    def parse_spec(self) -> BundleExpr:
        pieces = self.parse_term()
        while self.peek()[0] == "+":
            self.advance()
            pieces.extend(self.parse_term())
        return _fold(pieces)

    def parse_term(self) -> list[BundleExpr]:
        count = 1
        if self.peek()[0] == "int":
            count = self.parse_nat()
            self.expect("*")
        atom = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            count *= self.parse_nat()
        if isinstance(atom, Sum):
            return [Sum(LineBundleSum(atom.bundle.summands * count))]
        return [atom] * count

    def parse_atom(self) -> BundleExpr:
        tok = self.peek()
        if tok[0] != "name" or tok[1] not in ("O", "ext"):
            shown = tok[1] or "end of input"
            raise ParseError(f"expected 'O' or 'ext', found {shown!r}", tok[2], ("O", "ext"))
        self.advance()
        self.expect("(")
        if tok[1] == "O":
            h = self.parse_int()
            self.expect(",")
            f = self.parse_int()
            self.expect(")")
            return Sum(LineBundleSum((DivisorClass(h, f),)))
        if self.ext_depth == MAX_EXT_DEPTH:
            raise ParseError(f"ext(...) nested deeper than {MAX_EXT_DEPTH} levels", tok[2], ("O",))
        self.ext_depth += 1
        sub = self.parse_spec()
        self.expect(";")
        quot = self.parse_spec()
        self.expect(")")
        self.ext_depth -= 1
        return Ext(sub, quot)


def _fold(pieces: list[BundleExpr]) -> BundleExpr:
    merged: list[BundleExpr] = []
    for piece in pieces:
        if merged and isinstance(piece, Sum) and isinstance(merged[-1], Sum):
            merged[-1] = Sum(LineBundleSum(merged[-1].bundle.summands + piece.bundle.summands))
        else:
            merged.append(piece)
    if not merged:
        return Sum(LineBundleSum(()))
    out = merged[0]
    for piece in merged[1:]:
        out = Ext(out, piece)
    return out


def parse_bundle_spec(text: str) -> BundleExpr:
    """Parse a bundle spec; errors carry byte offsets."""
    parser = _Parser(text)
    expr = parser.parse_spec()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], ("+", "end"))
    return expr


def format_bundle(b: BundleExpr) -> str:
    """Canonical text for a bundle expression."""
    if isinstance(b, Sum):
        if b.rank() == 0:
            return "0*O(0,0)"
        parts = []
        summands = b.bundle.summands  # already sorted
        i = 0
        while i < len(summands):
            j = i
            while j < len(summands) and summands[j] == summands[i]:
                j += 1
            d, count = summands[i], j - i
            text = f"O({d.h},{d.f})"
            parts.append(text if count == 1 else f"{count}*{text}")
            i = j
        return " + ".join(parts)
    assert isinstance(b, Ext)
    return f"ext({format_bundle(b.sub)}; {format_bundle(b.quot)})"


def normalize(text: str) -> str:
    """format(parse(text)); idempotent by construction."""
    return format_bundle(parse_bundle_spec(text))
