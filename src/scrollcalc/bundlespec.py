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

A parsed expression is at most MAX_EXT_DEPTH Ext levels deep, counted
on the folded tree below: "+" chains and multiplicities such as
"N*ext(...)" add levels just as nested "ext(" atoms do.  An "ext" token
nested past the bound is a ParseError at that token, raised before the
parser descends into it; a term whose folding passes the bound is a
ParseError at the start of that term, raised before its copies are
built.

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

from .errors import ParseError
from .extensions import BundleExpr, Ext, Sum
from .scroll import DivisorClass

_PUNCT = "(),;+*^"

# The parser recurses once per "ext(" nesting level.  The bound turns a
# deep spec into a ParseError instead of a RecursionError, with room
# for Ext depths up to 200, the top of the roadmap's depth-scaling
# curve.
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


def _int_value(tok: tuple[str, str, int]) -> int:
    try:
        return int(tok[1])
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"integer of {len(tok[1])} digits is too long", tok[2], ("int",)) from None


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
        return _int_value(self.expect("int"))

    def parse_nat(self) -> int:
        tok = self.expect("int")
        if tok[1].startswith("-"):
            raise ParseError(f"expected a nonnegative count, found {tok[1]!r}", tok[2], ("nat",))
        return _int_value(tok)

    def parse_spec(self) -> tuple[BundleExpr, int]:
        """A spec folded into one expression, and its depth: the number
        of Ext levels on its longest root-to-leaf path."""
        # Ext atoms, and lists of (class, count) pairs for the runs of
        # plain terms between them; each run becomes one Sum at the end
        pieces: list = []
        depth = 0  # of the left fold of `pieces`
        while True:
            offset = self.peek()[2]
            atom, atom_depth, count = self.parse_term()
            if isinstance(atom, DivisorClass):
                if pieces and isinstance(pieces[-1], list):
                    pieces[-1].append((atom, count))
                    count = 0
                else:
                    atom, count = [(atom, count)], 1
            if count:
                # every piece after the first adds one Ext level on top
                depth = max(depth, atom_depth) + count if pieces else atom_depth + count - 1
                if depth > MAX_EXT_DEPTH:
                    raise ParseError(f"ext(...) terms fold deeper than {MAX_EXT_DEPTH} levels", offset)
                pieces += [atom] * count
            if self.peek()[0] != "+":
                break
            self.advance()
        if not pieces:
            return Sum(), 0
        pieces = [Sum(tuple(p)) if isinstance(p, list) else p for p in pieces]
        out = pieces[0]
        for piece in pieces[1:]:
            out = Ext(out, piece)
        return out, depth

    def parse_term(self) -> tuple[DivisorClass | Ext, int, int]:
        """An atom, its depth and its multiplicity."""
        count = 1
        if self.peek()[0] == "int":
            count = self.parse_nat()
            self.expect("*")
        atom, depth = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            count *= self.parse_nat()
        return atom, depth, count

    def parse_atom(self) -> tuple[DivisorClass | Ext, int]:
        """A line bundle's class or an Ext node, and its depth."""
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
            return DivisorClass(h, f), 0
        if self.ext_depth == MAX_EXT_DEPTH:
            raise ParseError(f"ext(...) nested deeper than {MAX_EXT_DEPTH} levels", tok[2], ("O",))
        self.ext_depth += 1
        sub, sub_depth = self.parse_spec()
        self.expect(";")
        quot, quot_depth = self.parse_spec()
        self.expect(")")
        self.ext_depth -= 1
        return Ext(sub, quot), 1 + max(sub_depth, quot_depth)


def parse_bundle_spec(text: str) -> BundleExpr:
    """Parse a bundle spec; errors carry byte offsets."""
    parser = _Parser(text)
    expr, _ = parser.parse_spec()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], ("+", "end"))
    return expr


def _format_sum(b: Sum) -> str:
    if not b.terms:
        return "0*O(0,0)"
    return " + ".join(f"O({d.h},{d.f})" if n == 1 else f"{n}*O({d.h},{d.f})" for d, n in b.terms)


def format_bundle(b: BundleExpr) -> str:
    """Canonical text for a bundle expression, written left to right
    from an explicit stack, so any depth prints without recursion."""
    out: list[str] = []
    todo: list[BundleExpr | str] = [b]  # a str is literal text
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Ext):
            todo += (")", item.quot, "; ", item.sub, "ext(")
        else:
            out.append(_format_sum(item))
    return "".join(out)


def normalize(text: str) -> str:
    """format(parse(text)); idempotent by construction."""
    return format_bundle(parse_bundle_spec(text))
