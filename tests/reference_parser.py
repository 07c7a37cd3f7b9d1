"""The bundle-spec parser as it was before the one-scan tokenizer: a
per-character `_tokenize` and per-token `_expect`/`_int` calls.  The
differential tests in test_bundlespec.py hold `parse_bundle_spec` to
it, tree for tree and error for error.  Patch `MAX_EXT_DEPTH` here and
in `scrollcalc.bundlespec` alike.
"""

from __future__ import annotations

from scrollcalc.errors import ParseError
from scrollcalc.extensions import BundleExpr, Ext, Sum
from scrollcalc.scroll import DivisorClass

_PUNCT = "(),;+*^"

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
        if ch.isdecimal() or (ch == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
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


def _expect(tok: tuple[str, str, int], kind: str) -> None:
    if tok[0] != kind:
        shown = tok[1] or "end of input"
        raise ParseError(f"expected {kind!r}, found {shown!r}", tok[2], (kind,))


def _int(tok: tuple[str, str, int]) -> int:
    _expect(tok, "int")
    return _int_value(tok)


def _nat(tok: tuple[str, str, int]) -> int:
    _expect(tok, "int")
    if tok[1].startswith("-"):
        raise ParseError(f"expected a nonnegative count, found {tok[1]!r}", tok[2], ("nat",))
    return _int_value(tok)


def _fold(pieces: list) -> BundleExpr:
    """A spec's pieces folded left into nested Ext nodes.  A piece is
    an Ext atom or a list of (class, count) pairs, one per run of plain
    terms, which becomes one Sum."""
    if not pieces:
        return Sum()
    pieces = [Sum(tuple(p)) if isinstance(p, list) else p for p in pieces]
    out = pieces[0]
    for piece in pieces[1:]:
        out = Ext(out, piece)
    return out


def parse_bundle_spec(text: str) -> BundleExpr:
    """Parse a bundle spec; errors carry character offsets, indices
    into `text` as a str rather than into its UTF-8 bytes.

    One loop reads the terms left to right.  The specs open around the
    current term wait on an explicit stack, so any nesting depth parses
    without recursion."""
    tokens, pos = _tokenize(text), 0
    # the spec being read: its pieces, the depth of their left fold and,
    # in the quotient of an ext, the folded sub and its depth
    pieces, depth, sub = [], 0, None
    # per open "ext(": the enclosing spec's pieces, depth and sub, and
    # the offset and count of the term that opened it
    stack: list = []
    while True:
        offset = tokens[pos][2]
        count = 1
        if tokens[pos][0] == "int":
            count = _nat(tokens[pos])
            _expect(tokens[pos + 1], "*")
            pos += 2
        tok = tokens[pos]
        if tok[0] != "name" or tok[1] not in ("O", "ext"):
            shown = tok[1] or "end of input"
            raise ParseError(f"expected 'O' or 'ext', found {shown!r}", tok[2], ("O", "ext"))
        _expect(tokens[pos + 1], "(")
        pos += 2
        if tok[1] == "ext":
            if len(stack) == MAX_EXT_DEPTH:
                raise ParseError(f"ext(...) nested deeper than {MAX_EXT_DEPTH} levels", tok[2], ("O",))
            stack.append((pieces, depth, sub, offset, count))
            pieces, depth, sub = [], 0, None
            continue
        h = _int(tokens[pos])
        _expect(tokens[pos + 1], ",")
        f = _int(tokens[pos + 2])
        _expect(tokens[pos + 3], ")")
        pos += 4
        atom, atom_depth = DivisorClass(h, f), 0
        # finish the term, then every spec and ext atom that ends with it
        while True:
            if tokens[pos][0] == "^":
                count *= _nat(tokens[pos + 1])
                pos += 2
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
            tok = tokens[pos]
            if tok[0] == "+":
                pos += 1
                break
            if not stack:
                if tok[0] != "end":
                    raise ParseError(f"trailing input {tok[1]!r}", tok[2], ("+", "end"))
                return _fold(pieces)
            if sub is None:
                _expect(tok, ";")
                pos += 1
                sub, pieces, depth = (_fold(pieces), depth), [], 0
                break
            _expect(tok, ")")
            pos += 1
            atom, atom_depth = Ext(sub[0], _fold(pieces)), 1 + max(sub[1], depth)
            pieces, depth, sub, offset, count = stack.pop()
