import sys
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from scrollcalc import bundlespec
from scrollcalc import (
    DivisorClass,
    Ext,
    ParseError,
    Sum,
    bundle_sum,
    format_bundle,
    normalize,
    parse_bundle_spec,
)

divisors = st.builds(
    DivisorClass, st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9)
)
sums = st.lists(divisors, min_size=1, max_size=4).map(lambda ds: bundle_sum(*ds))


def exprs(depth=2):
    if depth == 0:
        return sums
    inner = exprs(depth - 1)
    return st.one_of(sums, st.builds(Ext, inner, inner))


def test_frozen_parses():
    b = parse_bundle_spec("O(1,-1) + 2*O(0,3)")
    assert isinstance(b, Sum) and b.rank() == 3

    b = parse_bundle_spec("ext(O(1,-1)^2; O(0,2))")
    assert isinstance(b, Ext)
    assert b.sub.rank() == 2 and b.quot.rank() == 1

    with pytest.raises(ParseError) as exc:
        parse_bundle_spec("O(1;2)")
    assert exc.value.offset == 3
    assert "," in exc.value.expected


def test_multiplicity_and_power():
    assert parse_bundle_spec("2*O(1,0)^3").rank() == 6
    assert parse_bundle_spec("0*O(5,5)").rank() == 0
    assert format_bundle(parse_bundle_spec("0*O(5,5)")) == "0*O(0,0)"


def test_whitespace_ignored():
    a = parse_bundle_spec("O(1,-1)+2*O(0,3)")
    b = parse_bundle_spec("  O( 1 , -1 )   + 2 * O( 0 , 3 ) ")
    assert format_bundle(a) == format_bundle(b)


def test_canonical_form_groups_and_sorts():
    assert normalize("O(0,3) + O(1,-1) + O(0,3)") == "2*O(0,3) + O(1,-1)"
    assert normalize("ext(O(1,-1)^2; O(0,2))") == "ext(2*O(1,-1); O(0,2))"


def test_mixed_plus_and_ext_folds():
    b = parse_bundle_spec("ext(O(1,-1); O(0,2)) + O(2,0)")
    assert isinstance(b, Ext) and b.rank() == 3
    b = parse_bundle_spec("O(1,0) + ext(O(0,0); O(1,1))")
    assert isinstance(b, Ext) and b.rank() == 3
    # adjacent plain sums merge before any ext folding
    b = parse_bundle_spec("O(1,0) + O(2,0) + ext(O(0,0); O(1,1))")
    assert isinstance(b, Ext) and b.sub.rank() == 2


@pytest.mark.parametrize(
    "text,offset",
    [
        ("O(1;2)", 3),
        ("O(1,2", 5),
        ("Q(1,2)", 0),
        ("O(1,2)^-1", 7),
        ("", 0),
        ("O(1,2) trailing", 7),
        ("O(1,2) @", 7),
        ("O(\u00b2,0)", 2),
        ("O(0,1\u00b2)", 5),
    ],
)
def test_error_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        parse_bundle_spec(text)
    assert exc.value.offset == offset
    assert f"(at offset {offset})" in str(exc.value)
    if "\u00b2" in text:
        # a digit that int() rejects is not part of an integer token
        assert str(exc.value) == f"unexpected character '\u00b2' (at offset {offset})"


def test_non_ascii_decimal_digits_parse():
    assert format_bundle(parse_bundle_spec("O(\u0663,0)")) == "O(3,0)"


NESTED_201 = "ext(" * 201 + "O(0,0)" + "; O(0,0))" * 201


@pytest.mark.parametrize(
    "text,message,offset,expected",
    [
        ("O(1,2) @", "unexpected character '@'", 7, ("token",)),
        ("O(0," + "1" * 5000 + ")", "integer of 5000 digits is too long", 4, ("int",)),
        ("O(1;2)", "expected ',', found ';'", 3, (",",)),
        ("O(1,2)^-1", "expected a nonnegative count, found '-1'", 7, ("nat",)),
        ("201*ext(O(0,0); O(0,0))", "ext(...) terms fold deeper than 200 levels", 0, ()),
        ("Q(1,2)", "expected 'O' or 'ext', found 'Q'", 0, ("O", "ext")),
        (NESTED_201, "ext(...) nested deeper than 200 levels", 800, ("O",)),
        ("O(1,2) trailing", "trailing input 'trailing'", 7, ("+", "end")),
    ],
    ids=["character", "long-int", "token-kind", "nat", "fold", "atom", "nesting", "trailing"],
)
def test_each_parse_error_site(text, message, offset, expected):
    with pytest.raises(ParseError) as exc:
        parse_bundle_spec(text)
    assert str(exc.value) == f"{message} (at offset {offset})"
    assert exc.value.offset == offset
    assert exc.value.expected == expected


@given(exprs())
def test_round_trip_is_identity_on_canonical_form(b):
    text = format_bundle(b)
    assert format_bundle(parse_bundle_spec(text)) == text
    assert normalize(text) == text


@given(exprs())
def test_round_trip_preserves_structure(b):
    parsed = parse_bundle_spec(format_bundle(b))
    assert parsed.rank() == b.rank()
    assert sorted(parsed.leaves()) == sorted(b.leaves())


EXT1 = "ext(O(0,0); O(0,0))"


@pytest.mark.parametrize(
    "text,offset",
    [
        (f"201*{EXT1}", 0),
        (f"{EXT1}^201", 0),
        (f"{EXT1}^1000000000", 0),
        (f"O(0,0) + 200*{EXT1}", 9),
        (" + ".join([EXT1] * 201), 22 * 200),
        # the first piece adds no level, so the 201st level is the O(0,1)
        # of the 101st pair
        (" + ".join(["O(0,1) + " + EXT1] * 101), 31 * 100),
        (f"ext(200*{EXT1}; O(0,0))", 0),
    ],
    ids=["count", "power", "huge-power", "sum-then-count", "plus", "alternating", "nested-count"],
)
def test_folded_depth_bound(text, offset):
    with pytest.raises(ParseError) as exc:
        parse_bundle_spec(text)
    assert str(exc.value) == f"ext(...) terms fold deeper than 200 levels (at offset {offset})"


@pytest.mark.parametrize(
    "text,rank",
    [(f"200*{EXT1}", 400), (f"O(0,0) + 199*{EXT1}", 399), (" + ".join([EXT1] * 200), 400)],
    ids=["count", "sum-then-count", "plus"],
)
def test_folded_depth_at_bound_parses(text, rank):
    assert parse_bundle_spec(text).rank() == rank


def test_deep_nesting_parses_without_recursion():
    # the parser keeps no Python frame per "ext(", so only the policy
    # bound stops a deep spec; lifted, 100,000 levels parse at the
    # interpreter's default recursion limit
    n = 100_000
    text = "ext(O(0,0); " * n + "O(0,0)" + ")" * n
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with mock.patch.object(bundlespec, "MAX_EXT_DEPTH", 10**6):
            b = parse_bundle_spec(text)
    finally:
        sys.setrecursionlimit(limit)
    assert b.rank() == n + 1
    assert format_bundle(b) == text


def _ext_depth(b):
    return 0 if isinstance(b, Sum) else 1 + max(_ext_depth(b.sub), _ext_depth(b.quot))


def _specs(atoms):
    # an ext term multiplied by 0 is still parsed and bounded, but leaves
    # no trace in the tree, so ext terms get a positive count here
    return st.lists(st.tuples(st.integers(0, 3), atoms), min_size=1, max_size=4).map(
        lambda terms: " + ".join(f"{max(n, int(a.startswith('ext')))}*{a}" for n, a in terms)
    )


_atoms = st.recursive(
    st.sampled_from(["O(0,1)", "O(1,0)"]),
    lambda inner: st.builds(lambda a, b: f"ext({a}; {b})", _specs(inner), _specs(inner)),
    max_leaves=8,
)


@given(_specs(_atoms))
def test_depth_bound_counts_the_folded_tree(text):
    b = parse_bundle_spec(text)
    with mock.patch.object(bundlespec, "MAX_EXT_DEPTH", 3):
        try:
            bounded = parse_bundle_spec(text)
        except ParseError:
            bounded = None
    if _ext_depth(b) <= 3:
        assert bounded is not None and format_bundle(bounded) == format_bundle(b)
    else:
        assert bounded is None



# the grammar's alphabet, with "ext" and multi-digit numbers as whole tokens
_TOKENS = ["O", "ext", "e", "x", "t", "(", ")", ",", ";", "+", "*", "^", "-", " "]
_TOKENS += ["0", "1", "2", "7", "10", "300"]
_ints = st.integers(min_value=-12, max_value=12).map(str)


def _spec_texts(atoms):
    counts, powers = st.sampled_from(["", "0*", "2*", "10 * "]), st.sampled_from(["", "^0", "^3"])
    term = st.builds("{}{}{}".format, counts, atoms, powers)
    return st.lists(term, min_size=1, max_size=3).map(" + ".join)


_valid_specs = _spec_texts(
    st.recursive(
        st.builds("O({},{})".format, _ints, _ints),
        lambda inner: st.builds("ext({}; {})".format, _spec_texts(inner), _spec_texts(inner)),
        max_leaves=6,
    )
)


@st.composite
def _fuzzed_specs(draw):
    """Grammar-built text with up to three tokens inserted or characters
    deleted, or tokens of the alphabet strung together at random."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(_TOKENS), max_size=40)))
    text = draw(_valid_specs)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        insert = draw(st.sampled_from(_TOKENS)) if draw(st.booleans()) else ""
        text = text[:i] + insert + text[i + (not insert):]
    return text


@given(_fuzzed_specs())
def test_fuzzed_text_parses_or_raises_parse_error(text):
    # only parsing and formatting: the cohomology of a huge coefficient
    # still costs time linear in its size
    try:
        b = parse_bundle_spec(text)
    except ParseError:
        return
    once = format_bundle(b)
    assert normalize(once) == once


def test_overlong_integer_is_a_parse_error():
    # Python refuses to convert more than 4300 digits by default
    with pytest.raises(ParseError) as exc:
        parse_bundle_spec("O(0," + "1" * 5000 + ")")
    assert exc.value.offset == 4


def recursive_format(b):
    """The recursive definition of the canonical text."""
    if isinstance(b, Sum):
        if not b.terms:
            return "0*O(0,0)"
        return " + ".join(f"O({d.h},{d.f})" if n == 1 else f"{n}*O({d.h},{d.f})" for d, n in b.terms)
    return f"ext({recursive_format(b.sub)}; {recursive_format(b.quot)})"


@seed(20260305)
@settings(max_examples=300, deadline=None)
@given(exprs(5))
def test_format_matches_recursive_reference(b):
    assert format_bundle(b) == recursive_format(b)


def test_format_of_empty_sum_inside_ext():
    b = Ext(Sum(), Ext(bundle_sum(DivisorClass(0, 0), DivisorClass(0, 0)), Sum()))
    assert format_bundle(b) == recursive_format(b) == "ext(0*O(0,0); ext(2*O(0,0); 0*O(0,0)))"


def test_format_deep_chain_without_recursion():
    # built directly, 10,000 Ext levels on each side, far past the
    # interpreter's recursion limit
    leaf = bundle_sum(DivisorClass(0, 0))
    left = right = leaf
    for _ in range(10_000):
        left, right = Ext(left, leaf), Ext(leaf, right)
    assert format_bundle(left) == "ext(" * 10_000 + "O(0,0)" + "; O(0,0))" * 10_000
    assert format_bundle(right) == "ext(O(0,0); " * 10_000 + "O(0,0)" + ")" * 10_000
