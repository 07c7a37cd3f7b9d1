"""Exception types shared across the package.

Domain errors (invalid scrolls, unsupported arrangements, precondition
failures) map to CLI exit code 3; bundle-spec parse errors map to exit
code 2.
"""


class ScrollCalcError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidScroll(ScrollCalcError):
    """Scroll parameters outside 0 < a0 <= a1."""


class NegativeSymPower(ScrollCalcError):
    """Symmetric power Sym^a requested with a < 0."""


class UnsupportedCurveClass(ScrollCalcError):
    """Restriction requested to a curve class the calculator does not cover."""


class OddIntersection(ScrollCalcError):
    """Internal parity check in Riemann-Roch failed.  Must never fire."""


class NotRegular(ScrollCalcError):
    """Summand detection requires a certified regular input bundle."""


class EmptyBundle(ScrollCalcError):
    """A bundle-level operation received a rank-zero input."""


class TooManyCurves(ScrollCalcError):
    """On an unbalanced scroll the narrow section class contains one curve."""


class NegativeCount(ScrollCalcError):
    """Counts of arrangement components or building blocks must be >= 0."""


class UnsupportedArrangement(ScrollCalcError):
    """Arrangement is valid but outside the range of the splitting formulas."""


class HypothesisViolated(ScrollCalcError):
    """Classification asked for outside its hypotheses (need e = 0, c > 2)."""


class BoundsTooSmall(ScrollCalcError, ValueError):
    """Search bounds too small for a classification to be conclusive."""


class RankMismatch(ScrollCalcError):
    """A claimed splitting has the wrong rank."""


class ParseError(ScrollCalcError):
    """Bundle spec text is not in the grammar.

    Carries the character offset of the offending token, an index into
    the text as a str (not into its UTF-8 bytes), and the set of token
    kinds that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.expected = tuple(expected)
