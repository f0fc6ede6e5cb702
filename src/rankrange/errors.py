"""Exception hierarchy, and the one check each of a caller's tolerance,
target and rank.

Every error carries an ``exit_code`` so the CLI can map failures onto its
contract: 1 usage/parse, 2 mathematical rejection, 3 internal invariant
violation.
"""

import operator
from math import inf


class RankRangeError(Exception):
    exit_code = 1


class ParseError(RankRangeError):
    """A malformed document, value or setting."""
    exit_code = 1


def checked_tol(value: float, source: str = "tol") -> float:
    """``value`` when it is a finite number >= 0, else ParseError: a
    negative or NaN tolerance would silently flip verdicts, and one that is
    not a number would fail untyped. Every function that reads a caller's
    tolerance calls this where it reads it."""
    # one chained comparison, False for NaN: contains pays it on each call;
    # a value that does not compare as a number raises TypeError there (an
    # array of several, ValueError)
    try:
        if 0.0 <= value < inf:
            return value
    except (TypeError, ValueError):
        pass
    raise ParseError(f"{source} must be a finite number >= 0, got {value!r}")


def checked_complex(value, source: str = "target") -> complex:
    """``complex(value)``, else ParseError: a target that is not a number
    would otherwise fail untyped."""
    try:
        return complex(value)
    except (TypeError, ValueError):
        raise ParseError(
            f"{source} must be a complex number, got {value!r}") from None


class MathRejection(RankRangeError):
    """Input is well-formed but mathematically rejected."""
    exit_code = 2


class InternalInvariantError(RankRangeError):
    """A self-check failed; indicates a bug, not a bad input."""
    exit_code = 3


class NotUnitary(MathRejection):
    pass


class EigensolveFailed(MathRejection):
    pass


class EmptySpectrum(MathRejection):
    pass


class InvalidRank(MathRejection):
    pass


def checked_rank(k, n=inf) -> int:
    """``k`` as an int when it is an integer (numpy's included) in 1..n,
    else InvalidRank: a float rank would otherwise fail untyped, deep in
    the index arithmetic. Every function that reads a caller's rank calls
    this where it reads it."""
    try:
        k = operator.index(k)
    except TypeError:
        raise InvalidRank(f"rank {k!r} is not an integer") from None
    if not 1 <= k <= n:
        raise InvalidRank(f"rank k={k} outside 1..{n}")
    return k


class TooLarge(MathRejection):
    pass


class EmptyRegion(MathRejection):
    pass


class NoConvexSolution(MathRejection):
    pass


class DegenerateDenominator(MathRejection):
    pass


class BothHeavy(MathRejection):
    pass


class LambdaOutsideRegion(MathRejection):
    pass


class UnsupportedDimension(MathRejection):
    pass


class ShapeMismatch(MathRejection):
    pass


class GramFailure(InternalInvariantError):
    pass


class NoSolution(InternalInvariantError):
    pass
