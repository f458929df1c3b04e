"""Exception types shared across the library, and the one range rule of each hunt parameter."""

import math
import operator


class DegenerateInputError(ValueError):
    """An operation received geometrically meaningless input (e.g. coincident points)."""


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated."""


class BudgetExceededError(RuntimeError):
    """A hard resource guard tripped (column count, segment count, candidate count).

    Raised instead of silently approximating or truncating.
    """


class StreamChainError(RuntimeError):
    """A trajectory stream produced segments that do not chain end-to-start."""


def positive_finite(name: str, value) -> float:
    """``value``, a number or its text, as a positive finite float: the rule of D, r, alpha, the cap and the grid step."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not 0.0 < x < math.inf:
        raise PreconditionError(f"{name} must be positive and finite, got {value!r}")
    return x


def positive_int(name: str, value) -> int:
    """``value``, an integer or its text (never a float), as an int of at least 1: the rule of s."""
    try:
        n = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        n = 0
    if n < 1:
        raise PreconditionError(f"{name} must be a positive integer, got {value!r}")
    return n
