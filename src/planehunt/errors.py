"""Exception types, the one range rule of each hunt parameter and of a prefix arc, and the real and integer readings."""

import math
import operator

import numpy as np


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


def shown(value) -> str:
    """``value`` as a refusal prints it: a numpy scalar as the number it holds, text in quotes."""
    return repr(value.item() if isinstance(value, np.generic) else value)


def as_real(value):
    """The one real reading: a number or the text of one as a float; None for anything else (a bool, 2**2000)."""
    try:
        return None if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError, OverflowError):
        return None


def positive_finite(name: str, value) -> float:
    """``value`` read by ``as_real`` as a positive finite float: the rule of D, r, alpha, the cap and the grid step."""
    if (x := as_real(value)) is None or not 0.0 < x < math.inf:
        raise PreconditionError(f"{name} must be positive and finite, got {shown(value)}")
    return x


def nonnegative_finite(name: str, value) -> float:
    """``value`` read by ``as_real`` as a nonnegative finite float: the rule of a prefix arc."""
    if (x := as_real(value)) is None or not 0.0 <= x < math.inf:
        raise PreconditionError(f"{name} must be nonnegative and finite, got {shown(value)}")
    return x


def as_integer(value):
    """The one integer reading: an int, a numpy integer or the text of one, as an int; None for anything else (a bool, a float)."""
    try:
        return None if isinstance(value, bool) else int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        return None


def positive_int(name: str, value) -> int:
    """``value`` read by ``as_integer`` as an int of at least 1: the rule of s and every count."""
    if (n := as_integer(value)) is None or n < 1:
        raise PreconditionError(f"{name} must be a positive integer, got {shown(value)}")
    return n
