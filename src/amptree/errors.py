"""Exception hierarchy shared across the package, its integer and
real-number checks, and its one JSON loader."""
import json
import math
from numbers import Integral, Real


class AmptreeError(Exception):
    """Base class for all errors raised by amptree."""


class InputShapeError(AmptreeError, ValueError):
    """An input's length or arity does not match what the operation needs."""


class RangeError(AmptreeError, ValueError):
    """A parameter lies outside the admissible range of a construction."""


class WeightError(AmptreeError, ValueError):
    """Mixture weights are negative or do not sum to one."""


class DegenerateInputError(AmptreeError, ValueError):
    """The input makes the operation meaningless (e.g. every point is fixed)."""


class CapacityError(AmptreeError):
    """A documented size cap was exceeded.

    Carries best-effort results where the operation can report them
    (``best_tree``, ``best_value``).
    """

    def __init__(self, message, best_tree=None, best_value=None):
        super().__init__(message)
        self.best_tree = best_tree
        self.best_value = best_value


class InconsistentFixedPointError(AmptreeError, ValueError):
    """A claimed fixed point leaves a nonzero polynomial-division remainder."""


class InvalidStaircaseError(AmptreeError, ValueError):
    """A staircase specification violates its invariants."""


def check_int(name, value, lo, hi=None, error=RangeError) -> int:
    """``int(value)``; ``error`` unless ``value`` is an integer (numpy's
    too, not a bool) in [lo, hi], where a None bound leaves its side open."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or lo is not None and value < lo
            or hi is not None and value > hi):
        bound = (f" in [{lo}, {hi}]" if hi is not None
                 else f" >= {lo}" if lo is not None else "")
        raise error(f"{name} must be an integer{bound}: {value!r}")
    return int(value)


def check_real(name, value, lo=-math.inf, hi=math.inf, ends="()",
               error=RangeError) -> float:
    """``float(value)``; ``error`` unless ``value`` is a finite real number
    (numpy's too, not a bool) between lo and hi, each end open or closed as
    ``ends`` ("()", "[]", "[)" or "(]") marks it."""
    try:
        x = (float(value) if isinstance(value, Real)
             and not isinstance(value, bool) else math.nan)
    except OverflowError:               # an int or Fraction past 1.8e308
        x = math.nan
    if not (math.isfinite(x) and (lo < x if ends[0] == "(" else lo <= x)
            and (x < hi if ends[1] == ")" else x <= hi)):
        raise error(f"{name} must be a finite real number in "
                    f"{ends[0]}{lo}, {hi}{ends[1]}: {value!r}")
    return x


def load_json(text, what, error):
    """``json.loads(text)``; ``error`` prefixed by ``what`` when the text is
    not JSON, nested past the interpreter's recursion limit included (RFC
    8259 lets a parser bound the depth)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what}: {exc}") from exc
