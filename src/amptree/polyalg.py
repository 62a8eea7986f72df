"""Polynomial algebra on [0, 1].

Evaluation, mixtures, derivatives, composition, pointwise iteration, and
fixed-point finding/classification.  Integer polynomials (the activation
polynomials of trees) stay exact; mixtures and every other polynomial
are floats.  Iterates are always computed pointwise (repeated
evaluation), never by symbolic self-composition, whose degree growth d^k
is infeasible; symbolic ``compose`` exists for small synthesis jobs and
documents its degree growth.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (DegenerateInputError, InconsistentFixedPointError,
                     RangeError, WeightError, check_int, check_real)

ATTRACTIVE = "ATTRACTIVE"
NON_ATTRACTIVE = "NON_ATTRACTIVE"
MARGINAL = "MARGINAL"

#: |f'(t) - 1| below this is classified MARGINAL.
CLASS_TOL = 1e-7

#: Tolerance for the endpoint fixed-point checks at 0 and 1.
ENDPOINT_TOL = 1e-9

DEFAULT_GRID = 10_000
DEFAULT_TOL = 1e-12

#: Largest remainder ``divergence_ratio`` accepts from each linear factor.
REMAINDER_TOL = 1e-8


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial, lowest degree first; evaluated by Horner.

    Coefficients that are all Python ``int`` stay exact; otherwise every
    coefficient becomes a float.  An integer polynomial evaluates exactly
    at an int or a ``Fraction``, and at a float it gives the same bits as
    its float copy.
    """

    coeffs: tuple[int, ...] | tuple[float, ...]

    def __post_init__(self):
        c = tuple(self.coeffs) or (0,)
        if not all(type(x) is int for x in c):
            c = tuple(float(x) for x in c)
        n = len(c)
        while n > 1 and c[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", c[:n])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, p):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def derivative(self) -> "Polynomial":
        if len(self.coeffs) == 1:
            return Polynomial((0.0,))
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    @classmethod
    def identity(cls) -> "Polynomial":
        return cls((0.0, 1.0))


def check_weights(weights: Sequence[float]) -> None:
    """WeightError unless every weight is finite and >= 0 and they sum to 1."""
    for w in weights:
        check_real("weight", w, 0, ends="[)", error=WeightError)
    total = sum(weights)
    if abs(total - 1.0) > 1e-12:
        raise WeightError(f"weights sum to {total!r}, not 1")


def mix(weights: Sequence[float], polys: Sequence[Polynomial]) -> Polynomial:
    """Coefficient-wise convex combination of polynomials."""
    if len(weights) != len(polys):
        raise WeightError("one weight per polynomial required")
    check_weights(weights)
    width = max(len(p.coeffs) for p in polys)
    out = [0.0] * width
    for w, p in zip(weights, polys):
        for i, c in enumerate(p.coeffs):
            out[i] += w * c
    return Polynomial(tuple(out))


def compose(f: Polynomial, g: Polynomial) -> Polynomial:
    """Symbolic f(g(p)).  Degree multiplies: deg(f)*deg(g)."""
    acc: tuple = (0,)
    for c in reversed(f.coeffs):
        acc = _mul(acc, g.coeffs)
        acc = (acc[0] + c,) + acc[1:]
    return Polynomial(acc)


def _mul(a: Sequence, b: Sequence) -> tuple:
    """Coefficient product of two dense polynomials, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def iterate_point(f: Polynomial | Callable[[float], float], p: float,
                  k: int) -> list[float]:
    """(p, f(p), ..., f^(k)(p)) by repeated pointwise evaluation."""
    x = check_real("p", p, 0, 1, "[]")
    k = check_int("iteration count k", k, 0, error=DegenerateInputError)
    out = [x]
    for _ in range(k):
        x = f(x)
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPoint:
    location: float
    derivative: float
    kind: str

    @property
    def interior(self) -> bool:
        return 0.0 < self.location < 1.0


@dataclass(frozen=True)
class FixedPointReport:
    """Fixed points of a polynomial in [0,1], in increasing location order."""

    points: tuple[FixedPoint, ...]

    def locations(self) -> list[float]:
        return [fp.location for fp in self.points]

    def interior_points(self) -> list[FixedPoint]:
        return [fp for fp in self.points if fp.interior]

    def to_json(self) -> str:
        return json.dumps([
            {"location": fp.location, "derivative": fp.derivative,
             "class": fp.kind}
            for fp in self.points])


def classify(derivative: float) -> str:
    if derivative < 1.0 - CLASS_TOL:
        return ATTRACTIVE
    if derivative > 1.0 + CLASS_TOL:
        return NON_ATTRACTIVE
    return MARGINAL


def bisect_root(h: Callable[[float], float], lo: float, hi: float,
                tol: float = DEFAULT_TOL) -> float:
    """Bisect a sign change of ``h`` on [lo, hi] down to ``tol``.

    Stops early once the midpoint rounds onto ``lo`` or ``hi``, when the
    two are adjacent floats, so a ``tol`` below the bracket's ulp (0
    included) still returns.  The ends are halved before they are added,
    so a bracket whose sum overflows still bisects.  RangeError for a
    negative or NaN ``tol`` and for ``lo > hi`` or a NaN end.
    """
    if not tol >= 0.0:                  # NaN compares false as well
        raise RangeError(f"tol must be >= 0: {tol!r}")
    if not lo <= hi:
        raise RangeError(f"empty bracket [{lo}, {hi}]")
    flo = h(lo)
    if flo == 0.0:
        return lo
    fhi = h(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise DegenerateInputError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * lo + 0.5 * hi      # halved first: lo + hi may overflow
        if not lo < mid < hi:           # lo and hi are adjacent floats
            return mid
        fm = h(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


def scan_fixed_points(f: Callable[[float], float]) -> list[float]:
    """Interior fixed points of a callable on (0, 1) by sign scan + bisection.

    ``f`` is called once on the whole scan grid, a float64 array, and must
    work elementwise, as :class:`Polynomial`, ``activation`` and
    ``TreeDistribution.evaluate`` do; the bisection then calls it on
    Python floats.  The grid zeros and the cells whose ends are nonzero
    with opposite signs are found by array masks (NaN counts as nonzero
    and not positive), and each cell is bisected in grid order from its
    two ends, the only grid points read as Python floats.  Roots
    closer together than the grid pitch can merge; catalog constructions
    are checked to have well-separated roots.
    """
    def h(p: float) -> float:
        return f(p) - p

    points = np.arange(1, DEFAULT_GRID) * (1.0 / DEFAULT_GRID)
    hv = f(points) - points
    nonzero = hv != 0.0
    positive = hv > 0
    roots = points[~nonzero].tolist()
    cells = np.flatnonzero(nonzero[:-1] & nonzero[1:]
                           & (positive[:-1] != positive[1:]))
    for i in cells.tolist():
        roots.append(bisect_root(h, float(points[i]), float(points[i + 1])))
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 10 * DEFAULT_TOL:
            merged.append(r)
    return merged


def fixed_points(poly: Polynomial) -> FixedPointReport:
    """All fixed points of ``poly`` in [0, 1], classified by derivative.

    Endpoints are checked directly; the interior is covered by a uniform
    sign-change scan of f(p) - p followed by bisection.
    """
    if len(poly.coeffs) == 1:
        raise DegenerateInputError("constant polynomial has no dynamics")
    if poly.coeffs == (0.0, 1.0):
        raise DegenerateInputError("identity polynomial: every point fixed")
    deriv = poly.derivative()
    found: list[float] = []
    if abs(poly(0.0)) <= ENDPOINT_TOL:
        found.append(0.0)
    interior = scan_fixed_points(poly)
    found.extend(r for r in interior if DEFAULT_TOL < r < 1.0 - DEFAULT_TOL)
    if abs(poly(1.0) - 1.0) <= ENDPOINT_TOL:
        found.append(1.0)
    pts = tuple(FixedPoint(r, deriv(r), classify(deriv(r)))
                for r in sorted(found))
    return FixedPointReport(pts)


# ---------------------------------------------------------------------------
# Divergence ratio g(p) = (f(p) - p) / (p (1-p) (p-t))
# ---------------------------------------------------------------------------

def _synthetic_divide(coeffs: Sequence[float], root: float
                      ) -> tuple[list[float], float]:
    """Divide by (p - root); returns (quotient low-first, remainder)."""
    n = len(coeffs) - 1
    quot = [0.0] * n
    carry = coeffs[n]
    for i in range(n - 1, -1, -1):
        quot[i] = carry
        carry = coeffs[i] + root * carry
    return quot, carry


def divergence_ratio(poly: Polynomial, t: float) -> Polynomial:
    """The quotient polynomial g with f(p) - p = p (1-p) (p-t) g(p).

    Dividing out the three linear factors exactly (synthetic division)
    makes g evaluable everywhere, including at 0, t and 1.

    Raises RangeError unless t is a finite real number in (0, 1), and
    InconsistentFixedPointError when a remainder is past REMAINDER_TOL or
    NaN.
    """
    t = check_real("t", t, 0, 1)
    h = list(poly.coeffs)
    while len(h) < 2:
        h.append(0.0)
    h[1] -= 1.0
    if not abs(h[0]) <= REMAINDER_TOL:
        raise InconsistentFixedPointError(
            f"f(0) = {h[0]!r}; 0 is not a fixed point")
    q = h[1:]                                   # divided by p
    q, rem_t = _synthetic_divide(q, t)
    if not abs(rem_t) <= REMAINDER_TOL:
        raise InconsistentFixedPointError(
            f"remainder {rem_t!r} dividing by (p - {t}); not a fixed point")
    q, rem_1 = _synthetic_divide(q, 1.0)
    if not abs(rem_1) <= REMAINDER_TOL:
        raise InconsistentFixedPointError(
            f"remainder {rem_1!r} dividing by (p - 1); 1 is not a fixed point")
    # (1-p) = -(p-1), so negate the quotient once.
    return Polynomial(tuple(-c for c in q))
