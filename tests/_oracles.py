"""Independent oracles used across the test suite.

These deliberately avoid the library's own polynomial/iteration code paths:
activation probabilities come from exhaustive assignment enumeration, and
fixed-point claims on exact-integer polynomials are verified in rational
arithmetic.  The scalar grid loops at the end are the one-point-per-call
forms of the library's array-evaluated analysis grids, kept as the
reference those must match exactly.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from amptree.dynamics import CORRIDOR_FACTOR, CORRIDOR_GRID
from amptree.polyalg import DEFAULT_GRID, DEFAULT_TOL, bisect_root
from amptree.trees import AndOrTree, IntPolynomial, eval_tree


def brute_force_activation(tree: AndOrTree, p: float) -> float:
    """Sum of g_T(X) p^|X| (1-p)^(n-|X|) over all 2^n assignments."""
    n = tree.leaf_count
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        if eval_tree(tree, bits):
            ones = sum(bits)
            total += p ** ones * (1.0 - p) ** (n - ones)
    return total


def brute_force_activation_exact(tree: AndOrTree, p: Fraction) -> Fraction:
    n = tree.leaf_count
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=n):
        if eval_tree(tree, bits):
            ones = sum(bits)
            total += p ** ones * (1 - p) ** (n - ones)
    return total


def exact_sign_change(poly: IntPolynomial, lo: Fraction, hi: Fraction) -> bool:
    """Whether f(p) - p changes sign between two rationals, exactly."""
    def h(q: Fraction) -> Fraction:
        return poly.evaluate_exact(q) - q

    a, b = h(lo), h(hi)
    return (a < 0 < b) or (b < 0 < a)


def verified_interior_roots(poly: IntPolynomial,
                            candidates: list[float],
                            pad: float = 1e-6) -> list[float]:
    """Filter float root candidates of f(p) - p by an exact sign change.

    Tangential endpoints (roots of high multiplicity at 0 or 1) make the
    float scan hallucinate crossings where |f(p)-p| sits below rounding
    noise; rational arithmetic rejects those.
    """
    out = []
    for r in candidates:
        lo = Fraction(max(r - pad, 1e-9)).limit_denominator(10 ** 12)
        hi = Fraction(min(r + pad, 1 - 1e-9)).limit_denominator(10 ** 12)
        if exact_sign_change(poly, lo, hi):
            out.append(r)
    return out


def binom_pmf(m: int, k: int, q: float) -> float:
    return math.comb(m, k) * q ** k * (1.0 - q) ** (m - k)


# ---------------------------------------------------------------------------
# Scalar analysis grids: one call of the scanned function per grid point
# ---------------------------------------------------------------------------

def scalar_scan_fixed_points(f, grid: int = DEFAULT_GRID) -> list[float]:
    """``polyalg.scan_fixed_points`` with a scalar call per grid point."""
    def h(p: float) -> float:
        return f(p) - p

    step = 1.0 / grid
    xs = [i * step for i in range(1, grid)]
    hv = [h(x) for x in xs]
    roots = [x for x, v in zip(xs, hv) if v == 0.0]
    for i in range(len(xs) - 1):
        a, b = hv[i], hv[i + 1]
        if a != 0.0 and b != 0.0 and (a > 0) != (b > 0):
            roots.append(bisect_root(h, xs[i], xs[i + 1]))
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 10 * DEFAULT_TOL:
            merged.append(r)
    return merged


def scalar_sweep(lo: float, hi: float, fn, minimize: bool,
                 grid: int) -> tuple[float, float]:
    """``dynamics._sweep`` with a scalar call per grid point."""
    best_val = math.inf if minimize else -math.inf
    best_p = lo
    for i in range(grid + 1):
        p = lo + (hi - lo) * i / grid
        val = fn(p)
        if (val < best_val) if minimize else (val > best_val):
            best_val, best_p = val, p
    return best_val, best_p


def scalar_certified_corridor(f, t: float):
    """``dynamics.certified_corridor`` with a scalar call per grid point."""
    grid, factor = CORRIDOR_GRID, CORRIDOR_FACTOR
    if f(1e-9) / 1e-9 > 1e-6 or (1.0 - f(1.0 - 1e-9)) / 1e-9 > 1e-6:
        return None
    lo_ps = [t * i / grid for i in range(1, grid)]
    ratios = [f(p) / (p * p) for p in lo_ps]
    best_u = None
    running = 0.0
    for p, r in zip(lo_ps, ratios):
        running = max(running, r)
        if running * p < factor:
            best_u = p
    hi_ps = [t + (1.0 - t) * i / grid for i in range(1, grid)]
    best_v = None
    running = 0.0
    for p, r in zip(reversed(hi_ps),
                    reversed([(1.0 - f(p)) / ((1.0 - p) ** 2)
                              for p in hi_ps])):
        running = max(running, r)
        if running * (1.0 - p) < factor:
            best_v = p
    if best_u is None or best_v is None:
        return None
    return best_u, best_v
