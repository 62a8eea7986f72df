"""Independent oracles used across the test suite.

These deliberately avoid the library's own polynomial/iteration code paths:
activation probabilities come from exhaustive assignment enumeration, and
fixed-point claims on exact-integer polynomials are verified in rational
arithmetic.  The scalar grid loops at the end are the one-point-per-call
forms of the library's array-evaluated analysis grids, kept as the
reference those must match exactly.  ``memo_fold`` is the memo-dict
traversal ``trees.fold`` replaced, kept as the reference for the stored
gate order.  ``learned_json`` is the
``json.dumps`` writer of learned structures that ``LearnedTree.to_json``
must match byte for byte.  ``binomial_rows_reference`` is the exact
chain's kernel as one whole-array expression, which the row-block build
must match bit for bit.  ``leveled_reference`` is the leveled
construction one trial and one item at a time, drawn from each trial's
generator in the documented order, which ``simulate_leveled`` must match
bit for bit.  ``learned_reference`` is learned evaluation as a per-level
``np.where`` on an (items, 3) gather, whose fractions and trace
``evaluate_learned`` must equal.  ``bisect_root_reference`` is bisection
without the adjacent-float stop or the argument checks, which
``polyalg.bisect_root`` must match wherever ``tol`` exceeds the bracket's
ulp.
"""
from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from amptree.dynamics import CORRIDOR_FACTOR, CORRIDOR_GRID
from amptree.polyalg import DEFAULT_GRID, DEFAULT_TOL, Polynomial, bisect_root
from amptree.rng import generator
from amptree.trees import AND, LEAF, AndOrTree, eval_tree


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


def exact_sign_change(poly: Polynomial, lo: Fraction, hi: Fraction) -> bool:
    """Whether f(p) - p changes sign between two rationals, exactly.

    Horner in rational arithmetic over the integer coefficients, not the
    polynomial's own evaluation.
    """
    def h(q: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(poly.coeffs):
            acc = acc * q + c
        return acc - q

    a, b = h(lo), h(hi)
    return (a < 0 < b) or (b < 0 < a)


def verified_interior_roots(poly: Polynomial,
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


def memo_fold(tree: AndOrTree, leaf_value, and_fn, or_fn):
    """``trees.fold`` as a memo dict keyed by ``id`` over a node stack."""
    memo: dict[int, object] = {}
    stack = [tree]
    while stack:
        node = stack[-1]
        key = id(node)
        if key in memo:
            stack.pop()
            continue
        if node.op == LEAF:
            memo[key] = leaf_value
            stack.pop()
            continue
        pending = [c for c in (node.left, node.right) if id(c) not in memo]
        if pending:
            stack.extend(pending)
            continue
        combine = and_fn if node.op == AND else or_fn
        memo[key] = combine(memo[id(node.left)], memo[id(node.right)])
        stack.pop()
    return memo[id(tree)]


def binom_pmf(m: int, k: int, q: float) -> float:
    return math.comb(m, k) * q ** k * (1.0 - q) ** (m - k)


def binomial_rows_reference(m: int, q) -> np.ndarray:
    """``leveled._binomial_rows`` as one whole-array expression, with an
    np.exp call on every exponent."""
    q = np.asarray(q, dtype=np.float64)[:, None]
    j = np.arange(m + 1)
    combs = itertools.accumulate(
        range(m), lambda c, k: c * (m - k) // (k + 1), initial=1)
    log_comb = np.array([math.log(c) for c in combs])
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = np.exp(log_comb + (m - j) * np.log1p(-q) + j * np.log(q))
    rows[q[:, 0] == 0.0] = j == 0
    rows[q[:, 0] == 1.0] = j == m
    return rows


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


def bisect_root_reference(h, lo: float, hi: float,
                          tol: float = DEFAULT_TOL) -> float:
    """``polyalg.bisect_root`` before it stopped at adjacent floats: loops
    forever when ``tol`` is below the bracket's ulp."""
    flo = h(lo)
    if flo == 0.0:
        return lo
    fhi = h(hi)
    if fhi == 0.0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = h(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def learned_json(tree) -> str:
    """``LearnedTree.to_json`` through Python lists and ``json.dumps``."""
    return json.dumps({
        "n": tree.n,
        "seed": tree.seed,
        "example_ones": tree.example_ones,
        "levels": [
            {"blocks": lvl.tolist(), "wiring": w.tolist()}
            for lvl, w in zip(tree.blocks, tree.wiring)],
    }, separators=(",", ":"))


def learned_reference(tree, input_bits, sample=None):
    """(fraction, trace, levels) of a learned structure on ``input_bits``.

    Level j picks (A v B) ^ C where its block is 1, else (A ^ B) v C, on
    its items' three leaves ``cur[wires]``; ``levels`` holds every level's
    uint8 items, the inputs first.  The fraction is ``float(mean)`` of the
    top level's first ``sample`` items, all of them when it is None, and
    the trace each level's.
    """
    cur = np.asarray(input_bits, dtype=np.uint8)
    levels = [cur]
    for blocks, wires in zip(tree.blocks, tree.wiring):
        leaves = cur[wires]
        a, b, c = leaves[:, 0], leaves[:, 1], leaves[:, 2]
        cur = np.where(blocks == 1, (a | b) & c, (a & b) | c).astype(np.uint8)
        levels.append(cur)
    trace = [float(level.mean()) for level in levels]
    return float(cur[:sample].mean()), trace, levels


def leveled_reference(dist, config) -> tuple[list[list[float]], list[int]]:
    """(fractions, final items) of ``simulate_leveled(dist, config)``, one
    trial and one item at a time.

    Trial i draws from ``generator(config.seed, i)``: its Bernoulli inputs
    (only with ``input_p``), then each level's (m, 1 + max_leaves) block,
    then one uniform for the top item.  Column 0 picks the tree by
    ``searchsorted`` on the cumulative weights, held to the last entry of
    positive weight; column 1 + l wires leaf l to item
    min(floor(u * size), size - 1) of the level below.
    """
    trees = [t for t, _ in dist.entries]
    cumw = np.cumsum([w for _, w in dist.entries])
    last = int(np.argmax(cumw == cumw[-1]))
    cols = 1 + dist.max_leaf_count

    def slot(u: float, size: int) -> int:
        return min(math.floor(u * size), size - 1)

    fractions, final_items = [], []
    for trial in range(config.trials):
        rng = generator(config.seed, trial)
        if config.input_p is None:
            prev = list(config.input_bits)
        else:
            prev = [int(u < config.input_p) for u in rng.random(config.n)]
        row = [sum(prev) / len(prev)]
        for m in config.widths:
            level = []
            for u in rng.random((m, cols)).tolist():
                tree = trees[min(int(np.searchsorted(cumw, u[0],
                                                     side="right")), last)]
                level.append(eval_tree(tree, [
                    prev[slot(v, len(prev))]
                    for v in u[1:1 + tree.leaf_count]]))
            prev = level
            row.append(sum(prev) / len(prev))
        fractions.append(row)
        final_items.append(prev[slot(rng.random(), len(prev))])
    return fractions, final_items
