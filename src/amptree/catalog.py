"""Named constructions mapping thresholds and staircases to tree distributions.

Mixing weights are always found by solving the fixed-point equation
``alpha f1(t) + (1-alpha) f2(t) = t`` linearly at the requested threshold,
then validated, rather than by transcribing closed-form weight expressions
whose printed sign conventions are unreliable.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import (CapacityError, DegenerateInputError,
                     InvalidStaircaseError, RangeError, WeightError,
                     check_int, check_real)
from .polyalg import (Polynomial, bisect_root, check_weights, iterate_point,
                      mix, scan_fixed_points)
from .trees import (AndOrTree, activation, and_, and_chain, build_ak, build_bk,
                    complement_tree, format_tree, leaf, or_, or_chain,
                    self_compose, substitute_leaves, tree_polynomial)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

#: Interior fixed point of the 4-leaf tree (A v B) ^ (C v D).
VALIANT_THRESHOLD = 2.0 - GOLDEN

#: How far a threshold hint's activation may lie from the hint.  Every
#: catalog construction's hint, and its complement's, lies within 4.5e-16.
HINT_TOLERANCE = 1e-9

#: Mixtures are materialized as dense polynomials only up to this degree.
MIXTURE_DEGREE_CAP = 128

#: Default semantic-size guard for constructive tree building.
DEFAULT_TREE_CAP = 10 ** 6

#: Staircase components are deep compositions whose semantic size has no
#: a-priori bound; the guard is semantic only (distinct nodes stay tiny
#: via structure sharing).
STAIRCASE_TREE_CAP = 10 ** 15


@dataclass(frozen=True)
class TreeDistribution:
    """A finite weighted set of trees plus its mixture activation.

    ``threshold`` and ``corridor`` are optional hints attached by the
    constructors: the interior fixed point (see :meth:`unique_threshold`)
    and (u, v) bounds for the quadratic-regime corridor.  A threshold hint
    must be a finite real in (0, 1), else RangeError, and a fixed point of
    the mixture within ``HINT_TOLERANCE``, else DegenerateInputError.
    """

    label: str
    entries: tuple[tuple[AndOrTree, float], ...]
    threshold: float | None = None
    corridor: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.entries:
            raise WeightError("a distribution needs at least one tree")
        check_weights([w for _, w in self.entries])
        if self.threshold is not None:
            t = check_real("threshold hint", self.threshold, 0, 1)
            image = self.evaluate(t)
            if not abs(image - t) <= HINT_TOLERANCE:
                raise DegenerateInputError(
                    f"{self.label}: the threshold hint {t!r} is not a fixed "
                    f"point; the mixture maps it to {image!r}")

    @property
    def max_leaf_count(self) -> int:
        return max(t.leaf_count for t, _ in self.entries)

    @cached_property
    def mixture(self) -> Polynomial:
        """Dense float mixture polynomial (small trees only)."""
        if self.max_leaf_count > MIXTURE_DEGREE_CAP:
            raise CapacityError(
                f"entry with {self.max_leaf_count} leaves exceeds the dense "
                f"mixture cap ({MIXTURE_DEGREE_CAP}); use evaluate()")
        weights = [w for _, w in self.entries]
        return mix(weights, [tree_polynomial(t) for t, _ in self.entries])

    def evaluate(self, p: float) -> float:
        """Mixture activation at ``p``, computed pointwise per tree.

        Stable for arbitrarily composed entries, unlike dense coefficients.
        """
        return sum(w * activation(t, p) for t, w in self.entries)

    def interior_fixed_points(self) -> list[float]:
        return scan_fixed_points(self.evaluate)

    def unique_threshold(self) -> float:
        """The ``threshold`` hint if set, else the one interior fixed point;
        DegenerateInputError, counting the roots, if there is not one."""
        if self.threshold is not None:
            return self.threshold
        roots = self.interior_fixed_points()
        if len(roots) != 1:
            raise DegenerateInputError(
                f"{self.label} has no threshold: {len(roots)} interior fixed "
                f"points, not one")
        return roots[0]

    def complement(self) -> "TreeDistribution":
        """Same weights on the complemented trees."""
        thr = None if self.threshold is None else 1.0 - self.threshold
        cor = None
        if self.corridor is not None:
            u, v = self.corridor
            cor = (1.0 - v, 1.0 - u)
        return TreeDistribution(
            label=f"complement({self.label})",
            entries=tuple((complement_tree(t), w) for t, w in self.entries),
            threshold=thr, corridor=cor)

    def to_json(self) -> str:
        try:
            mixture = list(self.mixture.coeffs)
        except CapacityError:
            mixture = None
        return json.dumps({
            "label": self.label,
            "entries": [{"tree": format_tree(t), "weight": w}
                        for t, w in self.entries],
            "mixture": mixture,
        })


def _single(label: str, tree: AndOrTree, **kw) -> TreeDistribution:
    return TreeDistribution(label=label, entries=((tree, 1.0),), **kw)


# ---------------------------------------------------------------------------
# Fixed points of the A_k / B_k family
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)   # typed: 2.0 must not hit 2's entry
def ak_fixed_point(k: int) -> float:
    """Interior fixed point q of (1 - (1-q)^k)^2, in (1/k^2, 1/(k(k-1))).

    The residual is bisected as q - expm1(k log1p(-q))^2 to a tolerance
    relative to q, so the bracket keeps its sign and the root its digits
    as q nears 0 (k in the tens of thousands).
    """
    k = check_int("k of A_k and B_k", k, 2)
    lo = 1.0 / (k * k)
    return bisect_root(lambda q: q - math.expm1(k * math.log1p(-q)) ** 2,
                       lo, 1.0 / (k * (k - 1)), tol=1e-14 * lo)


def bk_fixed_point(k: int) -> float:
    """Interior fixed point of 2 p^k - p^{2k}; the complement of a_k."""
    return 1.0 - ak_fixed_point(k)


# ---------------------------------------------------------------------------
# Threshold constructions
# ---------------------------------------------------------------------------

def valiant() -> TreeDistribution:
    """The single 4-leaf tree (A v B) ^ (C v D); threshold 2 - phi."""
    return _single("valiant", build_ak(2), threshold=VALIANT_THRESHOLD,
                   corridor=(0.2, 0.8))


def linear_threshold(t: float) -> TreeDistribution:
    """Weight t on (A v B) ^ C and 1-t on (A ^ B) v C.

    Mixture (1-t) p + (1+t) p^2 - p^3, with fixed points exactly 0, t, 1;
    converges linearly for every 0 < t < 1.
    """
    t = check_real("threshold t", t, 0, 1)
    t1 = and_(or_(leaf(), leaf()), leaf())
    t2 = or_(and_(leaf(), leaf()), leaf())
    return TreeDistribution(
        label=f"linear_threshold({t})",
        entries=((t1, t), (t2, 1.0 - t)),
        threshold=t)


def _quad_pair(name: str, tree_a: AndOrTree, tree_b: AndOrTree,
               t: float, corridor=None, rung: str = "") -> TreeDistribution:
    """Weight alpha on ``tree_a`` and 1 - alpha on ``tree_b`` with t fixed,
    labelled ``name(t)``, or ``name(t, rung)`` with a ``rung`` suffix.

    alpha solves alpha f_a(t) + (1 - alpha) f_b(t) = t.  The pair covers
    the t whose alpha lies in [0, 1] (clamped there against 1e-9 of float
    fuzz): the range between the two trees' interior fixed points, where
    alpha is 1 and 0.  RangeError elsewhere, naming that range, and where
    the larger tree has fewer leaves than the degree floor at t (there an
    activation can round to t and fake a fixed point).
    """
    t = check_real("threshold t", t, 0, 1)
    label = f"{name}({t}{rung})"
    # The fewest leaves any quadratically-convergent construction needs at t.
    floor = math.ceil(1.0 / math.sqrt(2.0 * min(t, 1.0 - t)))
    fa, fb = activation(tree_a, t), activation(tree_b, t)
    alpha = (t - fb) / (fa - fb) if fa != fb else math.nan
    if -1e-9 < alpha < 0.0:
        alpha = 0.0
    if 1.0 < alpha < 1.0 + 1e-9:
        alpha = 1.0
    if (not 0.0 <= alpha <= 1.0
            or max(tree_a.leaf_count, tree_b.leaf_count) < floor):
        lo, hi = sorted(_single(repr(tree), tree).unique_threshold()
                        for tree in (tree_a, tree_b))
        raise RangeError(
            f"{label}: the pair covers [{lo:.6f}, {hi:.6f}]; t={t} needs at "
            f"least {floor} leaves")
    return TreeDistribution(
        label=label, entries=((tree_a, alpha), (tree_b, 1.0 - alpha)),
        threshold=t, corridor=corridor)


def quad4(t: float) -> TreeDistribution:
    """Quadratic convergence from 4-leaf blocks, for 2-phi <= t <= phi-1.

    F1 = (A v B) ^ (C v D) and F2 = (A ^ B) v (C ^ D), the unique 4-leaf
    tree with polynomial 2 p^2 - p^4.
    """
    return _quad_pair("quad4", build_ak(2), build_bk(2), t,
                      corridor=(0.2, 0.8))


def _v1_tree() -> AndOrTree:
    """(A ^ B) v (C ^ D ^ E): polynomial p^2 + p^3 - p^5."""
    return or_(and_chain(2), and_chain(3))


def _v2_tree() -> AndOrTree:
    """(A v B) ^ (C v D v E): polynomial 6 p^2 - 9 p^3 + 5 p^4 - p^5."""
    return and_(or_chain(2), or_chain(3))


def quad5(t: float) -> TreeDistribution:
    """Quadratic convergence from the 5-leaf pair V1, V2.

    Admissible thresholds are where the solved weight lies in [0, 1];
    numerically [~0.245, ~0.755].
    """
    return _quad_pair("quad5", _v1_tree(), _v2_tree(), t,
                      corridor=(1.0 / 7.0, 6.0 / 7.0))


def quad6(t: float) -> TreeDistribution:
    """6-leaf analogue (A_3 with B_3); admissible range found numerically."""
    return _quad_pair("quad6", build_ak(3), build_bk(3), t)


def quad7(t: float) -> TreeDistribution:
    """7-leaf analogue: OR3^OR4 against AND3vAND4; range found numerically."""
    return _quad_pair("quad7", and_(or_chain(3), or_chain(4)),
                      or_(and_chain(3), and_chain(4)), t)


def quad_k(t: float) -> TreeDistribution:
    """Quadratic convergence for any threshold, via the A_k / B_k ladder.

    For t >= phi-1, finds k with b_k <= t < b_{k+1} and mixes B_k with
    B_{k+1}; thresholds at or below 2-phi use the complementary A-family;
    the middle range delegates to the 4-leaf construction.  CapacityError
    when the pair would pass ``DEFAULT_TREE_CAP`` leaves (t within about
    4e-12 of 0 or 1).
    """
    t = check_real("threshold t", t, 0, 1)
    phi1 = GOLDEN - 1.0
    if VALIANT_THRESHOLD < t < phi1:
        return quad4(t)
    # a_k > 1/k^2, so every rung below 1/sqrt(min(t, 1-t)) - 1 is passed:
    # the search starts there, not at k = 2.
    k = max(2, int(1.0 / math.sqrt(min(t, 1.0 - t))) - 1)
    if 2 * k > DEFAULT_TREE_CAP:
        raise CapacityError(f"quad_k({t}) needs trees past the size guard "
                            f"of {DEFAULT_TREE_CAP} leaves")
    if t >= phi1:
        while bk_fixed_point(k + 1) <= t:
            k += 1
        return _quad_pair("quad_k", build_bk(k), build_bk(k + 1), t,
                          rung=f", B{k}/B{k + 1}")
    # A-family: a_{k+1} <= t <= a_k with a_k decreasing in k.
    while ak_fixed_point(k + 1) > t:
        k += 1
    return _quad_pair("quad_k", build_ak(k), build_ak(k + 1), t,
                      rung=f", A{k}/A{k + 1}")


def one_step(alpha: float) -> TreeDistribution:
    """One-step staircase: mixture alpha (1-(1-p)^3) + (1-alpha) p^3.

    Weight ``alpha`` goes on the 3-leaf OR tree per the mixture formula.
    The unique interior fixed point 3 alpha - 1 is attractive; it exists
    only for alpha in (1/3, 2/3), so any other alpha raises RangeError.
    """
    alpha = check_real("one-step alpha", alpha, 1.0 / 3.0, 2.0 / 3.0)
    return TreeDistribution(
        label=f"one_step({alpha})",
        entries=((or_chain(3), alpha), (and_chain(3), 1.0 - alpha)),
        threshold=3.0 * alpha - 1.0)


def soft_threshold(k: int) -> TreeDistribution:
    """Equal mixture of A_k and B_k: a three-step staircase for k >= 4.

    0.5 is attractive with derivative k 2^-(k-2) (1 - 2^-k) < 1; two
    non-attractive fixed points s < 0.5 < t bound the middle plateau.
    """
    k = check_int("soft threshold k", k, 4)   # f'(1/2) >= 1 below 4
    return TreeDistribution(
        label=f"soft_threshold({k})",
        entries=((build_ak(k), 0.5), (build_bk(k), 0.5)))


# ---------------------------------------------------------------------------
# Single-tree constructive machinery (amplification, dense fixed points)
# ---------------------------------------------------------------------------

class AmplifierResult(NamedTuple):
    tree: AndOrTree
    k: int
    anchor: float


def amplifier(tree: AndOrTree, delta: float, epsilon: float,
              max_leaves: int = DEFAULT_TREE_CAP) -> AmplifierResult:
    """Self-compose ``tree`` until it is a (delta, epsilon)-sharp threshold.

    Returns T^k (every leaf repeatedly replaced by a copy of T) with the
    smallest k such that the activation is below delta on [0, t-epsilon]
    and above 1-delta on [t+epsilon, 1], where t is the tree's one interior
    fixed point (DegenerateInputError without one).  Monotonicity of
    activations makes the interval endpoints sufficient witnesses.
    """
    delta = check_real("delta", delta, 0, 1)
    epsilon = check_real("epsilon", epsilon, 0, 1)
    max_leaves = check_int("max_leaves", max_leaves, 1)
    if tree.leaf_count < 2:
        raise DegenerateInputError("cannot amplify a bare leaf")
    t_anchor = _single(repr(tree), tree).unique_threshold()
    # A side whose interval [0, t-eps] or [t+eps, 1] is empty is vacuous.
    lo, hi = t_anchor - epsilon, t_anchor + epsilon
    k_cap, total = 1, tree.leaf_count
    while total * tree.leaf_count <= max_leaves:
        total *= tree.leaf_count
        k_cap += 1
    x_lo, x_hi = lo, hi
    for k in range(1, k_cap + 1):
        x_lo = activation(tree, x_lo) if lo > 0.0 else 0.0
        x_hi = activation(tree, x_hi) if hi < 1.0 else 1.0
        if x_lo < delta and x_hi > 1.0 - delta:
            return AmplifierResult(self_compose(tree, k), k, t_anchor)
    achieved = max(x_lo, 1.0 - x_hi)
    raise CapacityError(
        f"size guard {max_leaves} reached at k={k_cap} with achieved "
        f"delta {achieved:.3g}",
        best_tree=self_compose(tree, k_cap), best_value=achieved)


def _g_tree(j: int) -> AndOrTree:
    """(x1 v ... v xj) ^ x_{j+1}: activation p (1 - (1-p)^j)."""
    return and_(or_chain(j), leaf())


def _g_value(p: float, j: int) -> float:
    return p * (1.0 - (1.0 - p) ** j)


def dense_fixed_point(target: float, epsilon: float,
                      max_leaves: int = DEFAULT_TREE_CAP) -> AndOrTree:
    """A single tree whose interior fixed point is within epsilon of target.

    Constructive walk: anchor at a known single-tree fixed point below the
    target, then repeatedly replace the tree T (fixed point p) by T^k with
    every leaf fed through the (OR_j ^ x) gadget, which nudges the fixed
    point up by less than epsilon per step.  Targets below 1/2 are built
    for 1-target and complemented.

    The anchor with fixed point 2-phi is the 4-leaf tree (A v B) ^ (C v D);
    fixed points of the B_k family serve as higher anchors to shorten the
    walk.
    """
    target = check_real("target", target, 0, 1)
    epsilon = check_real("epsilon", epsilon, 0)
    max_leaves = check_int("max_leaves", max_leaves, 1)
    if target < 0.5:
        return complement_tree(
            dense_fixed_point(1.0 - target, epsilon, max_leaves=max_leaves))

    tree, fp = build_ak(2), VALIANT_THRESHOLD
    for k in range(2, 65):
        b = bk_fixed_point(k)
        if b > target:
            if b - target <= epsilon:
                return build_bk(k)
            break
        tree, fp = build_bk(k), b

    while abs(fp - target) > epsilon:
        # The step bound only needs to be fine near the target: a step
        # below max(epsilon, target - fp) cannot overshoot target+epsilon.
        allowed = max(epsilon, target - fp)
        j = 2
        while fp * (1.0 - fp) ** j >= allowed / 2.0:
            j += 1
        x = bisect_root(lambda q: _g_value(q, j) - fp, fp, 1.0 - 1e-15,
                        tol=1e-13)
        hi = min(x + allowed / 2.0, 1.0 - 1e-9)

        def composed(q: float, steps: int) -> float:
            return iterate_point(lambda x: activation(tree, x),
                                 _g_value(q, j), steps)[-1]

        steps = None
        for cand in range(1, 65):
            if composed(hi, cand) > hi:
                steps = cand
                break
        if steps is None:
            raise DegenerateInputError(
                f"composition failed to overtake {hi} from fixed point {fp}")
        new_leaves = tree.leaf_count ** steps * (j + 1)
        if new_leaves > max_leaves:
            raise CapacityError(
                f"size guard {max_leaves} exceeded (next tree would have "
                f"{new_leaves} leaves); closest achieved fixed point "
                f"{fp:.9f}", best_tree=tree, best_value=fp)
        fp = bisect_root(lambda q: composed(q, steps) - q, x, hi, tol=1e-13)
        tree = substitute_leaves(self_compose(tree, steps), _g_tree(j))
    return tree


# ---------------------------------------------------------------------------
# Staircases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StaircaseSpec:
    """Target staircase: value p_i on (a_i, a_{i+1}), with p_0=0, p_k=1.

    Every step must intersect the line y = x (a_i <= p_i <= a_{i+1}), which
    is exactly what keeps the plateau heights fixed under iteration.
    """

    breakpoints: tuple[float, ...]
    heights: tuple[float, ...]
    epsilon: float
    delta: float

    def __post_init__(self):
        a = tuple(check_real("breakpoint", x, 0, 1,
                             error=InvalidStaircaseError)
                  for x in self.breakpoints)
        p = tuple(check_real("height", x, 0, 1, error=InvalidStaircaseError)
                  for x in self.heights)
        object.__setattr__(self, "breakpoints", a)
        object.__setattr__(self, "heights", p)
        if len(a) < 1:
            raise InvalidStaircaseError("at least one breakpoint required")
        if len(p) != len(a) - 1:
            raise InvalidStaircaseError(
                f"{len(a)} breakpoints need {len(a) - 1} interior heights, "
                f"got {len(p)}")
        for name, xs in (("breakpoints", a), ("heights", p)):
            if any(x >= y for x, y in zip(xs, xs[1:])):
                raise InvalidStaircaseError(
                    f"{name} must be strictly increasing: {xs}")
        full_a, full_p = (0.0,) + a + (1.0,), (0.0,) + p + (1.0,)
        for i in range(1, len(full_a) - 1):
            if not full_a[i] <= full_p[i] <= full_a[i + 1]:
                raise InvalidStaircaseError(
                    f"step {i} does not intersect y=x: needs a_{i} <= p_{i} "
                    f"<= a_{i + 1}, got {full_a[i]} <= {full_p[i]} <= "
                    f"{full_a[i + 1]}")
        min_gap = min(y - x for x, y in zip(full_a, full_a[1:]))
        object.__setattr__(self, "epsilon", check_real(
            "epsilon", self.epsilon, 0, min_gap, error=InvalidStaircaseError))
        object.__setattr__(self, "delta", check_real(
            "delta", self.delta, 0, 1, error=InvalidStaircaseError))


def staircase(spec: StaircaseSpec) -> TreeDistribution:
    """Mixture approximating the staircase within delta on step interiors.

    For each breakpoint a_i: a single tree with fixed point within
    epsilon/2 of a_i, amplified to (delta, epsilon/2) sharpness; mixed with
    weights alpha_i = p_i - p_{i-1} so the partial sums reproduce the
    plateau heights.
    """
    sharp_trees = []
    for a_i in spec.breakpoints:
        base = dense_fixed_point(a_i, spec.epsilon / 2.0)
        amp = amplifier(base, spec.delta, spec.epsilon / 2.0,
                        max_leaves=STAIRCASE_TREE_CAP)
        sharp_trees.append(amp.tree)
    full_p = list(spec.heights) + [1.0]
    weights = [full_p[0]] + [full_p[i] - full_p[i - 1]
                             for i in range(1, len(full_p))]
    return TreeDistribution(
        label=f"staircase(a={list(spec.breakpoints)}, p={list(spec.heights)})",
        entries=tuple(zip(sharp_trees, weights)))
