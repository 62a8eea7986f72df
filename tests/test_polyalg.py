"""Float polynomial algebra: evaluation, mixtures, fixed points, ratios."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from amptree.errors import (DegenerateInputError, InconsistentFixedPointError,
                            WeightError)
from amptree.polyalg import (ATTRACTIVE, MARGINAL, NON_ATTRACTIVE, Polynomial,
                             compose, divergence_ratio, fixed_points,
                             iterate_point, mix, poly_from_ints,
                             scan_fixed_points)
from amptree.trees import (achievable_by_degree, achievable_witnesses, and_,
                           build_ak, build_bk, complement_tree,
                           enumerate_achievable, leaf, or_, tree_polynomial)

from _oracles import brute_force_activation, verified_interior_roots

VALIANT_POLY = Polynomial((0.0, 0.0, 4.0, -4.0, 1.0))
PHI = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------------------
# Evaluation / basic operations
# ---------------------------------------------------------------------------

def test_identity_eval():
    assert Polynomial.identity()(0.3) == 0.3


def test_valiant_eval_at_half():
    # hand expansion: 4/16 - 4/8 + ... = 0.5625, cross-checked by oracle
    assert VALIANT_POLY(0.5) == 0.5625
    assert abs(brute_force_activation(build_ak(2), 0.5) - 0.5625) <= 1e-12


def test_eval_at_zero_is_constant_coeff():
    assert Polynomial((0.25, 3.0, -1.0))(0.0) == 0.25


def test_mix_single():
    f = Polynomial((0.0, 1.0, 2.0))
    assert mix((1.0,), (f,)).coeffs == f.coeffs


def test_mix_linear_threshold_formula():
    x = leaf()
    t1 = poly_from_ints(tree_polynomial(and_(or_(x, x), x)).coeffs)
    t2 = poly_from_ints(tree_polynomial(or_(and_(x, x), x)).coeffs)
    mixed = mix((0.3, 0.7), (t1, t2))
    assert mixed.coeffs == pytest.approx((0.0, 0.7, 1.3, -1.0), abs=1e-15)


def test_mix_rejects_bad_weights():
    f = Polynomial((0.0, 1.0))
    with pytest.raises(WeightError):
        mix((0.7, 0.7), (f, f))
    with pytest.raises(WeightError):
        mix((-0.1, 1.1), (f, f))
    with pytest.raises(WeightError):
        mix((1.0,), (f, f))
    with pytest.raises(WeightError):
        mix((float("nan"), 1.0), (f, f))


def test_derivative():
    assert Polynomial((1.0, 2.0, 3.0)).derivative().coeffs == (2.0, 6.0)
    assert Polynomial((5.0,)).derivative().coeffs == (0.0,)


def test_compose_squares():
    sq = Polynomial((0.0, 0.0, 1.0))
    assert compose(sq, sq).coeffs == (0.0, 0.0, 0.0, 0.0, 1.0)


def test_iterate_point_identity():
    assert iterate_point(Polynomial.identity(), 0.4, 5) == [0.4] * 6


def test_iterate_point_valiant_amplifies():
    seq = iterate_point(VALIANT_POLY, 0.5, 6)
    assert len(seq) == 7
    assert seq[6] > 0.99
    assert all(b >= a for a, b in zip(seq, seq[1:]))
    # cross-check the first step with the exhaustive tree oracle
    assert abs(seq[1] - brute_force_activation(build_ak(2), 0.5)) <= 1e-12


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------

def test_fixed_points_valiant():
    rep = fixed_points(VALIANT_POLY)
    locs = rep.locations()
    assert locs[0] == 0.0 and locs[-1] == 1.0
    assert abs(locs[1] - (2 - PHI)) <= 1e-9
    kinds = [fp.kind for fp in rep.points]
    assert kinds == [ATTRACTIVE, NON_ATTRACTIVE, ATTRACTIVE]


def test_fixed_points_linear_mixture():
    f = Polynomial((0.0, 0.7, 1.3, -1.0))     # t = 0.3
    rep = fixed_points(f)
    assert rep.locations() == pytest.approx([0.0, 0.3, 1.0], abs=1e-9)
    interior = rep.interior_points()[0]
    # derivative at t is 1 + t - t^2
    assert interior.derivative == pytest.approx(1.21, abs=1e-9)
    assert interior.kind == NON_ATTRACTIVE


def test_fixed_points_one_step_attractive():
    f = Polynomial((0.0, 1.5, -1.5, 1.0))     # alpha = 1/2 mixture
    rep = fixed_points(f)
    interior = rep.interior_points()[0]
    assert interior.location == pytest.approx(0.5, abs=1e-9)
    assert interior.kind == ATTRACTIVE
    assert interior.derivative == pytest.approx(0.75, abs=1e-9)


def test_fixed_points_identity_rejected():
    with pytest.raises(DegenerateInputError):
        fixed_points(Polynomial.identity())


def test_marginal_classification():
    # f(p) = p + (p - 1/2)^3 has f'(1/2) = 1 exactly
    f = Polynomial((-0.125, 1.75, -1.5, 1.0))
    rep = fixed_points(f)
    mid = [fp for fp in rep.points if abs(fp.location - 0.5) < 1e-6]
    assert mid and mid[0].kind == MARGINAL


def test_scan_matches_report_for_valiant():
    roots = scan_fixed_points(VALIANT_POLY)
    assert len(roots) == 1
    assert abs(roots[0] - (2 - PHI)) <= 1e-9


# ---------------------------------------------------------------------------
# Divergence ratio
# ---------------------------------------------------------------------------

def test_divergence_ratio_linear_is_one():
    f = Polynomial((0.0, 0.7, 1.3, -1.0))
    g = divergence_ratio(f, 0.3)
    assert g.coeffs == pytest.approx((1.0,), abs=1e-12)


def test_divergence_ratio_quad4_constant_two():
    f = Polynomial((0.0, 0.0, 3.0, -2.0))     # quad4 at t = 1/2
    g = divergence_ratio(f, 0.5)
    assert g(0.0) == pytest.approx(2.0, abs=1e-12)
    assert g(0.77) == pytest.approx(2.0, abs=1e-12)


def test_divergence_ratio_bk_mixture_lower_bound():
    for t in (0.7, 0.85, 0.95):
        fb_k = None
        # mix B_k, B_{k+1} with the weight solving the fixed point at t
        for k in range(2, 12):
            f1 = poly_from_ints(tree_polynomial(build_bk(k)).coeffs)
            f2 = poly_from_ints(tree_polynomial(build_bk(k + 1)).coeffs)
            denom = f1(t) - f2(t)
            alpha = (t - f2(t)) / denom
            if 0.0 <= alpha <= 1.0:
                fb_k = mix((alpha, 1 - alpha), (f1, f2))
                break
        assert fb_k is not None
        g = divergence_ratio(fb_k, t)
        lo = min(g(i / 1000) for i in range(1001))
        assert lo >= 1.0 / t - 1e-9


def test_divergence_ratio_rejects_non_fixed_point():
    with pytest.raises(InconsistentFixedPointError):
        divergence_ratio(VALIANT_POLY, 0.25)


# ---------------------------------------------------------------------------
# Mixture-level properties
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
def test_complement_duality_for_mixtures(degree, rnd):
    witnesses = achievable_witnesses(degree)
    polys = list(witnesses)
    weights = [rnd.random() + 1e-3 for _ in polys]
    total = sum(weights)
    weights = [w / total for w in weights]
    fa = mix(weights, [poly_from_ints(q.coeffs) for q in polys])
    fb = mix(weights, [
        poly_from_ints(tree_polynomial(
            complement_tree(witnesses[q])).coeffs) for q in polys])
    for i in range(1, 10):
        p = i / 10
        assert abs(fb(1 - p) - (1 - fa(p))) <= 1e-12
    # iterate duality up to k = 30
    xa, xb = 0.37, 0.63
    for _ in range(30):
        xa = fa(xa)
        xb = fb(xb)
        assert abs(xb - (1 - xa)) <= 1e-9


def test_no_linear_term_iff_zero_derivative_at_zero():
    for poly in enumerate_achievable(5):
        f = poly_from_ints(poly.coeffs)
        assert (f.derivative()(0.0) == 0.0) == (poly.coeffs[1] == 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
def test_mixtures_of_achievable_stay_probabilities(degree, rnd):
    polys = list(enumerate_achievable(degree))
    weights = [rnd.random() + 1e-3 for _ in polys]
    total = sum(weights)
    f = mix([w / total for w in weights],
            [poly_from_ints(q.coeffs) for q in polys])
    for i in range(101):
        v = f(i / 100)
        assert -1e-9 <= v <= 1.0 + 1e-9


def test_degree_lower_bound_for_quadratic_candidates():
    # zero linear coefficient + interior fixed point t  =>  both t and 1-t
    # exceed 1/(2 d^2); float-scan candidates are confirmed exactly to
    # reject tangential-endpoint noise
    for d, polys in achievable_by_degree(7).items():
        for q in polys:
            if len(q.coeffs) < 2 or q.coeffs[1] != 0:
                continue
            f = poly_from_ints(q.coeffs)
            roots = verified_interior_roots(q, scan_fixed_points(f))
            for t in roots:
                assert t > 1.0 / (2 * d * d)
                assert 1.0 - t > 1.0 / (2 * d * d)


def test_ak_fixed_point_intervals():
    for k in range(2, 11):
        f = poly_from_ints(tree_polynomial(build_ak(k)).coeffs)
        roots = scan_fixed_points(f, grid=200_000)
        assert len(roots) == 1
        assert 1.0 / k ** 2 < roots[0] < 1.0 / (k * (k - 1))


def test_path_classification_of_small_trees():
    # the three fixed-point structures line up exactly with path flags;
    # where f'(endpoint) = 1 exactly the derivative label is MARGINAL and
    # the attract/repel direction is asserted dynamically instead
    from amptree.trees import all_trees, has_and_path, has_or_path
    samples = [i / 20 for i in range(1, 20)]
    for n in range(2, 6):
        for tree in all_trees(n):
            q = tree_polynomial(tree)
            f = poly_from_ints(q.coeffs)
            interior = verified_interior_roots(q, scan_fixed_points(f))
            rep = fixed_points(f)
            at0 = [fp for fp in rep.points if fp.location == 0.0]
            at1 = [fp for fp in rep.points if fp.location == 1.0]
            assert at0 and at1
            a_path, o_path = has_and_path(tree), has_or_path(tree)
            assert not (a_path and o_path)
            if a_path:
                assert not interior
                assert all(f(p) < p for p in samples)   # 0 attracts, 1 repels
                assert at0[0].kind in (ATTRACTIVE, MARGINAL)
                assert at1[0].kind in (NON_ATTRACTIVE, MARGINAL)
            elif o_path:
                assert not interior
                assert all(f(p) > p for p in samples)
                assert at0[0].kind in (NON_ATTRACTIVE, MARGINAL)
                assert at1[0].kind in (ATTRACTIVE, MARGINAL)
            else:
                assert len(interior) == 1
                assert at0[0].kind == ATTRACTIVE
                assert at1[0].kind == ATTRACTIVE
                deriv = f.derivative()(interior[0])
                assert deriv >= 1.0 - 1e-9


def test_interior_fixed_points_not_low_denominator_rationals():
    # irrationality proxy: the nearest rational with denominator <= 1e6 is
    # never an exact fixed point (checked in exact arithmetic)
    from amptree.trees import all_trees, has_and_path, has_or_path
    for n in range(2, 6):
        for tree in all_trees(n):
            if has_and_path(tree) or has_or_path(tree):
                continue
            q = tree_polynomial(tree)
            f = poly_from_ints(q.coeffs)
            roots = verified_interior_roots(q, scan_fixed_points(f))
            for r in roots:
                cand = Fraction(r).limit_denominator(10 ** 6)
                assert q.evaluate_exact(cand) != cand
