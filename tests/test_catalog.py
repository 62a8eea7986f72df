"""Construction catalog: thresholds, staircases, amplification."""
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from amptree.catalog import (GOLDEN, VALIANT_THRESHOLD, StaircaseSpec,
                             TreeDistribution, ak_fixed_point, amplifier,
                             bk_fixed_point, dense_fixed_point,
                             linear_threshold, one_step, quad4, quad5, quad6,
                             quad7, quad_k, soft_threshold, staircase, valiant)
from amptree.errors import (CapacityError, DegenerateInputError,
                            InvalidStaircaseError, RangeError, WeightError)
from amptree.polyalg import Polynomial, fixed_points, iterate_point, mix, \
    scan_fixed_points
from amptree.trees import (activation, build_ak, build_bk, format_tree, leaf,
                           or_, or_chain, and_, parse_tree, tree_polynomial)

PHI1 = GOLDEN - 1.0


def interior(dist):
    return [fp for fp in fixed_points(dist.mixture).points if fp.interior]


# ---------------------------------------------------------------------------
# TreeDistribution basics
# ---------------------------------------------------------------------------

def test_weights_must_sum_to_one():
    x = leaf()
    with pytest.raises(WeightError):
        TreeDistribution("bad", ((and_(x, x), 0.6), (or_(x, x), 0.6)))
    with pytest.raises(WeightError):
        TreeDistribution("bad", ((and_(x, x), -0.5), (or_(x, x), 1.5)))


def test_weights_must_be_finite():
    # A NaN weight fails neither "w < 0" nor "|sum - 1| > 1e-12".
    for weights in ([float("nan")], [0.5, float("nan")]):
        with pytest.raises(WeightError):
            TreeDistribution("nan", tuple((parse_tree("(AND x x)"), w)
                                          for w in weights))


def test_mixture_equals_weighted_sum():
    d = linear_threshold(0.25)
    expected = mix([w for _, w in d.entries],
                   [tree_polynomial(t) for t, _ in d.entries])
    assert d.mixture.coeffs == expected.coeffs


def test_evaluate_matches_mixture():
    d = quad5(0.4)
    for p in np.linspace(0, 1, 23):
        assert abs(d.evaluate(p) - d.mixture(p)) <= 1e-12


def test_distribution_json_roundtrip():
    d = quad4(0.55)
    payload = json.loads(d.to_json())
    assert payload["label"] == d.label
    assert payload["entries"][0]["tree"] == "(AND (OR x x) (OR x x))"
    assert [(e["tree"], e["weight"]) for e in payload["entries"]] == [
        (format_tree(t), w) for t, w in d.entries]
    assert payload["mixture"] == list(d.mixture.coeffs)
    # The written trees and weights give back the written mixture.
    back = mix([e["weight"] for e in payload["entries"]],
               [tree_polynomial(parse_tree(e["tree"]))
                for e in payload["entries"]])
    assert back.coeffs == pytest.approx(payload["mixture"], abs=1e-15)


def test_complement_distribution():
    d = linear_threshold(0.3)
    c = d.complement()
    assert c.threshold == pytest.approx(0.7)
    for p in np.linspace(0, 1, 11):
        assert abs(c.evaluate(1 - p) - (1 - d.evaluate(p))) <= 1e-12


# ---------------------------------------------------------------------------
# valiant / linear_threshold
# ---------------------------------------------------------------------------

def test_valiant():
    d = valiant()
    assert d.mixture.coeffs == (0.0, 0.0, 4.0, -4.0, 1.0)
    fp = interior(d)[0]
    assert fp.location == pytest.approx(2 - GOLDEN, abs=1e-9)
    comp_fp = interior(d.complement())[0]
    assert comp_fp.location == pytest.approx(GOLDEN - 1, abs=1e-9)


def test_linear_threshold_mixture_and_fixed_points():
    d = linear_threshold(0.5)
    assert d.mixture.coeffs == pytest.approx((0.0, 0.5, 1.5, -1.0), abs=1e-15)
    rep = fixed_points(d.mixture)
    assert rep.locations() == pytest.approx([0.0, 0.5, 1.0], abs=1e-9)
    for t in [i / 10 for i in range(1, 10)]:
        fp = interior(linear_threshold(t))[0]
        assert fp.location == pytest.approx(t, abs=1e-9)


def test_linear_threshold_derivative_at_t():
    fp = interior(linear_threshold(0.3))[0]
    assert fp.kind == "NON_ATTRACTIVE"
    assert fp.derivative == pytest.approx(1.21, abs=1e-9)


def test_linear_threshold_range():
    for t in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(RangeError):
            linear_threshold(t)


# ---------------------------------------------------------------------------
# quad4 / quad5 / quad6 / quad7
# ---------------------------------------------------------------------------

def test_quad4_endpoints_are_pure_trees():
    lo = quad4(VALIANT_THRESHOLD)
    assert lo.entries[0][1] == pytest.approx(1.0, abs=1e-9)
    hi = quad4(PHI1)
    assert hi.entries[0][1] == pytest.approx(0.0, abs=1e-9)


def test_quad4_midpoint():
    d = quad4(0.5)
    assert [w for _, w in d.entries] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert d.mixture.coeffs == pytest.approx((0.0, 0.0, 3.0, -2.0), abs=1e-12)
    # cross-check against the closed-form coefficients at general t
    for t in (0.45, 0.5, 0.6):
        m = quad4(t).mixture
        denom = t * (1 - t)
        assert m.coeffs[2] == pytest.approx((1 + t - 3 * t * t) / denom,
                                            abs=1e-9)
        assert m.coeffs[3] == pytest.approx(
            (-2 + 2 * t + 2 * t * t) / denom, abs=1e-9)
        if len(m.coeffs) > 4:
            assert m.coeffs[4] == pytest.approx((1 - 2 * t) / denom, abs=1e-9)


def test_quad4_range_error_names_degree_floor():
    with pytest.raises(RangeError) as err:
        quad4(0.2)
    assert "leaves" in str(err.value)


def test_quad5_midpoint_and_formula():
    d = quad5(0.5)
    assert [w for _, w in d.entries] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert d.mixture.coeffs == pytest.approx(
        (0.0, 0.0, 3.5, -4.0, 2.5, -1.0), abs=1e-12)
    for t in (0.3, 0.5, 0.7):
        m = quad5(t).mixture
        denom = t * (1 - t)
        assert m.coeffs[2] == pytest.approx(
            (1 + t - 2 * t ** 2 - t ** 3) / denom, abs=1e-9)
        assert m.coeffs[3] == pytest.approx(
            (-2 + t + t ** 2 + 2 * t ** 3) / denom, abs=1e-9)


def test_quad5_trees_have_stated_polynomials():
    d = quad5(0.5)
    polys = {tree_polynomial(t).coeffs for t, _ in d.entries}
    assert polys == {(0, 0, 1, 1, 0, -1), (0, 0, 6, -9, 5, -1)}


def test_quad5_range_endpoints_from_weight_bisection():
    # alpha(t) hits 0 / 1 exactly at the pure-tree fixed points
    lo_expect = scan_fixed_points(Polynomial((0, 0, 6, -9, 5, -1)))[0]
    hi_expect = scan_fixed_points(Polynomial((0, 0, 1, 1, 0, -1)))[0]

    def alpha(t):
        d = quad5(t)
        return d.entries[0][1]

    lo, hi = lo_expect, hi_expect
    assert alpha(lo + 1e-9) == pytest.approx(0.0, abs=1e-6)
    assert alpha(hi - 1e-9) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(RangeError):
        quad5(lo - 1e-3)
    with pytest.raises(RangeError):
        quad5(hi + 1e-3)


def test_quad_mixtures_have_quadratic_gate():
    # zero linear coefficient and zero derivative at 1
    for d in (quad4(0.45), quad5(0.6), quad6(0.3), quad7(0.15),
              quad_k(0.07), quad_k(0.93)):
        m = d.mixture
        assert abs(m.coeffs[1]) <= 1e-12
        assert abs(m.derivative()(1.0)) <= 1e-9


def test_linear_coefficient_gate_across_catalog():
    # f'(0) = 0 exactly when a_1 = 0: true for the quadratic family,
    # false for the linear construction and the one-step staircase
    for d, gate in ((quad4(0.5), True), (quad_k(0.9), True),
                    (linear_threshold(0.4), False), (one_step(0.5), False)):
        m = d.mixture
        assert (m.derivative()(0.0) == 0.0) == gate
        assert (abs(m.coeffs[1]) < 1e-15) == gate


def test_quad67_admissible_ranges():
    # ranges are determined numerically: roughly 0.15..0.85 for six
    # leaves and 0.11..0.89 for seven
    assert ak_fixed_point(3) == pytest.approx(0.1516, abs=5e-4)
    assert bk_fixed_point(3) == pytest.approx(0.8484, abs=5e-4)
    for t in (0.16, 0.5, 0.84):
        assert interior(quad6(t))[0].location == pytest.approx(t, abs=1e-9)
    for t in (0.12, 0.5, 0.88):
        assert interior(quad7(t))[0].location == pytest.approx(t, abs=1e-9)
    with pytest.raises(RangeError):
        quad6(0.12)
    with pytest.raises(RangeError):
        quad7(0.10)


def test_quad_pair_end_within_weight_clamp_is_pure_tree():
    # The solved weight is clamped to [0, 1] within 1e-9, about 1e-10 in t.
    assert [w for _, w in quad4(VALIANT_THRESHOLD - 1e-11).entries] == \
        [1.0, 0.0]
    assert [w for _, w in quad4(PHI1 + 1e-11).entries] == [0.0, 1.0]
    for t in (VALIANT_THRESHOLD - 3e-10, PHI1 + 3e-10):
        with pytest.raises(RangeError, match=r"\[0\.381966, 0\.618034\]"):
            quad4(t)


def _pair_range(build) -> str:
    """'[lo, hi]' from the fixed points of the two trees ``build`` mixes."""
    lo, hi = sorted(scan_fixed_points(lambda p, tr=tree: activation(tr, p))[0]
                    for tree, _ in build(0.5).entries)
    return f"[{lo:.6f}, {hi:.6f}]"


@settings(max_examples=60, deadline=None)
@given(build=st.sampled_from([quad4, quad5, quad6, quad7]),
       t=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(build=quad7, t=0.9999999999999999)   # activation rounds to t
def test_quad_pair_names_its_range_or_fixes_t(build, t):
    try:
        dist = build(t)
    except RangeError as err:
        assert _pair_range(build) in str(err)
        return
    assert min(abs(r - t) for r in dist.interior_fixed_points()) <= 1e-9


# ---------------------------------------------------------------------------
# quad_k
# ---------------------------------------------------------------------------

def test_quad_k_boundary_is_pure_b2():
    d = quad_k(PHI1)
    assert "B2" in d.label
    assert d.entries[0][1] == pytest.approx(1.0, abs=1e-7)


def test_quad_k_small_threshold_uses_a3_a4():
    d = quad_k(0.1)
    assert "A3/A4" in d.label
    a3, a4 = ak_fixed_point(3), ak_fixed_point(4)
    assert 1 / 9 < a3 < 1 / 6
    assert 1 / 16 < a4 < 1 / 12
    assert a4 < 0.1 < a3
    alpha = d.entries[0][1]
    assert 0.0 <= alpha <= 1.0


def test_quad_k_fixed_points():
    for t in (0.05, 0.1, 0.9, 0.95):
        roots = quad_k(t).interior_fixed_points()
        assert min(abs(r - t) for r in roots) <= 1e-9


def test_quad_k_near_0_and_1():
    # a_k's bracket lost its sign near k = 9,000 when bisected in p
    for t in (1e-8, 1e-9, 1.0 - 1e-8):
        d = quad_k(t)
        assert all(0.0 <= w <= 1.0 for _, w in d.entries)
        assert abs(d.evaluate(t) - t) <= 1e-12 * t
    for t in (1e-12, 1.0 - 1e-15):
        with pytest.raises(CapacityError):
            quad_k(t)


def test_ak_fixed_point_in_its_bracket():
    # q - (1 - (1-q)^k)^2 changes sign, in exact arithmetic, within a
    # relative 1e-12 of the float root.
    for k in (2, 3, 10, 9_000):
        a = ak_fixed_point(k)
        assert 1.0 / k ** 2 < a < 1.0 / (k * (k - 1))
        for q, sign in ((a * (1 - 1e-12), 1), (a * (1 + 1e-12), -1)):
            q = Fraction(q)
            assert sign * (q - (1 - (1 - q) ** k) ** 2) > 0
        assert bk_fixed_point(k) == 1.0 - a


def test_quad_k_divergence_ratio_bound():
    from amptree.polyalg import divergence_ratio
    for t in (0.85, 0.9, 0.95):
        d = quad_k(t)
        g = divergence_ratio(d.mixture, t)
        lo = min(g(i / 1000) for i in range(1001))
        assert lo >= 1.0 / t - 1e-6


def test_quad_k_delegates_middle_range():
    d = quad_k(0.5)
    assert d.label.startswith("quad4")
    for t in (0.0, 1.0):
        with pytest.raises(RangeError):
            quad_k(t)


# ---------------------------------------------------------------------------
# one_step / soft_threshold
# ---------------------------------------------------------------------------

def test_one_step_midpoint():
    d = one_step(0.5)
    fp = interior(d)[0]
    assert fp.location == pytest.approx(0.5, abs=1e-9)
    assert fp.kind == "ATTRACTIVE"
    assert fp.derivative == pytest.approx(0.75, abs=1e-9)


def test_one_step_formula_and_derivative():
    for alpha in (0.4, 0.55, 0.6):
        d = one_step(alpha)
        fp = interior(d)[0]
        assert fp.location == pytest.approx(3 * alpha - 1, abs=1e-9)
        assert fp.derivative == pytest.approx(
            3 - 9 * alpha + 9 * alpha * alpha, abs=1e-9)
        assert fp.kind == "ATTRACTIVE"


def test_one_step_range():
    for alpha in (1 / 3, 2 / 3, 0.1, 0.9):
        with pytest.raises(RangeError):
            one_step(alpha)


def test_soft_threshold_derivative_formula():
    for k in (4, 5, 6, 8):
        d = soft_threshold(k)
        expected = k * 2.0 ** -(k - 2) * (1 - 2.0 ** -k)
        assert d.mixture.derivative()(0.5) == pytest.approx(expected,
                                                            abs=1e-12)
        assert expected < 1


def test_soft_threshold_structure():
    rep = fixed_points(soft_threshold(6).mixture)
    assert len(rep.points) == 5
    s, mid, t = [fp.location for fp in rep.interior_points()]
    assert s < 0.5 < t and mid == pytest.approx(0.5, abs=1e-9)
    kinds = [fp.kind for fp in rep.interior_points()]
    assert kinds == ["NON_ATTRACTIVE", "ATTRACTIVE", "NON_ATTRACTIVE"]


def test_soft_threshold_basin():
    # the 0.5 plateau's basin boundary sits at s ~ 0.3246 for k = 4;
    # convergence inside is slow (derivative 0.9375 at the midpoint)
    d = soft_threshold(4)
    s = fixed_points(d.mixture).interior_points()[0].location
    assert s == pytest.approx(0.3246, abs=5e-4)
    inside = iterate_point(d.mixture, s + 0.02, 300)[-1]
    outside = iterate_point(d.mixture, s - 0.02, 300)[-1]
    assert inside == pytest.approx(0.5, abs=1e-6)
    assert outside == pytest.approx(0.0, abs=1e-6)


def test_soft_threshold_rejects_small_k():
    with pytest.raises(RangeError):
        soft_threshold(3)


# ---------------------------------------------------------------------------
# amplifier
# ---------------------------------------------------------------------------

def test_amplifier_valiant():
    res = amplifier(build_ak(2), 0.1, 0.1)
    assert res.k == 5
    assert res.tree.leaf_count == 4 ** 5
    t = res.anchor
    f = lambda p: activation(build_ak(2), p)
    lo, hi = t - 0.1, t + 0.1
    for _ in range(res.k):
        lo, hi = f(lo), f(hi)
    assert lo < 0.1 and hi > 0.9
    assert abs(activation(res.tree, t - 0.1) - lo) <= 1e-12


def test_amplifier_trivial_case():
    res = amplifier(build_ak(2), 0.5, 0.49)
    assert res.k == 1


def test_amplifier_complement_symmetry():
    res_a = amplifier(build_ak(2), 0.1, 0.1)
    res_b = amplifier(build_bk(2), 0.1, 0.1)
    assert res_a.k == res_b.k
    p = 0.3
    va = activation(res_a.tree, p)
    vb = activation(res_b.tree, 1 - p)
    assert abs(vb - (1 - va)) <= 1e-9


def test_amplifier_refuses_a_bare_leaf_first():
    # before the fixed-point scan, which finds every grid point fixed
    with pytest.raises(DegenerateInputError,
                       match="^cannot amplify a bare leaf$"):
        amplifier(leaf(), 0.1, 0.1)


def test_amplifier_refuses_a_tree_without_one_threshold():
    # AND(x, OR of 5) is below the diagonal on (0, 1), but the scan sees
    # roots where f(p) - p is below rounding; the message counts them.
    with pytest.raises(DegenerateInputError, match="no threshold") as err:
        amplifier(and_(leaf(), or_chain(5)), 0.1, 0.1)
    assert len(str(err.value)) < 200


def test_unique_threshold_takes_the_hint_else_the_one_root():
    ak2 = ((build_ak(2), 1.0),)
    root = scan_fixed_points(lambda p: activation(build_ak(2), p))[0]
    hint = root + 1e-10     # a fixed point within the tolerance, not root
    assert TreeDistribution("ak2", ak2, threshold=hint).unique_threshold() \
        == hint
    assert TreeDistribution("ak2", ak2).unique_threshold() == root
    with pytest.raises(DegenerateInputError,
                       match=r"^soft_threshold\(6\) has no threshold: 3 "
                             r"interior fixed points, not one$"):
        soft_threshold(6).unique_threshold()


@pytest.mark.parametrize("hint, error", [
    (0.9, DegenerateInputError), (0.4, DegenerateInputError),
    (np.nan, RangeError), (0.0, RangeError), (1.0, RangeError),
    ("0.4", RangeError)])
def test_a_threshold_hint_must_be_a_fixed_point_in_0_1(hint, error):
    # ak2's one interior fixed point is 2 - phi = 0.382; a hint of 0.9 made
    # profile report limit 0 for iterates that go to 1.
    with pytest.raises(error, match="threshold hint"):
        TreeDistribution("ak2", ((build_ak(2), 1.0),), threshold=hint)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(1e-4, 1 - 1e-4))
def test_catalog_hints_and_their_complements_pass_the_check(t):
    # The tolerance is 1e-9; the catalog's hints sit within a few ulps.
    for build in (linear_threshold, quad4, quad5, quad6, quad7, quad_k,
                  lambda t: one_step((t + 1) / 3), lambda t: valiant()):
        try:
            dist = build(t)
        except RangeError:
            continue
        for d in (dist, dist.complement()):
            assert abs(d.evaluate(d.threshold) - d.threshold) <= 1e-15


def test_amplifier_capacity_error_reports_achieved_delta():
    with pytest.raises(CapacityError) as err:
        amplifier(build_ak(2), 1e-9, 0.001, max_leaves=4 ** 3)
    assert err.value.best_value is not None
    assert err.value.best_tree.leaf_count == 4 ** 3


# ---------------------------------------------------------------------------
# dense_fixed_point
# ---------------------------------------------------------------------------

def unique_fp(tree):
    roots = scan_fixed_points(lambda p: activation(tree, p))
    assert len(roots) == 1
    return roots[0]


def test_dense_anchor_is_returned_directly():
    tree = dense_fixed_point(VALIANT_THRESHOLD, 0.05)
    assert tree.leaf_count == 4
    assert unique_fp(tree) == pytest.approx(VALIANT_THRESHOLD, abs=1e-9)


def test_dense_upper_target():
    tree = dense_fixed_point(0.7, 0.05)
    assert abs(unique_fp(tree) - 0.7) <= 0.05


def test_dense_lower_target_via_complement():
    tree = dense_fixed_point(0.3, 0.05)
    assert abs(unique_fp(tree) - 0.3) <= 0.05
    mirror = dense_fixed_point(0.7, 0.05)
    assert abs((1 - unique_fp(mirror)) - unique_fp(tree)) <= 1e-9


def test_dense_capacity_guard():
    with pytest.raises(CapacityError) as err:
        dense_fixed_point(0.57, 0.001, max_leaves=50)
    assert err.value.best_tree is not None
    assert 0 < err.value.best_value < 1


def test_dense_capacity_guard_below_half_reports_the_complemented_tree():
    with pytest.raises(CapacityError) as err:
        dense_fixed_point(0.05, 1e-3)
    best, tree = err.value.best_value, err.value.best_tree
    assert best < 0.5
    assert best == pytest.approx(0.0535, abs=1e-3)
    assert f"closest achieved fixed point {best:.9f}" in str(err.value)
    assert abs(activation(tree, best) - best) <= 1e-9


@pytest.mark.parametrize("target", [0.3, 0.7])
def test_dense_stall_names_points_on_the_targets_side(monkeypatch, target):
    # A map that never climbs stalls the walk; below 1/2 the error must
    # name the complemented walk's points, which lie below 1/2 too.
    monkeypatch.setattr("amptree.catalog.activation", lambda tree, x: x / 2)
    with pytest.raises(DegenerateInputError, match="failed to pass") as err:
        dense_fixed_point(target, 1e-3)
    named = [float(x) for x in re.findall(r"\d\.\d+", str(err.value))]
    assert len(named) == 2
    assert all((x < 0.5) == (target < 0.5) for x in named)


def test_dense_rejects_bad_target():
    for target in (0.0, 1.0, -1.0):
        with pytest.raises(RangeError):
            dense_fixed_point(target, 0.1)


# ---------------------------------------------------------------------------
# staircase
# ---------------------------------------------------------------------------

def test_staircase_spec_validation():
    with pytest.raises(InvalidStaircaseError):
        StaircaseSpec((0.7, 0.3), (0.5,), 0.05, 0.1)   # not increasing
    with pytest.raises(InvalidStaircaseError):
        StaircaseSpec((0.3, 0.7), (0.9,), 0.05, 0.1)   # step misses y=x
    with pytest.raises(InvalidStaircaseError):
        StaircaseSpec((0.3, 0.7), (0.5,), 0.5, 0.1)    # epsilon too wide
    with pytest.raises(InvalidStaircaseError):
        StaircaseSpec((0.3, 0.7), (), 0.05, 0.1)       # missing height


def test_staircase_single_step_acts_like_threshold():
    spec = StaircaseSpec((0.5,), (), epsilon=0.1, delta=0.1)
    d = staircase(spec)
    assert len(d.entries) == 1 and d.entries[0][1] == pytest.approx(1.0)
    # same sided behavior as the iterated linear construction
    lin = linear_threshold(0.5)
    for p in (0.05, 0.2, 0.35):
        assert d.evaluate(p) < 0.1
        assert iterate_point(lin.mixture, p, 80)[-1] < 0.1
    for p in (0.65, 0.8, 0.95):
        assert d.evaluate(p) > 0.9
        assert iterate_point(lin.mixture, p, 80)[-1] > 0.9


def test_staircase_two_step_band():
    spec = StaircaseSpec((0.3, 0.7), (0.5,), epsilon=0.1, delta=0.1)
    d = staircase(spec)
    assert [w for _, w in d.entries] == pytest.approx([0.5, 0.5])
    for p in np.linspace(0.41, 0.59, 50):
        assert abs(d.evaluate(p) - 0.5) < 0.1


def test_soft_threshold_is_a_three_step_staircase_fixture():
    # equal A_6/B_6 mixture: iterates settle on the plateaus 0, 1/2, 1
    d = soft_threshold(6)
    rep = fixed_points(d.mixture)
    s, _, t = [fp.location for fp in rep.interior_points()]
    for p in np.linspace(0.01, 0.99, 49):
        if min(abs(p - s), abs(p - t)) < 0.03:
            continue
        end = iterate_point(d.mixture, p, 30)[-1]
        target = 0.0 if p < s else (0.5 if p < t else 1.0)
        assert abs(end - target) < 0.05
