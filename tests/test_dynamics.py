"""Iteration profiles, convergence order, condition certificates."""
import io

import numpy as np
import pytest

from amptree.catalog import (TreeDistribution, linear_threshold, quad4,
                             quad5, quad_k, soft_threshold, valiant)
from amptree.dynamics import (LINEAR, QUADRATIC, UNDETERMINED,
                              certified_corridor, order_estimate, profile,
                              verify_conditions)
from amptree.errors import DegenerateInputError, RangeError
from amptree.trees import build_ak


# ---------------------------------------------------------------------------
# order_estimate
# ---------------------------------------------------------------------------

def test_order_estimate_geometric_is_linear():
    errors = [0.1 * 0.5 ** i for i in range(30)]
    assert order_estimate(errors) == LINEAR


def test_order_estimate_squaring_is_quadratic():
    assert order_estimate([0.1, 0.01, 1e-4, 1e-8]) == QUADRATIC


def test_order_estimate_needs_four_points():
    assert order_estimate([0.1, 0.01, 1e-4]) == UNDETERMINED
    assert order_estimate([0.5, 0.4, 1e-14, 1e-15]) == UNDETERMINED


def test_order_estimate_window_excludes_extremes():
    errors = [0.9, 0.8, 0.1, 0.05, 0.025, 0.0125, 0.00625, 1e-13]
    assert order_estimate(errors) == LINEAR


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def test_profile_orders_for_catalog():
    assert profile(linear_threshold(0.5), 0.49).order == LINEAR
    assert profile(quad4(0.5), 0.49).order == QUADRATIC
    assert profile(quad4(0.5), 0.51).order == QUADRATIC
    assert profile(quad5(0.5), 0.49).order == QUADRATIC
    assert profile(quad_k(0.1), 0.09).order == QUADRATIC
    assert profile(quad_k(0.9), 0.91).order == QUADRATIC


def test_profile_at_zero_is_all_zero():
    prof = profile(valiant(), 0.0)
    assert prof.limit == 0.0
    assert all(e == 0.0 for e in prof.errors)


def test_profile_rejects_fixed_point_start():
    with pytest.raises(DegenerateInputError):
        profile(linear_threshold(0.5), 0.5)
    with pytest.raises(RangeError):
        profile(linear_threshold(0.5), 1.5)
    for levels in (0, -1):
        with pytest.raises(RangeError, match="max_levels"):
            profile(linear_threshold(0.5), 0.4, max_levels=levels)


def test_profile_without_a_hint_takes_the_one_interior_root():
    dist = TreeDistribution("ak2", ((build_ak(2), 1.0),))
    t = dist.interior_fixed_points()[0]
    below, above = profile(dist, 0.3), profile(dist, 0.5)
    assert below.threshold == above.threshold == t
    assert (below.limit, above.limit) == (0.0, 1.0)
    with pytest.raises(DegenerateInputError, match="no threshold"):
        profile(soft_threshold(6), 0.3)


def test_profile_levels_to_and_csv():
    prof = profile(linear_threshold(0.5), 0.49)
    lvl = prof.levels_to(2.0 ** -20)
    assert lvl is not None
    assert prof.errors[lvl] <= 2.0 ** -20
    buf = io.StringIO()
    prof.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "level,iterate,error"
    assert len(lines) == len(prof.errors) + 1


def test_profile_errors_monotone_after_corridor_exit():
    for dist, p in [(quad4(0.5), 0.49), (linear_threshold(0.3), 0.29)]:
        prof = profile(dist, p)
        u = (dist.corridor or (0.2, 0.8))[0]
        tail = [e for e in prof.errors if e < u]
        assert all(b <= a for a, b in zip(tail, tail[1:]))


def test_profile_complement_symmetry():
    d = quad4(0.45)
    c = d.complement()
    pa = profile(d, 0.40)
    pb = profile(c, 0.60)
    assert len(pa.errors) == len(pb.errors)
    for ea, eb in zip(pa.errors, pb.errors):
        assert abs(ea - eb) <= 1e-12


def test_linear_level_count_grows_affinely():
    prof = profile(linear_threshold(0.5), 0.49, max_levels=300)
    ks = list(range(6, 26))
    levels = [prof.levels_to(2.0 ** -k) for k in ks]
    assert all(l is not None for l in levels)
    slope, intercept = np.polyfit(ks, levels, 1)
    fitted = slope * np.array(ks) + intercept
    assert np.max(np.abs(fitted - levels)) <= 2.0
    # slope is bounded by 1/log2(1/rate); rate near 0 is 1/2 here
    assert 0.8 <= slope <= 1.3


def test_quadratic_level_count_grows_logarithmically():
    prof = profile(quad4(0.5), 0.49, max_levels=300)
    ks = [4, 8, 16, 32]
    levels = [prof.levels_to(2.0 ** -k) for k in ks]
    assert all(l is not None for l in levels)
    diffs = [b - a for a, b in zip(levels, levels[1:])]
    # doubling k costs O(1) extra levels
    assert max(diffs) <= 3


def test_quad4_error_recursion_constant():
    # beyond burn-in, e_{l+1} <= 4 e_l^2: the 4-leaf mixture satisfies
    # f(p) <= 4 p^2 below u = 1/5
    prof = profile(quad4(0.5), 0.49)
    errs = prof.errors
    for a, b in zip(errs, errs[1:]):
        if 1e-12 < a < 0.2:
            assert b <= 4.0 * a * a + 1e-15


def test_monotone_amplification_across_catalog():
    for dist in (valiant(), linear_threshold(0.35), quad4(0.6), quad5(0.3),
                 quad_k(0.92), quad_k(0.08)):
        t = dist.threshold
        for p in np.linspace(0.01, 0.99, 99):
            v = dist.evaluate(p)
            if p < t - 1e-9:
                assert v < p
            elif p > t + 1e-9:
                assert v > p


# ---------------------------------------------------------------------------
# verify_conditions
# ---------------------------------------------------------------------------

def test_conditions_quad4_proof_constants():
    rep = verify_conditions(quad4(0.5), 0.5, 1 / 5, 4 / 5)
    assert rep.passed
    assert rep.c3 <= 4.0
    assert rep.c1 > 1.0 and rep.c2 > 1.0
    assert rep.c3 * rep.u < 1.0


def test_conditions_quad5_proof_constants():
    rep = verify_conditions(quad5(0.5), 0.5, 1 / 7, 6 / 7)
    assert rep.passed
    assert rep.c3 <= 6.0


def test_conditions_fail_for_linear_construction():
    rep = verify_conditions(linear_threshold(0.5), 0.5, 1 / 5, 4 / 5)
    assert not rep.passed
    names = {f.condition for f in rep.failures}
    assert "quadratic convergence to 0" in names
    witness = [f for f in rep.failures
               if f.condition == "quadratic convergence to 0"][0]
    assert 0.0 < witness.witness < 1 / 5


def test_conditions_reject_bad_intervals():
    with pytest.raises(RangeError):
        verify_conditions(quad4(0.5), 0.5, 0.6, 0.8)
    for margin in (0.0, -0.01, 1e-20, 0.3):
        with pytest.raises(RangeError):
            verify_conditions(quad4(0.5), 0.5, 0.2, 0.8, margin=margin)


def test_certified_corridor_for_quad_families():
    d = quad_k(0.9)
    u, v = certified_corridor(d.evaluate, 0.9)
    f = d.evaluate
    assert max(f(p) / p ** 2 for p in np.linspace(1e-3, u, 200)) * u < 1.0
    assert u >= 0.5
    d2 = linear_threshold(0.5)
    assert certified_corridor(d2.evaluate, 0.5) is None


def test_certified_corridor_near_the_ends_certifies_nothing_quietly():
    # p * p or (1 - p)^2 is 0 on part of the grid; warnings are errors here
    for t in (2.2e-309, 1e-300, 1.0 - 1e-16):
        assert certified_corridor(quad4(0.5).evaluate, t) is None
    with pytest.raises(RangeError, match="threshold t"):
        certified_corridor(quad4(0.5).evaluate, 1.5)
