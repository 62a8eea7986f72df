"""Array-evaluated analysis grids against their scalar loops.

``scan_fixed_points``, ``verify_conditions``, ``certified_corridor`` and
``exact_level_distribution`` each call the function they scan once on a
float64 grid.  Every result must equal, with ``==`` and as Python floats,
what the one-call-per-point loops in ``_oracles`` return.
"""
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from amptree import dynamics, polyalg
from amptree.catalog import quad_k
from amptree.dynamics import _square, _sweep, certified_corridor, \
    verify_conditions
from amptree.polyalg import Polynomial, scan_fixed_points
from amptree.trees import activation, all_trees, tree_polynomial

from _oracles import (scalar_certified_corridor, scalar_scan_fixed_points,
                      scalar_sweep)

TREES = [tree for n in range(1, 6) for tree in all_trees(n)]


def _scanned(tree, kind: str):
    if kind == "polynomial":
        return tree_polynomial(tree)
    return lambda p: activation(tree, p)


def _all_floats(values) -> bool:
    return all(type(x) is float for x in values)


def _with_nans(f):
    """``f`` with NaN wherever frac(37 p) < 0.3, on arrays and on floats."""
    def g(p):
        out = np.where(np.mod(np.multiply(p, 37.0), 1.0) < 0.3, np.nan, f(p))
        return out if out.ndim else float(out)
    return g


@settings(max_examples=40, deadline=None)
@given(tree=st.sampled_from(TREES),
       kind=st.sampled_from(["polynomial", "activation", "NaN"]),
       grid=st.sampled_from([10_000, 997]) | st.integers(2, 400))
def test_scan_matches_scalar_loop_on_small_trees(tree, kind, grid):
    if kind == "NaN":
        f = _with_nans(_scanned(tree, "activation"))
    else:
        f = _scanned(tree, kind)
    with mock.patch.object(polyalg, "DEFAULT_GRID", grid):
        roots = scan_fixed_points(f)
    assert roots == scalar_scan_fixed_points(f, grid=grid)
    assert _all_floats(roots)


@settings(max_examples=60, deadline=None)
@given(tree=st.sampled_from(TREES),
       kind=st.sampled_from(["polynomial", "activation"]),
       ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True),
       minimize=st.booleans(), grid=st.integers(1, 2000))
def test_sweep_matches_scalar_loop_on_small_trees(tree, kind, ends, minimize,
                                                  grid):
    f = _scanned(tree, kind)
    lo, hi = sorted(ends)
    got = _sweep(lo, hi, f, minimize, grid)
    assert got == scalar_sweep(lo, hi, f, minimize, grid)
    assert _all_floats(got)


def test_sweep_tie_keeps_first_grid_point():
    constant = Polynomial((0.25,))
    for minimize in (True, False):
        assert _sweep(0.1, 0.9, constant, minimize, 100) == (0.25, 0.1)
        assert scalar_sweep(0.1, 0.9, constant, minimize, 100) == (0.25, 0.1)
    plateau = lambda p: np.minimum(p, 0.5)          # max on [0.5, 1]
    val, witness = _sweep(0.0, 1.0, plateau, False, 8)
    assert (val, witness) == (0.5, 0.5)
    assert (val, witness) == scalar_sweep(0.0, 1.0, plateau, False, 8)


@settings(max_examples=12, deadline=None)
@given(t=st.floats(0.02, 0.98), a=st.floats(0.05, 0.9),
       b=st.floats(0.1, 0.95))
def test_quad_k_grids_match_scalar_loops(t, a, b):
    dist = quad_k(t)
    f = dist.evaluate
    xs = np.linspace(0.0, 1.0, 257)
    assert f(xs).tolist() == [f(x) for x in xs.tolist()]

    roots = dist.interior_fixed_points()
    assert roots == scalar_scan_fixed_points(f)
    assert _all_floats(roots)

    corridor = certified_corridor(f, t)
    assert corridor == scalar_certified_corridor(f, t)
    assert corridor is None or _all_floats(corridor)

    u, v = a * (t - 2e-3), t + 2e-3 + b * (1.0 - t - 2e-3)
    report = verify_conditions(dist, t, u, v)
    with mock.patch.object(dynamics, "_sweep", scalar_sweep):
        assert report == verify_conditions(dist, t, u, v)
    assert _all_floats([report.c1, report.c2, report.c3, report.c4])
    assert _all_floats([fl.witness for fl in report.failures])


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
def test_square_is_python_float_power(xs):
    assert _square(np.array(xs)).tolist() == [x ** 2 for x in xs]


def test_square_is_python_float_power_where_multiplication_differs():
    x = np.random.default_rng(0).random(100_000)
    assert (x * x != [v ** 2 for v in x.tolist()]).any()
    assert _square(x).tolist() == [v ** 2 for v in x.tolist()]
