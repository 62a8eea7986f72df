"""Tree representation, evaluation, polynomials, enumeration."""
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amptree.errors import CapacityError, InputShapeError
from amptree.trees import (activation, achievable_by_degree,
                           achievable_witnesses, all_trees, and_, build_ak,
                           build_bk, complement_tree, enumerate_achievable,
                           eval_columns, eval_tree, fold, format_tree,
                           has_and_path, has_or_path, leaf, or_, parse_tree,
                           self_compose, substitute_leaves, tree_polynomial)
from amptree.trees import _mul, _or

from _oracles import brute_force_activation, memo_fold

X = leaf()
VALIANT = and_(or_(X, X), or_(X, X))


def trees_strategy(max_leaves=6):
    return st.recursive(
        st.just(X),
        lambda kids: st.builds(and_, kids, kids) | st.builds(or_, kids, kids),
        max_leaves=max_leaves)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_eval_conjunction_identity():
    assert eval_tree(and_(X, X), (1, 1)) == 1
    assert eval_tree(and_(X, X), (1, 0)) == 0


def test_eval_valiant_right_disjunct_zero():
    assert eval_tree(VALIANT, (1, 0, 0, 0)) == 0


def test_eval_or_forced_by_c():
    tree = or_(and_(X, X), X)
    assert eval_tree(tree, (0, 1, 1)) == 1


def test_eval_length_mismatch():
    with pytest.raises(InputShapeError):
        eval_tree(VALIANT, (1, 0, 1))


def test_eval_consumes_left_to_right():
    tree = and_(X, or_(X, X))
    # first bit feeds the bare leaf
    assert eval_tree(tree, (0, 1, 1)) == 0
    assert eval_tree(tree, (1, 1, 0)) == 1


SMALL_TREES = [t for n in range(1, 6) for t in all_trees(n)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=7, max_size=7),
                min_size=1, max_size=12))
def test_eval_columns_matches_eval_tree_row_by_row(block):
    # every tree with 1..5 leaves on the same leaf-major 7-row block (a
    # column per item): each reads its leading rows and leaves the rest
    # unused
    bits = np.array(block, dtype=np.uint8).T
    for tree in SMALL_TREES:
        got = eval_columns(tree, bits)
        want = [eval_tree(tree, col[:tree.leaf_count]) for col in bits.T]
        assert got.dtype == np.uint8
        assert got.tolist() == want


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

def test_leaf_polynomial():
    assert tree_polynomial(X).coeffs == (0, 1)


def test_valiant_polynomial():
    assert tree_polynomial(VALIANT).coeffs == (0, 0, 4, -4, 1)


def test_and_or_c_polynomial():
    assert tree_polynomial(or_(and_(X, X), X)).coeffs == (0, 1, 1, -1)


def test_polynomial_degree_equals_leaf_count():
    for tree in all_trees(5):
        assert tree_polynomial(tree).degree == 5


@settings(max_examples=60, deadline=None)
@given(trees_strategy(), st.floats(min_value=0.05, max_value=0.95))
def test_polynomial_matches_brute_force(tree, p):
    assert abs(tree_polynomial(tree)(p) - brute_force_activation(tree, p)) \
        <= 1e-12


@settings(max_examples=60, deadline=None)
@given(trees_strategy(), st.floats(min_value=0.0, max_value=1.0))
def test_activation_matches_polynomial(tree, p):
    assert abs(activation(tree, p) - tree_polynomial(tree)(p)) <= 1e-12


def test_all_small_trees_against_exhaustive_oracle():
    ps = [i / 10 for i in range(1, 10)]
    for n in range(1, 6):
        for tree in all_trees(n):
            poly = tree_polynomial(tree)
            for p in ps:
                assert abs(poly(p) - brute_force_activation(tree, p)) <= 1e-12


# ---------------------------------------------------------------------------
# Complement
# ---------------------------------------------------------------------------

def test_complement_leaf_and_gate():
    assert complement_tree(X) is X
    c = complement_tree(and_(X, X))
    assert c.op == "OR"


def test_complement_identity_on_enumerated_trees():
    ps = [i / 100 for i in range(1, 100)]
    for n in range(1, 6):
        for tree in all_trees(n):
            fa = tree_polynomial(tree)
            fb = tree_polynomial(complement_tree(tree))
            for p in ps:
                assert abs(fb(1.0 - p) - (1.0 - fa(p))) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(trees_strategy())
def test_complement_is_involution(tree):
    back = complement_tree(complement_tree(tree))
    assert format_tree(back) == format_tree(tree)


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def test_path_flags_basic():
    assert has_and_path(and_(X, X)) and not has_or_path(and_(X, X))
    assert not has_and_path(VALIANT) and not has_or_path(VALIANT)
    tree = or_(and_(X, X), X)
    assert has_or_path(tree) and not has_and_path(tree)


@settings(max_examples=50, deadline=None)
@given(trees_strategy())
def test_paths_swap_under_complement(tree):
    comp = complement_tree(tree)
    assert has_and_path(tree) == has_or_path(comp)
    assert has_or_path(tree) == has_and_path(comp)


# ---------------------------------------------------------------------------
# Enumeration (appendix table)
# ---------------------------------------------------------------------------

TABLE = {
    1: {(0, 1)},
    2: {(0, 0, 1), (0, 2, -1)},
    3: {(0, 0, 0, 1), (0, 1, 1, -1), (0, 0, 2, -1), (0, 3, -3, 1)},
    4: {(0, 0, 0, 0, 1), (0, 1, 0, 1, -1), (0, 0, 1, 1, -1),
        (0, 2, 0, -2, 1), (0, 0, 0, 2, -1), (0, 1, 2, -3, 1),
        (0, 0, 3, -3, 1), (0, 4, -6, 4, -1), (0, 0, 2, 0, -1),
        (0, 0, 4, -4, 1)},
    5: {(0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, -1), (0, 0, 1, 0, 1, -1),
        (0, 2, -1, 1, -2, 1), (0, 0, 0, 1, 1, -1), (0, 1, 1, 0, -2, 1),
        (0, 0, 2, 0, -2, 1), (0, 3, -2, -2, 3, -1), (0, 0, 0, 0, 2, -1),
        (0, 1, 0, 2, -3, 1), (0, 0, 1, 2, -3, 1), (0, 2, 1, -5, 4, -1),
        (0, 0, 0, 3, -3, 1), (0, 1, 3, -6, 4, -1), (0, 0, 4, -6, 4, -1),
        (0, 5, -10, 10, -5, 1), (0, 0, 0, 2, 0, -1), (0, 1, 2, -2, -1, 1),
        (0, 0, 0, 4, -4, 1), (0, 1, 4, -8, 5, -1), (0, 0, 1, 1, 0, -1),
        (0, 0, 3, -1, -2, 1), (0, 0, 2, 1, -3, 1), (0, 0, 6, -9, 5, -1)},
}


def test_enumeration_reproduces_table_rows():
    by_degree = achievable_by_degree(5)
    for d, rows in TABLE.items():
        assert {q.coeffs for q in by_degree[d]} == rows


def test_enumeration_counts():
    by_degree = achievable_by_degree(5)
    assert [len(by_degree[d]) for d in range(1, 6)] == [1, 2, 4, 10, 24]


def test_enumerate_achievable_is_union_up_to_degree():
    polys = enumerate_achievable(3)
    expected = TABLE[1] | TABLE[2] | TABLE[3]
    assert {q.coeffs for q in polys} == expected


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        enumerate_achievable(8)


def test_witnesses_realize_their_polynomials():
    for poly, tree in achievable_witnesses(5).items():
        assert tree_polynomial(tree) == poly


def test_achievability_conditions():
    for poly in enumerate_achievable(7):
        c = poly.coeffs
        d = poly.degree
        assert c[0] == 0
        assert c[d] in (-1, 1)
        assert sum(c) == 1
        assert all(abs(a) <= d ** l for l, a in enumerate(c))


def test_enumeration_closed_under_complement():
    # f in A  =>  1 - f(1-p) in A (the complement tree's polynomial)
    table = achievable_by_degree(5)
    for d, polys in table.items():
        coeffsets = {q.coeffs for q in polys}
        for q in polys:
            wit = achievable_witnesses(d)[q]
            comp = tree_polynomial(complement_tree(wit))
            assert comp.coeffs in coeffsets


# ---------------------------------------------------------------------------
# A_k / B_k
# ---------------------------------------------------------------------------

def expand_ak(k):
    # (1 - (1-p)^k)^2 via exact convolution
    acc = [Fraction(1)]
    for _ in range(k):
        nxt = [Fraction(0)] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i] += a
            nxt[i + 1] -= a
        acc = nxt
    inner = [-c for c in acc]
    inner[0] += 1
    out = [Fraction(0)] * (2 * k + 1)
    for i, a in enumerate(inner):
        for j, b in enumerate(inner):
            out[i + j] += a * b
    return tuple(int(c) for c in out)


def test_build_ak_polynomials():
    assert tree_polynomial(build_ak(2)).coeffs == (0, 0, 4, -4, 1)
    for k in (2, 3, 4, 5):
        assert tree_polynomial(build_ak(k)).coeffs == expand_ak(k)


def test_build_bk_polynomials():
    assert tree_polynomial(build_bk(2)).coeffs == (0, 0, 2, 0, -1)
    for k in (2, 3, 4, 6):
        expected = [0] * (2 * k + 1)
        expected[k] = 2
        expected[2 * k] = -1
        assert tree_polynomial(build_bk(k)).coeffs == tuple(expected)


def test_bk3_matches_brute_force():
    tree = build_bk(3)
    for p in (0.2, 0.5, 0.8):
        assert abs(tree_polynomial(tree)(p)
                   - brute_force_activation(tree, p)) <= 1e-12


def test_ak_bk_are_complements():
    for k in (2, 3, 5):
        assert tree_polynomial(complement_tree(build_ak(k))) == \
            tree_polynomial(build_bk(k))


# ---------------------------------------------------------------------------
# Composition / substitution
# ---------------------------------------------------------------------------

def test_self_compose_leaf_count_and_activation():
    t3 = self_compose(VALIANT, 3)
    assert t3.leaf_count == 4 ** 3
    f = tree_polynomial(VALIANT)
    x = 0.47
    for _ in range(3):
        x = f(x)
    assert abs(activation(t3, 0.47) - x) <= 1e-12


def test_substitute_leaves_composes_activations():
    inner = or_(X, X)
    outer = and_(X, X)
    combined = substitute_leaves(outer, inner)
    g = tree_polynomial(inner)
    f = tree_polynomial(outer)
    for p in (0.1, 0.6, 0.9):
        assert abs(activation(combined, p) - f(g(p))) <= 1e-12


def test_huge_composition_stays_cheap():
    t = self_compose(build_ak(2), 20)
    assert t.leaf_count == 4 ** 20
    assert 0.0 <= activation(t, 0.3) <= 1.0


# ---------------------------------------------------------------------------
# Fold: the stored gate order against the memo-dict oracle
# ---------------------------------------------------------------------------

#: Ways to make a node from two earlier ones of a pool, so nodes share.
BUILDERS = {
    "and": and_,
    "or": or_,
    "substitute": substitute_leaves,
    "compose2": lambda a, b: self_compose(a, 2),
    "compose3": lambda a, b: self_compose(a, 3),
    "complement": lambda a, b: complement_tree(a),
}


@st.composite
def shared_dags(draw):
    """The last node of a pool grown from the leaf by random builders."""
    pool = [X]
    steps = draw(st.lists(st.tuples(st.sampled_from(sorted(BUILDERS)),
                                    st.integers(0, 10 ** 6),
                                    st.integers(0, 10 ** 6)),
                          min_size=1, max_size=12))
    for name, i, j in steps:
        pool.append(BUILDERS[name](pool[i % len(pool)], pool[j % len(pool)]))
    return pool[-1]


def _deep_comb(depth: int):
    """A comb of ``depth`` gates, alternating AND and OR down one side."""
    tree = X
    for i in range(depth):
        tree = (and_ if i % 3 else or_)(tree, X if i % 2 else VALIANT)
    return tree


def _oracle_activation(tree, p):
    return memo_fold(tree, p, lambda a, b: a * b, lambda a, b: a + b - a * b)


def _oracle_path(tree, op):
    either, never = (lambda a, b: a or b), (lambda a, b: False)
    return memo_fold(tree, True, either if op == "AND" else never,
                     either if op == "OR" else never)


def _assert_fold_matches_oracle(tree, ps):
    grid = np.asarray(ps)
    assert [activation(tree, p) for p in ps] == [
        _oracle_activation(tree, p) for p in ps]
    assert activation(tree, grid).tolist() == _oracle_activation(
        tree, grid).tolist()
    assert has_and_path(tree) == _oracle_path(tree, "AND")
    assert has_or_path(tree) == _oracle_path(tree, "OR")
    comp = complement_tree(tree)
    oracle_comp = memo_fold(tree, X, or_, and_)
    assert [activation(comp, p) for p in ps] == [
        _oracle_activation(oracle_comp, p) for p in ps]
    if tree.leaf_count <= 256:
        assert tree_polynomial(tree).coeffs == memo_fold(
            tree, (0, 1), _mul, _or)
        assert format_tree(comp) == format_tree(oracle_comp)
        assert format_tree(substitute_leaves(tree, VALIANT)) == format_tree(
            memo_fold(tree, VALIANT, and_, or_))


@settings(max_examples=80, deadline=None)
@given(tree=shared_dags(),
       ps=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_fold_matches_the_memo_dict_oracle(tree, ps):
    _assert_fold_matches_oracle(tree, ps)


def test_fold_matches_the_oracle_past_the_recursion_limit():
    tree = _deep_comb(sys.getrecursionlimit() + 500)
    deep = substitute_leaves(tree, VALIANT)
    for t in (tree, deep, self_compose(deep, 2)):
        _assert_fold_matches_oracle(t, [0.0, 0.3, 0.5, 0.71, 1.0])


@settings(max_examples=40, deadline=None)
@given(tree=shared_dags())
def test_fold_combines_each_distinct_gate_once(tree):
    def combines(run):
        ands, ors = [], []
        run(tree, 0, lambda a, b: ands.append(a) or 0,
            lambda a, b: ors.append(a) or 0)
        return len(ands), len(ors)

    want = combines(memo_fold)
    assert combines(fold) == want
    assert combines(fold) == want       # walks the order the first stored


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_sexpr_format():
    assert format_tree(VALIANT) == "(AND (OR x x) (OR x x))"
    assert format_tree(X) == "x"


@settings(max_examples=80, deadline=None)
@given(trees_strategy())
def test_sexpr_roundtrip(tree):
    text = format_tree(tree)
    assert format_tree(parse_tree(text)) == text


def test_parse_rejects_garbage():
    for bad in ["", "(AND x)", "(NOT x x)", "(AND x x) x", "(AND x x"]:
        with pytest.raises(InputShapeError):
            parse_tree(bad)


@pytest.mark.parametrize("text, message", [
    ("", "unexpected end of tree expression"),
    ("(", "unexpected end of tree expression"),
    ("(AND x", "unexpected end of tree expression"),
    ("(AND x)", "unexpected token ')'"),
    ("y", "unexpected token 'y'"),
    ("(NOT x x)", "unknown operator 'NOT'"),
    ("(AND x x x)", "expected ')'"),
    ("(AND x x) x", "trailing tokens after tree expression"),
    ("(AND " * 5000 + "x", "unexpected end of tree expression"),
], ids=["empty", "open", "one operand", "early close", "bad token",
        "bad operator", "three operands", "trailing", "5,000 open"])
def test_parse_names_what_is_wrong(text, message):
    with pytest.raises(InputShapeError, match=re.escape(message)):
        parse_tree(text)


def test_parse_has_no_depth_limit():
    tree = X
    for i in range(5000):
        tree = and_(tree, X) if i % 2 else or_(X, tree)
    text = format_tree(tree)
    assert text.count("(") == 5000
    assert format_tree(parse_tree(text)) == text


def test_int_polynomial_json_shape():
    import json
    poly = tree_polynomial(VALIANT)
    assert json.loads(json.dumps(list(poly.coeffs))) == [0, 0, 4, -4, 1]
