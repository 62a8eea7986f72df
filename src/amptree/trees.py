"""AND/OR trees over anonymous input slots.

A tree is a rooted structure whose internal nodes are binary AND/OR gates
and whose leaves are anonymous input positions, consumed left-to-right when
the tree is evaluated on a bit vector.  Wider gates (k-ary ANDs/ORs) are
represented as balanced cascades of binary gates; the activation polynomial
depends only on the Boolean function computed, so this choice is canonical.

Nodes are immutable and may share substructure: a "tree" here is the
unfolding of a DAG.  ``leaf_count`` counts leaves with multiplicity, so a
composed tree can report an astronomically large semantic size while only
a handful of distinct nodes exist in memory.
"""
from __future__ import annotations

import operator
from functools import lru_cache
from typing import Callable, Sequence

from .errors import CapacityError, InputShapeError, check_int
from .polyalg import Polynomial, _mul

LEAF = "LEAF"
AND = "AND"
OR = "OR"

#: Enumeration beyond this degree is exponential and unsupported.
ENUMERATION_CAP = 7

#: tree_polynomial refuses trees larger than this; use activation() instead.
POLYNOMIAL_LEAF_CAP = 4096

#: Serialization refuses trees whose text form would be enormous.
SEXPR_LEAF_CAP = 100_000

#: activation compiles gate orders up to this length into one function;
#: longer ones are walked by fold.  Compiling costs 6.5-15 us per gate and
#: saves 0.04-0.09 us per gate per call (Python 3.11 on a 2-core Xeon), so
#: an order repays its compile after 80-330 calls whatever its length, and
#: an order walked only a few times loses its whole compile: quad_k near 0
#: or 1 walks each of its 2,000-20,001-gate orders three times, and
#: compiling them made quad_k(t) plus its scan 7-28% slower.  The cap
#: bounds that loss at 3-8 ms per order; its price is that a long order
#: walked hundreds of times keeps fold's speed (soft_threshold(300)'s
#: profile, 806 walks of 599 gates, ran 13% faster with it compiled).
_WALK_GATES = 512

#: Nodes are written through this once-bound setter, which their own
#: __setattr__ refuses; building a node writes six slots.
_set = object.__setattr__


class AndOrTree:
    """A node of an AND/OR tree.  Treat instances as immutable."""

    __slots__ = ("op", "left", "right", "leaf_count", "_gates", "_walk")

    def __init__(self, op: str, left: "AndOrTree | None" = None,
                 right: "AndOrTree | None" = None):
        if op == LEAF:
            if left is not None or right is not None:
                raise InputShapeError("a leaf has no children")
            count = 1
        elif op in (AND, OR):
            if left is None or right is None:
                raise InputShapeError("gates take exactly two children")
            count = left.leaf_count + right.leaf_count
        else:
            raise InputShapeError(f"unknown node kind {op!r}")
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "leaf_count", count)
        _set(self, "_gates", None)
        _set(self, "_walk", None)

    def __setattr__(self, name, value):
        raise AttributeError("AndOrTree is immutable")

    def __repr__(self):
        if self.leaf_count <= 16:
            return f"AndOrTree({format_tree(self)!r})"
        return f"AndOrTree(<{self.op} on {self.leaf_count} leaves>)"


_THE_LEAF = AndOrTree(LEAF)


def leaf() -> AndOrTree:
    """The (shared) leaf node."""
    return _THE_LEAF


def and_(left: AndOrTree, right: AndOrTree) -> AndOrTree:
    return AndOrTree(AND, left, right)


def or_(left: AndOrTree, right: AndOrTree) -> AndOrTree:
    return AndOrTree(OR, left, right)


def and_chain(k: int) -> AndOrTree:
    """Balanced binary cascade computing the AND of ``k`` inputs."""
    return _chain(AND, check_int("gate width k", k, 1, error=InputShapeError))


def or_chain(k: int) -> AndOrTree:
    """Balanced binary cascade computing the OR of ``k`` inputs."""
    return _chain(OR, check_int("gate width k", k, 1, error=InputShapeError))


def _chain(op: str, k: int) -> AndOrTree:
    """The cascade of a checked width k >= 1."""
    if k == 1:
        return _THE_LEAF
    half = k // 2
    return AndOrTree(op, _chain(op, half), _chain(op, k - half))


def build_ak(k: int) -> AndOrTree:
    """The 2k-leaf tree computing (x1 v ... v xk) ^ (x{k+1} v ... v x{2k}).

    Its activation polynomial is (1 - (1-p)^k)^2.
    """
    return and_(or_chain(k), or_chain(k))


def build_bk(k: int) -> AndOrTree:
    """The 2k-leaf tree computing (x1 ^ ... ^ xk) v (x{k+1} ^ ... ^ x{2k}).

    Its activation polynomial is 2 p^k - p^{2k}.
    """
    return or_(and_chain(k), and_chain(k))


def fold(tree: AndOrTree, leaf_value, and_fn: Callable, or_fn: Callable):
    """Bottom-up reduction over the *distinct* nodes of a (possibly shared) tree.

    Walks the tree's stored gate order (:func:`_gate_order`): slot 0 holds
    ``leaf_value`` and the i-th gate's result goes to slot i, so each
    distinct gate is combined once, which makes this O(#distinct gates)
    even when the unfolded tree is enormous, and no depth reaches the
    recursion limit.  No folded value is stored; :func:`activation`
    stores a compiled form of this walk instead.
    """
    order = tree._gates
    if order is None:
        order = _gate_order(tree)
    vals = [leaf_value]
    append = vals.append
    for is_and, left, right in order:
        append(and_fn(vals[left], vals[right]) if is_and
               else or_fn(vals[left], vals[right]))
    return vals[-1]


def _gate_order(tree: AndOrTree) -> tuple[tuple[bool, int, int], ...]:
    """Store and return the distinct gates of ``tree`` bottom-up.

    Each gate is (is AND, left slot, right slot); every leaf has slot 0 and
    the i-th gate listed has slot i, so the root is the last.  The order is
    a property of the immutable node, like its leaf count, and holds no
    value folded over it.
    """
    slot: dict[AndOrTree, int] = {}
    gates: list[tuple[bool, int, int]] = []
    stack = [tree]
    while stack:
        node = stack[-1]
        if node in slot:
            stack.pop()
        elif node.op == LEAF:
            slot[node] = 0
            stack.pop()
        else:
            pending = [c for c in (node.left, node.right) if c not in slot]
            if pending:
                stack.extend(pending)
                continue
            gates.append((node.op == AND, slot[node.left], slot[node.right]))
            slot[node] = len(gates)
            stack.pop()
    order = tuple(gates)
    _set(tree, "_gates", order)
    return order


def eval_tree(tree: AndOrTree, assignment: Sequence[int]) -> int:
    """Evaluate the Boolean function of ``tree`` on a bit vector.

    Leaves consume assignment bits in left-to-right order.
    """
    if len(assignment) != tree.leaf_count:
        raise InputShapeError(
            f"assignment has {len(assignment)} bits, tree has "
            f"{tree.leaf_count} leaves")
    return eval_columns(tree, [1 if b else 0 for b in assignment])


def eval_columns(tree: AndOrTree, leaves):
    """Vector form of :func:`eval_tree` on the columns of a 0/1 array.

    The gate recursion with leaf i valued ``leaves[i]``, left to right:
    entry j is ``eval_tree(tree, leaves[:tree.leaf_count, j])``, and rows
    past the leaf count are unused.
    """
    pos = 0
    vals: list = []
    stack: list[tuple[AndOrTree, bool]] = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if node.op == LEAF:
            vals.append(leaves[pos])
            pos += 1
        elif expanded:
            right = vals.pop()
            left = vals.pop()
            vals.append(left & right if node.op == AND else left | right)
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
    return vals[0]


def activation(tree: AndOrTree, p: float) -> float:
    """Probability the tree outputs 1 on i.i.d. Bernoulli(p) leaves.

    Evaluated pointwise by the gate recursion (AND: g*h, OR: g+h-g*h);
    numerically stable for composed trees whose dense coefficient form
    would be unusable.  The first call stores on the node one function
    compiled from its gate order (:func:`_compiled_walk`), which applies
    the float operations :func:`fold` would, in the same order, so the
    result is fold's bit for bit; orders longer than ``_WALK_GATES`` are
    walked by :func:`fold` itself, and the slot then holds False.
    """
    walk = tree._walk
    if walk is None:
        order = tree._gates
        if order is None:
            order = _gate_order(tree)
        walk = _compiled_walk(order) if len(order) <= _WALK_GATES else False
        _set(tree, "_walk", walk)
    if walk is False:
        return fold(tree, p, operator.mul, lambda a, b: a + b - a * b)
    return walk(p)


@lru_cache(maxsize=256)
def _compiled_walk(order: tuple[tuple[bool, int, int], ...]) -> Callable:
    """One straight-line function of the leaf value for a gate order.

    Gate i becomes ``v{i} = v{l} * v{r}`` (AND) or
    ``v{i} = v{l} + v{r} - v{l} * v{r}`` (OR), and the function returns the
    last slot, so it is fold's walk with the lanes inlined.  The source
    holds only slot numbers; trees of one shape share the cached function.
    """
    lines = ["def walk(v0):"]
    for i, (is_and, left, right) in enumerate(order, 1):
        lines.append(f" v{i} = v{left} * v{right}" if is_and else
                     f" v{i} = v{left} + v{right} - v{left} * v{right}")
    lines.append(f" return v{len(order)}")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["walk"]


def complement_tree(tree: AndOrTree) -> AndOrTree:
    """Swap the gate at every node; leaf structure is unchanged."""
    return fold(tree, _THE_LEAF, or_, and_)


def has_and_path(tree: AndOrTree) -> bool:
    """True iff some root-to-leaf path passes through only AND gates."""
    return _has_path(tree, AND)


def has_or_path(tree: AndOrTree) -> bool:
    """True iff some root-to-leaf path passes through only OR gates."""
    return _has_path(tree, OR)


def _has_path(tree: AndOrTree, op: str) -> bool:
    if tree.op == LEAF:
        return True
    return fold(tree, True,
                (lambda a, b: a or b) if op == AND else (lambda a, b: False),
                (lambda a, b: a or b) if op == OR else (lambda a, b: False))


def substitute_leaves(tree: AndOrTree, replacement: AndOrTree) -> AndOrTree:
    """Replace every leaf of ``tree`` with ``replacement`` (shared)."""
    return fold(tree, replacement, and_, or_)


def self_compose(tree: AndOrTree, k: int) -> AndOrTree:
    """T^k: substitute the tree into its own leaves k-1 times.

    The activation of T^k is the k-fold iterate of the activation of T.
    """
    k = check_int("composition depth k", k, 1, error=InputShapeError)
    out = tree
    for _ in range(k - 1):
        out = substitute_leaves(out, tree)
    return out


# ---------------------------------------------------------------------------
# Exact activation polynomials
# ---------------------------------------------------------------------------

def _add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, bi in enumerate(b):
        out[i] += bi
    return tuple(out)


def _sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return _add(a, tuple(-x for x in b))


def _or(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return _sub(_add(a, b), _mul(a, b))


def tree_polynomial(tree: AndOrTree) -> Polynomial:
    """Exact activation polynomial of a tree; degree equals its leaf count.

    Its coefficients are ints with a_0 = 0, leading coefficient +-1, sum 1,
    and |a_l| <= d^l.  Dense coefficients are only meaningful for moderate
    trees; for composed giants use :func:`activation` pointwise.
    """
    if tree.leaf_count > POLYNOMIAL_LEAF_CAP:
        raise CapacityError(
            f"tree has {tree.leaf_count} leaves; dense coefficients are "
            f"capped at degree {POLYNOMIAL_LEAF_CAP} - evaluate with "
            f"activation() instead")
    return Polynomial(fold(tree, (0, 1), _mul, _or))


# ---------------------------------------------------------------------------
# Enumeration of achievable polynomials
# ---------------------------------------------------------------------------

# degree -> {coeff tuple -> witness tree}; grown on demand, never shrunk.
_ACHIEVABLE: list[dict[tuple[int, ...], AndOrTree]] = [
    {},                 # degree 0: unused
    {(0, 1): _THE_LEAF}
]


def _achievable_table(max_degree: int) -> list[dict[tuple[int, ...], AndOrTree]]:
    max_degree = check_int("max_degree (enumeration is exponential)",
                           max_degree, 1, ENUMERATION_CAP, CapacityError)
    for d in range(len(_ACHIEVABLE), max_degree + 1):
        bucket: dict[tuple[int, ...], AndOrTree] = {}
        for k in range(1, d // 2 + 1):
            for pa, ta in _ACHIEVABLE[k].items():
                for pb, tb in _ACHIEVABLE[d - k].items():
                    prod = _mul(pa, pb)
                    if prod not in bucket:
                        bucket[prod] = and_(ta, tb)
                    disj = _sub(_add(pa, pb), prod)
                    if disj not in bucket:
                        bucket[disj] = or_(ta, tb)
        _ACHIEVABLE.append(bucket)
    return _ACHIEVABLE


def enumerate_achievable(max_degree: int) -> set[Polynomial]:
    """All distinct activation polynomials of trees with <= max_degree leaves.

    Built bottom-up: the achievable sets of every smaller degree are
    combined pairwise under the AND (product) and OR (inclusion-exclusion)
    rules, deduplicating by polynomial.  Many trees share one polynomial;
    the polynomial set is what is enumerated.
    """
    return set().union(*achievable_by_degree(max_degree).values())


def achievable_by_degree(max_degree: int) -> dict[int, set[Polynomial]]:
    """Achievable polynomials grouped by exact degree."""
    table = _achievable_table(max_degree)
    return {d: {Polynomial(c) for c in table[d]}
            for d in range(1, max_degree + 1)}


def achievable_witnesses(max_degree: int) -> dict[Polynomial, AndOrTree]:
    """One witness tree per achievable polynomial.

    The witness is an arbitrary representative (first found in the
    bottom-up combination order); no canonical tree per polynomial exists.
    A polynomial's degree is its tree's leaf count, so no two degrees share
    one.
    """
    table = _achievable_table(max_degree)
    return {Polynomial(coeffs): tree for d in range(1, max_degree + 1)
            for coeffs, tree in table[d].items()}


def all_trees(leaves: int) -> list[AndOrTree]:
    """Every AND/OR tree with exactly ``leaves`` leaves (all shapes, both gates).

    Counts grow as Catalan(n-1) * 2^(n-1); keep ``leaves`` small.
    """
    leaves = check_int("leaves", leaves, 1, error=InputShapeError)
    if leaves > 8:
        raise CapacityError("all_trees is exponential; capped at 8 leaves")
    memo: dict[int, list[AndOrTree]] = {1: [_THE_LEAF]}

    def build(n: int) -> list[AndOrTree]:
        if n in memo:
            return memo[n]
        out: list[AndOrTree] = []
        for k in range(1, n):
            for lt in build(k):
                for rt in build(n - k):
                    out.append(and_(lt, rt))
                    out.append(or_(lt, rt))
        memo[n] = out
        return out

    return build(leaves)


# ---------------------------------------------------------------------------
# Serialization: prefix s-expressions, leaves as `x`
# ---------------------------------------------------------------------------

def format_tree(tree: AndOrTree) -> str:
    """Render as e.g. ``(AND (OR x x) (OR x x))``."""
    if tree.leaf_count > SEXPR_LEAF_CAP:
        raise CapacityError(
            f"refusing to serialize a {tree.leaf_count}-leaf tree")
    parts: list[str] = []
    stack: list[AndOrTree | str] = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item.op == LEAF:
            parts.append("x")
        else:
            parts.append(f"({item.op}")
            stack.append(")")
            stack.append(item.right)
            stack.append(item.left)
    return " ".join(parts).replace(" )", ")")


def parse_tree(text: str) -> AndOrTree:
    """Inverse of :func:`format_tree`.  Open gates wait on an explicit
    stack, so no depth is too deep to parse."""
    tokens = iter(text.replace("(", " ( ").replace(")", " ) ").split())

    def take() -> str:
        tok = next(tokens, None)
        if tok is None:
            raise InputShapeError("unexpected end of tree expression")
        return tok

    stack: list[tuple[str, list]] = []      # open gates: operator, operands
    while True:
        tok = take()
        if tok == "(":
            op = take()
            if op not in (AND, OR):
                raise InputShapeError(f"unknown operator {op!r}")
            stack.append((op, []))
            continue
        if tok != "x":
            raise InputShapeError(f"unexpected token {tok!r}")
        node = _THE_LEAF
        while stack:        # close each gate that this operand completes
            op, operands = stack[-1]
            operands.append(node)
            if len(operands) < 2:
                break
            if next(tokens, None) != ")":
                raise InputShapeError("expected ')'")
            stack.pop()
            node = AndOrTree(op, *operands)
        else:
            if next(tokens, None) is not None:
                raise InputShapeError("trailing tokens after tree expression")
            return node
