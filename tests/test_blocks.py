"""The item step shared by the simulators: entry table, block evaluation,
input checks and draws."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from amptree.blocks import (SIM_LEAF_CAP, check_bits, entry_table,
                            eval_blocks, index, input_draw, pick)
from amptree.catalog import TreeDistribution, dense_fixed_point, valiant
from amptree.errors import CapacityError, InputShapeError, RangeError
from amptree.learning import evaluate_learned, learn_threshold
from amptree.leveled import LevelConfig, simulate_leveled
from amptree.rng import generator
from amptree.stream import StreamConfig, simulate_stream
from amptree.trees import and_, build_ak, eval_tree, leaf, or_

X = leaf()
THREE = (and_(or_(X, X), X), or_(X, X), build_ak(2))


def test_eval_blocks_three_entry_mixture_row_by_row():
    # no catalog construction has three entries; this one makes the
    # second and third np.where steps select rows
    rng = generator(3, 1)
    rows = 200
    leafbits = (rng.random((rows, 4)) < 0.5).astype(np.uint8)
    which = rng.integers(0, 3, size=rows)
    got = eval_blocks(THREE, which, leafbits)
    want = [eval_tree(THREE[e], leafbits[i, :THREE[e].leaf_count])
            for i, e in enumerate(which)]
    assert set(which.tolist()) == {0, 1, 2}
    assert got.dtype == np.uint8
    assert got.tolist() == want


def test_entry_table_picks_entries_by_cumulative_weight():
    dist = TreeDistribution("three", tuple(zip(THREE, (0.2, 0.5, 0.3))))
    trees, cumw, max_leaves = entry_table(dist)
    assert trees == THREE and max_leaves == 4
    u = np.array([0.0, 0.19, 0.2, 0.69, 0.71, 1.0 - 2.0 ** -53])
    assert np.searchsorted(cumw, u, side="right").tolist() == [0, 0, 1, 1,
                                                               2, 2]
    assert pick(cumw, u).tolist() == [0, 0, 1, 1, 2, 2]


def test_entry_table_past_the_total_gives_last_positive_entry():
    # weights whose float sum lands below 1, then a zero-weight entry
    weights = (0.1, 0.7, 0.2 - 1e-13, 0.0)
    trees = THREE + (X,)
    dist = TreeDistribution("short", tuple(zip(trees, weights)))
    _, cumw, _ = entry_table(dist)
    u = np.array([1.0 - 1e-14, 1.0 - 2.0 ** -53])
    assert np.searchsorted(cumw, u, side="right").tolist() == [2, 2]
    assert pick(cumw, u).tolist() == [2, 2]


@st.composite
def tables_and_draws(draw):
    """An entry table's cumulative weights and draws that include each
    finite cumulative weight exactly, the float just below it, 0 and the
    largest float below 1."""
    raw = draw(st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=1,
                        max_size=6).filter(any))
    weights = [w / sum(raw) for w in raw]
    top = weights.index(max(weights))
    weights[top] -= draw(st.sampled_from([0.0, 1e-13]))   # sum below 1
    trees = THREE + (X,)
    dist = TreeDistribution("mix", tuple(
        (trees[i % len(trees)], w) for i, w in enumerate(weights)))
    cumw = entry_table(dist)[1]
    finite = cumw[np.isfinite(cumw)].tolist()
    edges = finite + [np.nextafter(c, 0.0) for c in finite]
    u = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True)
                      | st.sampled_from(edges + [0.0, 1.0 - 2.0 ** -53]),
                      min_size=1, max_size=40))
    return cumw, np.array(u)


@given(tables_and_draws())
def test_pick_is_searchsorted_right(table):
    cumw, u = table
    want = np.searchsorted(cumw, u, side="right")
    assert pick(cumw, u).tolist() == want.tolist()
    strided = np.repeat(u, 2)[::2].reshape(1, -1)     # as the engines call it
    assert pick(cumw, strided).tolist() == [want.tolist()]


def test_pick_on_a_one_entry_table():
    _, cumw, _ = entry_table(valiant())
    u = np.array([0.0, 0.5, 1.0 - 2.0 ** -53])
    assert pick(cumw, u).tolist() == [0, 0, 0]
    assert np.searchsorted(cumw, u, side="right").tolist() == [0, 0, 0]


def test_index_is_the_inline_rule_it_replaced():
    u = np.concatenate(([0.0, 1.0 - 2.0 ** -53],
                        generator(4, 2).random(1000)))
    for size in (1, 2, 3, 1000, 2 ** 31 + 11, 2 ** 53):
        leveled = np.minimum((u * size).astype(np.int64), size - 1)
        got = index(u, size)
        assert got.dtype == np.int64 and np.array_equal(got, leveled)
        assert got[0] == 0 and got[1] == size - 1 and got.max() < size
    # The stream form: leaf-major uniforms, a pool size per step, written
    # into a buffer of int64.
    lv = u[2:].reshape(5, 2, 100)
    sizes = 64 + np.arange(100)
    stream = np.empty(lv.shape, np.int64)
    np.multiply(lv, sizes, out=stream, casting="unsafe")
    np.minimum(stream, sizes - 1, out=stream)
    buffer = np.full(lv.size + 7, -1, np.int64)
    out = buffer[:lv.size].reshape(lv.shape)
    assert index(lv, sizes, out=out) is out
    assert np.array_equal(out, stream) and (buffer[lv.size:] == -1).all()
    assert np.array_equal(index(lv, sizes), stream)
    assert index(np.array([0.0, 1.0 - 2.0 ** -53]), np.array([1, 7])
                 ).tolist() == [0, 6]


def test_one_leaf_cap_for_both_simulators():
    big = dense_fixed_point(0.55, 0.02)
    assert big.leaf_count > SIM_LEAF_CAP
    dist = TreeDistribution("big", ((big, 1.0),))
    for run in (lambda: simulate_leveled(dist, LevelConfig(
                    widths=(5,), n=4, seed=1, input_p=0.5)),
                lambda: simulate_stream(dist, StreamConfig(
                    n=4, k=5, alpha=0.0, seed=1, input_p=0.5))):
        with pytest.raises(CapacityError, match="capped at 64 leaves"):
            run()


@pytest.mark.parametrize("make", [
    lambda **kw: LevelConfig(widths=(4,), seed=1, **kw),
    lambda **kw: StreamConfig(k=4, alpha=0.0, seed=1, **kw),
])
def test_both_configs_share_the_input_check(make):
    with pytest.raises(InputShapeError, match="input count"):
        make(n=0, input_p=0.5)
    with pytest.raises(InputShapeError, match="trials"):
        make(n=3, trials=0, input_p=0.5)
    with pytest.raises(InputShapeError, match="exactly one"):
        make(n=3)
    with pytest.raises(InputShapeError, match="exactly one"):
        make(n=3, input_p=0.5, input_bits=(1, 0, 1))
    with pytest.raises(InputShapeError, match="2 input bits for n=3"):
        make(n=3, input_bits=(1, 0))
    with pytest.raises(RangeError, match="input_p"):
        make(n=3, input_p=1.5)
    with pytest.raises(RangeError, match="0 or 1"):
        make(n=3, input_bits=(1, 2, 3))
    with pytest.raises(RangeError, match="integers 0 or 1"):
        make(n=3, input_bits=[True, 0, 1])
    with pytest.raises(RangeError, match="integers 0 or 1, got 5"):
        make(n=3, input_bits=5)
    cfg = make(n=3, input_bits=[np.uint8(1), 0, np.int64(1)])
    # Stored as bytes: a frozen dataclass compares and hashes its fields,
    # and an array's == is elementwise, not a bool.
    assert type(cfg.input_bits) is bytes and cfg.input_bits == bytes((1, 0, 1))
    for same in ((1, 0, 1), np.array([1, 0, 1]), b"\x01\x00\x01"):
        twin = make(n=3, input_bits=same)
        assert twin == cfg and hash(twin) == hash(cfg)
    assert make(n=3, input_bits=(1, 1, 0)) != cfg


@pytest.mark.parametrize("bits", [
    (True, 1.0), (True, 0), (1.0, 0), (np.True_, 0), (0.5, 1), ([0], 1),
    ("1", 0), 5, np.array([True, False]), np.array([0., 1.]),
    np.array([[1, 0]]), np.array([2, 0]), np.array([-1, 0], np.int8),
    {1, 0}, frozenset({0}), {1: "x", 0: "y"}])
def test_a_bit_is_the_integer_0_or_1_everywhere(bits):
    tree = learn_threshold(2, 3, [1, 0], 0)
    for use in (check_bits, lambda b: learn_threshold(2, 3, b, 0),
                lambda b: evaluate_learned(tree, b),
                lambda b: LevelConfig(widths=(4,), n=2, seed=1,
                                      input_bits=b)):
        with pytest.raises(RangeError, match="integers 0 or 1"):
            use(bits)


def test_none_is_not_a_bit_string():
    # (to a config, None is "no explicit bits": see the shared input check)
    tree = learn_threshold(2, 3, [1, 0], 0)
    for use in (check_bits, lambda b: learn_threshold(2, 3, b, 0),
                lambda b: evaluate_learned(tree, b)):
        with pytest.raises(RangeError, match="integers 0 or 1, got None"):
            use(None)


@pytest.mark.parametrize("bits", [
    [1, 0, 1], (np.int64(1), 0, np.uint64(1)), np.array([1, 0, 1]),
    np.array([1, 0, 1], np.uint64), np.array([1, 0, 1], object),
    b"\x01\x00\x01", iter([1, 0, 1])])
def test_check_bits_returns_a_read_only_uint8_array(bits):
    got = check_bits(bits)
    assert got.dtype == np.uint8 and got.shape == (3,)
    assert got.tolist() == [1, 0, 1] and not got.flags.writeable
    if isinstance(bits, np.ndarray):        # a copy: the caller's stays
        assert bits.flags.writeable and got.base is not bits


def test_check_bits_of_no_bits_is_an_empty_uint8_array():
    for bits in ([], (), np.array([], np.int64)):
        got = check_bits(bits)
        assert got.dtype == np.uint8 and got.shape == (0,)


def test_input_draw():
    explicit = LevelConfig(widths=(4,), n=3, seed=1, input_bits=(1, 0, 1))
    draw = input_draw(explicit)
    first = draw(lambda size: pytest.fail("explicit inputs draw nothing"))
    assert first.dtype == np.uint8 and first.tolist() == [1, 0, 1]
    assert not first.flags.writeable
    assert draw(None) is first
    bernoulli = LevelConfig(widths=(4,), n=50, seed=1, input_p=0.3)
    bits = input_draw(bernoulli)(generator(9).random)
    want = (generator(9).random(50) < 0.3).astype(np.uint8)
    assert bits.dtype == np.uint8 and np.array_equal(bits, want)

