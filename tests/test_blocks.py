"""The item step shared by the simulators: entry table, block evaluation,
input checks and draws."""
import numpy as np
import pytest

from amptree.blocks import SIM_LEAF_CAP, entry_table, eval_blocks, input_draw
from amptree.catalog import TreeDistribution, dense_fixed_point
from amptree.errors import CapacityError, InputShapeError, RangeError
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


def test_entry_table_past_the_total_gives_last_positive_entry():
    # weights whose float sum lands below 1, then a zero-weight entry
    weights = (0.1, 0.7, 0.2 - 1e-13, 0.0)
    trees = THREE + (X,)
    dist = TreeDistribution("short", tuple(zip(trees, weights)))
    _, cumw, _ = entry_table(dist)
    u = np.array([1.0 - 1e-14, 1.0 - 2.0 ** -53])
    assert np.searchsorted(cumw, u, side="right").tolist() == [2, 2]


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
    cfg = make(n=3, input_bits=[True, 0, 1])
    assert cfg.input_bits == (1, 0, 1)


def test_input_draw():
    explicit = LevelConfig(widths=(4,), n=3, seed=1, input_bits=(1, 0, 1))
    draw = input_draw(explicit)
    first = draw(lambda size: pytest.fail("explicit inputs draw nothing"))
    assert first.dtype == np.uint8 and first.tolist() == [1, 0, 1]
    assert draw(None) is first
    bernoulli = LevelConfig(widths=(4,), n=50, seed=1, input_p=0.3)
    bits = input_draw(bernoulli)(generator(9).random)
    want = (generator(9).random(50) < 0.3).astype(np.uint8)
    assert bits.dtype == np.uint8 and np.array_equal(bits, want)

