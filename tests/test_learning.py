"""One-shot threshold learning."""
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import learned_json, learned_reference
from amptree import learning
from amptree.blocks import index
from amptree.catalog import linear_threshold
from amptree.errors import InputShapeError, RangeError
from amptree.learning import LearnedTree, evaluate_learned, learn_threshold
from amptree.leveled import LevelConfig, simulate_leveled
from amptree.rng import generator


def make_example(n, ones, seed=0):
    x = np.zeros(n, dtype=np.uint8)
    x[:ones] = 1
    generator(seed).shuffle(x)
    return x


def test_rejects_empty_example():
    with pytest.raises(InputShapeError):
        learn_threshold(3, 10, [], seed=1)


def test_learned_shape_and_wiring_ranges():
    x = make_example(30, 12)
    tree = learn_threshold(4, 25, x, seed=2)
    assert tree.levels == 4 and tree.width == 25 and tree.n == 30
    assert tree.wiring[0].max() < 30          # level 1 wires into inputs
    for w in tree.wiring[1:]:
        assert w.max() < 25
    assert tree.example_ones == 12


def test_determinism():
    x = make_example(40, 20)
    a = learn_threshold(5, 30, x, seed=9)
    b = learn_threshold(5, 30, x, seed=9)
    for la, lb in zip(a.blocks, b.blocks):
        assert np.array_equal(la, lb)
    for wa, wb in zip(a.wiring, b.wiring):
        assert np.array_equal(wa, wb)


def test_block_mix_tracks_example_fraction():
    # T1 count over all m*L items is Binomial(mL, t)
    n, ones, m, levels = 200, 80, 400, 10
    x = make_example(n, ones)
    tree = learn_threshold(levels, m, x, seed=5)
    t = ones / n
    count = sum(int(b.sum()) for b in tree.blocks)
    total = m * levels
    sigma = math.sqrt(total * t * (1 - t))
    assert abs(count - total * t) <= 3 * sigma


def test_degenerate_all_ones_is_and_amplification():
    x = np.ones(12, dtype=np.uint8)
    tree = learn_threshold(4, 40, x, seed=3)
    assert all(b.all() for b in tree.blocks)
    sparse = np.zeros(12, dtype=np.uint8)
    sparse[0] = 1
    assert evaluate_learned(tree, sparse) == 0.0
    assert evaluate_learned(tree, np.ones(12, dtype=np.uint8)) == 1.0


def test_eval_trivial_inputs():
    x = make_example(20, 10)
    tree = learn_threshold(4, 50, x, seed=4)
    assert evaluate_learned(tree, np.zeros(20, dtype=np.uint8)) == 0.0
    assert evaluate_learned(tree, np.ones(20, dtype=np.uint8)) == 1.0


def test_eval_arity_mismatch():
    tree = learn_threshold(2, 5, make_example(10, 5), seed=1)
    with pytest.raises(InputShapeError):
        evaluate_learned(tree, np.zeros(9, dtype=np.uint8))


@pytest.mark.parametrize("bits", [[2, 3, 1, 0], [-1, 0, 1, 1],
                                  [256, 0, 1, 1], [0.5, 0, 1, 1]])
def test_learning_takes_only_0_1_bits(bits):
    with pytest.raises(RangeError, match="0 or 1"):
        learn_threshold(2, 4, bits, 0)
    tree = learn_threshold(2, 4, [1, 0, 1, 1], 0)
    with pytest.raises(RangeError, match="0 or 1"):
        evaluate_learned(tree, bits)


def test_sample_parameter_prefix():
    x = make_example(30, 15)
    tree = learn_threshold(3, 64, x, seed=6)
    probe = make_example(30, 20, seed=77)
    full = evaluate_learned(tree, probe)
    head = evaluate_learned(tree, probe, sample=16)
    assert 0.0 <= head <= 1.0 and 0.0 <= full <= 1.0


@pytest.mark.parametrize("sample", [0, 65, 5000, -1, True, 2.0, "3"])
def test_sample_outside_the_top_level_is_refused(sample):
    tree = learn_threshold(3, 64, make_example(30, 15), seed=6)
    probe = make_example(30, 20, seed=77)
    assert evaluate_learned(tree, probe, sample=64) == evaluate_learned(
        tree, probe)
    assert evaluate_learned(tree, probe, sample=np.int64(1)) in (0.0, 1.0)
    with pytest.raises(RangeError, match=r"sample must be .* \[1, 64\]"):
        evaluate_learned(tree, probe, sample=sample)


def test_monotonicity_exhaustive_small():
    # flipping any input 0 -> 1 never decreases any item's value
    n, m, levels = 8, 30, 4
    x = make_example(n, 4)
    tree = learn_threshold(levels, m, x, seed=8)

    def all_levels(bits):
        return learned_reference(tree, bits)[2]

    rng = generator(123)
    for _ in range(20):
        base = (rng.random(n) < 0.4).astype(np.uint8)
        levels_lo = all_levels(base)
        for i in np.nonzero(base == 0)[0]:
            flipped = base.copy()
            flipped[i] = 1
            levels_hi = all_levels(flipped)
            for lo, hi in zip(levels_lo, levels_hi):
                assert np.all(hi >= lo)


@st.composite
def trees_and_inputs(draw):
    """A LearnedTree of 1-6 levels with 1-300 inputs and widths 1-300, so
    that its wiring is uint8 (up to 256 items below) or uint16, and an
    input for it; the arrays come from a drawn seed."""
    sizes = st.one_of(st.integers(1, 300), st.sampled_from([256, 257]))
    n = draw(sizes)
    widths = draw(st.lists(sizes, min_size=1, max_size=6))
    rng = generator(draw(st.integers(0, 2**64 - 1)))
    share, ones = draw(st.floats(0, 1)), draw(st.floats(0, 1))
    blocks, wiring, below = [], [], n
    for width in widths:
        blocks.append((rng.random(width) < share).astype(np.uint8))
        wiring.append(index(rng.random((width, 3)), below))
        below = width
    tree = LearnedTree(n=n, blocks=tuple(blocks), wiring=tuple(wiring),
                       seed=0, example_ones=0)
    return tree, (rng.random(n) < ones).astype(np.uint8)


@settings(max_examples=200, deadline=None)
@given(case=trees_and_inputs())
def test_evaluation_matches_the_per_level_where_oracle(case):
    tree, bits = case
    top = tree.blocks[-1].size
    for sample in (1, top, None):
        want, want_trace, _ = learned_reference(tree, bits, sample)
        got, trace = evaluate_learned(tree, bits, sample=sample,
                                      return_trace=True)
        assert type(got) is float and got == want
        assert all(type(f) is float for f in trace)
        assert trace == want_trace
    assert {w.dtype for w in tree.wiring} <= {np.dtype(np.uint8),
                                              np.dtype(np.uint16)}


def test_json_roundtrip():
    tree = learn_threshold(3, 12, make_example(16, 8), seed=10)
    back = LearnedTree.from_json(tree.to_json())
    assert back.n == tree.n and back.seed == tree.seed
    for a, b in zip(tree.blocks, back.blocks):
        assert np.array_equal(a, b)
    for a, b in zip(tree.wiring, back.wiring):
        assert np.array_equal(a, b)
    probe = make_example(16, 9, seed=3)
    assert evaluate_learned(back, probe) == evaluate_learned(tree, probe)


#: Indices where the number of decimal digits changes.
DIGIT_EDGES = (0, 9, 10, 99, 100, 9999, 10000)


@st.composite
def learned_trees(draw):
    """A LearnedTree of 1-4 levels, widths 1-40 and 1 to 20,000 inputs,
    built directly; indices favour the digit-count edges."""
    n = draw(st.one_of(st.integers(1, 20_000),
                       st.sampled_from([1, 10, 11, 101, 10_000, 10_001])))
    blocks, wiring, below = [], [], n
    for width in draw(st.lists(st.integers(1, 40), min_size=1, max_size=4)):
        index = st.one_of(st.integers(0, below - 1), st.sampled_from(
            [i for i in DIGIT_EDGES if i < below]))
        blocks.append(draw(arrays(np.uint8, width, fill=st.nothing(),
                                  elements=st.integers(0, 1))))
        wiring.append(draw(arrays(np.int64, (width, 3), fill=st.nothing(),
                                  elements=index)))
        below = width
    return LearnedTree(n=n, blocks=tuple(blocks), wiring=tuple(wiring),
                       seed=draw(st.integers(0, 2**64 - 1)),
                       example_ones=draw(st.integers(0, n)))


@settings(max_examples=100, deadline=None)
@given(tree=learned_trees())
def test_to_json_writes_the_json_dumps_bytes(tree):
    text = tree.to_json()
    assert text == learned_json(tree)
    back = LearnedTree.from_json(text)
    assert (back.n, back.seed, back.example_ones) == (
        tree.n, tree.seed, tree.example_ones)
    for a, b in zip(tree.blocks + tree.wiring, back.blocks + back.wiring):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert back.to_json() == text


def _general(text):
    """from_json through json.loads alone: the layout reader declines."""
    with mock.patch.object(learning, "_read_layout", lambda text: None):
        return LearnedTree.from_json(text)


def _same_structure(a, b):
    assert (a.n, a.seed, a.example_ones) == (b.n, b.seed, b.example_ones)
    assert len(a.blocks) == len(b.blocks) and len(a.wiring) == len(b.wiring)
    for x, y in zip(a.blocks + a.wiring, b.blocks + b.wiring):
        assert x.dtype == y.dtype and np.array_equal(x, y)


@settings(max_examples=100, deadline=None)
@given(tree=learned_trees())
def test_layout_reader_matches_the_general_parser(tree):
    text = tree.to_json()
    general = _general(text)
    for written in (text, text + "\n"):
        _same_structure(learning._read_layout(written), general)
        _same_structure(LearnedTree.from_json(written), general)


def test_written_files_skip_json_loads(monkeypatch):
    tree = learn_threshold(2, 2000, make_example(10_000, 4_000), seed=11)
    loads = json.loads

    def short_only(text, *args, **kwargs):
        assert len(text) <= 1024, "json.loads was handed the body"
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(learning.json, "loads", short_only)
    _same_structure(LearnedTree.from_json(tree.to_json() + "\n"), tree)


#: A learned file in to_json's layout: 5 inputs, two levels of width 2.
COMPACT = ('{"n":5,"seed":0,"example_ones":3,"levels":['
           '{"blocks":[1,0],"wiring":[[4,0,2],[1,3,0]]},'
           '{"blocks":[0,1],"wiring":[[1,0,1],[0,0,1]]}]}')

#: Edits of COMPACT, each read by the general parser.
MUTATIONS = {
    "float block": COMPACT.replace("[1,0]", "[0.5,0]"),
    "true block": COMPACT.replace("[1,0]", "[true,0]"),
    "negative index": COMPACT.replace("[[4,", "[[-1,"),
    "leading zero": COMPACT.replace("[[4,", "[[04,"),
    "20 digits": COMPACT.replace("[[4,", "[[12345678901234567890,"),
    "space": COMPACT.replace('"n":5', '"n": 5'),
    "swapped keys": COMPACT.replace('"n":5,"seed":0', '"seed":0,"n":5'),
    "CRLF": COMPACT + "\r\n",
    "trailing bytes": COMPACT + "x",
    "index past level below": COMPACT.replace("[[1,0,1]", "[[2,0,1]"),
    "plus sign": COMPACT.replace("[[4,", "[[+4,"),
    "empty index": COMPACT.replace("[[4,0,", "[[4,,"),
    "float seed": COMPACT.replace('"seed":0', '"seed":1.0'),
    # No index type is taken from a float n (float16 would overflow).
    "float n": COMPACT.replace('"n":5', '"n":5.5').replace("[[4,",
                                                           "[[70000,"),
    "no wiring key": COMPACT.replace('[0,1],"wiring"', '[0,1],"Wiring"'),
}


def _outcome(read, text):
    """What ``read(text)`` returns or raises, in comparable form."""
    try:
        tree = read(text)
    except Exception as exc:    # the parsers must raise alike
        return type(exc), str(exc)
    return (tree.n, tree.seed, tree.example_ones,
            [(a.dtype, a.tolist()) for a in tree.blocks + tree.wiring])


def test_compact_text_takes_the_layout_reader():
    for text in (COMPACT, COMPACT + "\n"):
        tree = learning._read_layout(text)
        assert tree is not None and tree.to_json() == COMPACT
        assert _outcome(LearnedTree.from_json, text) == _outcome(
            _general, text)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutated_files_read_as_before(name):
    text = MUTATIONS[name]
    assert learning._read_layout(text) is None
    assert _outcome(LearnedTree.from_json, text) == _outcome(
        _general, text)


def test_huge_n_and_index_take_the_layout_reader():
    # An index far past the file's index count: to_json looks its digits
    # up among the indices present, so it writes the file back.
    text = (COMPACT.replace('"n":5', '"n":1000000000000')
            .replace("[[4,", "[[100000000000,"))
    tree = learning._read_layout(text)
    assert tree is not None and tree.to_json() == text
    assert _outcome(LearnedTree.from_json, text) == _outcome(
        _general, text)


def _traced_peak(call):
    """``call()``'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_to_json_cost_follows_the_file_not_the_largest_index():
    tree = learn_threshold(2, 10, [1, 0] * 1_500_000, 1)
    text, peak = _traced_peak(tree.to_json)
    assert text == learned_json(tree)
    assert peak < 2**20, peak


@pytest.mark.parametrize("level, bad", [(0, "wiring"), (1, "wiring"),
                                        (0, "blocks"), (1, "blocks")])
def test_to_json_refuses_what_from_json_refuses(level, bad):
    # The constructor refuses what both readers refuse, so no tree that
    # to_json could write them from exists.
    tree = learn_threshold(2, 4, [1, 0, 1, 1], 0)
    parts = {"blocks": list(tree.blocks), "wiring": list(tree.wiring)}
    parts[bad][level] = parts[bad][level].astype(np.int64)   # -1 fits
    parts[bad][level][-1] = -1 if bad == "wiring" else 2
    with pytest.raises(InputShapeError, match=f"level {level + 1}"):
        LearnedTree(n=4, blocks=tuple(parts["blocks"]),
                    wiring=tuple(parts["wiring"]), seed=0, example_ones=3)
    data = json.loads(tree.to_json())
    data["levels"][level][bad][-1] = parts[bad][level][-1].tolist()
    for text in (json.dumps(data, separators=(",", ":")), json.dumps(data)):
        with pytest.raises(InputShapeError, match=f"level {level + 1}"):
            LearnedTree.from_json(text)


#: Blocks and wiring of a valid structure on 5 inputs, two levels of
#: width 2 (COMPACT's).
B1, B2 = np.uint8([1, 0]), np.uint8([0, 1])
W1, W2 = np.int64([[4, 0, 2], [1, 3, 0]]), np.int64([[1, 0, 1], [0, 0, 1]])


@pytest.mark.parametrize("changes, message", [
    pytest.param(dict(blocks=(), wiring=()), "at least one level",
                 id="no levels"),
    pytest.param(dict(wiring=(W1,)), "as much wiring as blocks",
                 id="two block levels, one wiring level"),
    pytest.param(dict(wiring=(W1 + (W1 == 4), W2)), "level 1 .* 5 items",
                 id="index 5 at level 1"),
    pytest.param(dict(wiring=(W1, W2 * 2)), "level 2 .* 2 items",
                 id="index 2 at level 2"),
    pytest.param(dict(wiring=(W1 - 1, W2)), "level 1", id="index -1"),
    pytest.param(dict(blocks=(B1 * 2, B2)), "level 1", id="block 2"),
    pytest.param(dict(blocks=(B1[None], B2)), "level 1", id="2-D blocks"),
    pytest.param(dict(blocks=(B1, B2[:0]), wiring=(W1, W2[:0])), "level 2",
                 id="width-0 level"),
    pytest.param(dict(wiring=(W1.astype(float), W2)), "level 1",
                 id="float wiring"),
    pytest.param(dict(blocks=(B1.astype(bool), B2)), "level 1",
                 id="bool blocks"),
    pytest.param(dict(n=0), "n must be an integer >= 1", id="n 0"),
    pytest.param(dict(n=3.0), "n must be an integer >= 1", id="n 3.0"),
    pytest.param(dict(example_ones=6),
                 r"example_ones must be an integer in \[0, 5\]",
                 id="example_ones n + 1"),
    pytest.param(dict(seed="7"), "seed must be an integer", id="seed '7'"),
])
def test_constructor_refuses_what_evaluate_cannot_run(changes, message):
    fields = dict(n=5, seed=0, example_ones=3, blocks=(B1, B2),
                  wiring=(W1, W2))
    LearnedTree(**fields)
    with pytest.raises(InputShapeError, match=message):
        LearnedTree(**{**fields, **changes})


def test_stored_arrays_are_read_only():
    tree = learn_threshold(2, 4, [1, 0, 1, 1], 0)
    for stored in (tree.blocks[0], tree.wiring[0]):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 0
    # The caller's arrays stay writable; they are copied only to convert,
    # here W1's int64 to uint8, the index type of 5 items below.
    wiring = W2.astype(np.uint8)
    built = LearnedTree(n=5, seed=0, example_ones=3, blocks=(B1, B2),
                        wiring=(W1, wiring))
    assert B1.flags.writeable and wiring.flags.writeable
    assert np.shares_memory(built.blocks[0], B1)
    assert np.shares_memory(built.wiring[1], wiring)
    assert built.wiring[0].dtype == np.uint8
    assert not np.shares_memory(built.wiring[0], W1)


@pytest.mark.parametrize("below, dtype", [
    (1, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16),
    (65_537, np.uint32), (2 ** 32, np.uint32), (2 ** 32 + 1, np.uint64),
    (2 ** 64, np.uint64), (2 ** 70, np.uint64)])
def test_wiring_takes_the_smallest_type_that_indexes_the_level_below(
        below, dtype):
    # Level 1 wires into n inputs; level 2 into level 1's width, where the
    # widths are small enough to build.
    last = min(below, 2 ** 63) - 1
    w = np.int64([[0, last, last // 2]])
    tree = LearnedTree(n=below, seed=0, example_ones=0, blocks=(B1[:1],),
                       wiring=(w,))
    assert tree.wiring[0].dtype == dtype and np.array_equal(tree.wiring[0], w)
    assert LearnedTree.from_json(tree.to_json()) == tree
    if below <= 65_537:
        wide = LearnedTree(n=1, seed=0, example_ones=0,
                           blocks=(np.zeros(below, np.uint8), B1[:1]),
                           wiring=(np.zeros((below, 3), np.int64), w))
        assert wide.wiring[0].dtype == np.uint8
        assert wide.wiring[1].dtype == dtype
        assert evaluate_learned(wide, [1]) == 1.0


def test_every_integer_wiring_type_gives_the_same_tree():
    tree = learn_threshold(3, 300, make_example(70_000, 30_000), seed=12)
    assert [w.dtype for w in tree.wiring] == [np.uint32, np.uint16,
                                              np.uint16]
    probe = make_example(70_000, 35_000, seed=5)
    for dtype in (np.int64, np.int32):
        same = LearnedTree(n=tree.n, seed=tree.seed,
                           example_ones=tree.example_ones, blocks=tree.blocks,
                           wiring=tuple(w.astype(dtype) for w in tree.wiring))
        assert same == tree
        assert [w.dtype for w in same.wiring] == [w.dtype
                                                  for w in tree.wiring]
        assert evaluate_learned(same, probe, return_trace=True) == \
            evaluate_learned(tree, probe, return_trace=True)
        assert same.to_json() == tree.to_json() == learned_json(tree)


#: One int64 (width, 3) wiring level at width 20,000: the unit of the
#: temporaries that learning and reading may hold besides the tree.
LEVEL = 20_000 * 3 * 8


def _nbytes(tree):
    return sum(a.nbytes for a in tree.blocks + tree.wiring)


def test_learning_holds_the_tree_and_a_few_levels():
    # All 40 levels held as int64 (19.2 MB of wiring) would not fit.
    tree, peak = _traced_peak(lambda: learn_threshold(
        40, 20_000, make_example(200, 100), seed=13))
    assert peak <= _nbytes(tree) + 5 * LEVEL, (peak, _nbytes(tree))


def test_reading_holds_the_file_the_tree_and_a_few_levels():
    # A written-back copy of the whole file would not fit.
    tree = learn_threshold(40, 20_000, make_example(200, 100), seed=13)
    text = tree.to_json()
    back, peak = _traced_peak(lambda: LearnedTree.from_json(text))
    assert back == tree
    assert peak <= len(text) + _nbytes(tree) + 5 * LEVEL, (
        peak, len(text), _nbytes(tree))


def _learned_text(**changes):
    """A valid learned file's JSON with top-level keys or level 1 changed."""
    data = json.loads(learn_threshold(2, 2, [1, 0, 1], 0).to_json())
    for key, value in changes.items():
        if key in ("blocks", "wiring"):
            data["levels"][0][key] = value
        else:
            data[key] = value
    return json.dumps(data)


#: Learned files that hold something other than an integer where an
#: integer belongs.
NON_INTEGER = {
    "float n": _learned_text(n=3.9),
    "whole float n": _learned_text(n=3.0),
    "float block": _learned_text(blocks=[0.7, 1]),
    "float index": _learned_text(wiring=[[1.9, 0, 2], [0, 1, 2]]),
    "string n": _learned_text(n="3"),
    "string seed": _learned_text(seed="7"),
    "bool example_ones": _learned_text(example_ones=True),
    "string index": _learned_text(wiring=[["1", 0, 2], [0, 1, 2]]),
    "bool blocks": _learned_text(blocks=[True, False]),
    "bool and int blocks": _learned_text(blocks=[True, 0]),
    "bool and int index": _learned_text(wiring=[[True, 0, 2], [0, 1, 2]]),
    "NaN block": _learned_text(blocks=[math.nan, 1]),
    "huge index": _learned_text(wiring=[[2**64, 0, 2], [0, 1, 2]]),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER))
def test_from_json_refuses_non_integers(name):
    with pytest.raises(InputShapeError):
        LearnedTree.from_json(NON_INTEGER[name])


def _compact(**changes):
    """_learned_text's file in to_json's layout, which the layout reader
    takes."""
    return json.dumps(json.loads(_learned_text(**changes)),
                      separators=(",", ":"))


@pytest.mark.parametrize("text, message", [
    pytest.param('{"n":0,"seed":0,"example_ones":0,"levels":[]}',
                 "n must be an integer >= 1", id="0"),
    pytest.param('{"n":-3,"seed":0,"example_ones":0,"levels":[]}',
                 "n must be an integer >= 1", id="-3"),
    pytest.param('{"n":3,"seed":0,"example_ones":1,"levels":[]}',
                 "at least one level", id="no levels"),
    pytest.param(_compact(example_ones=9),
                 r"example_ones must be an integer in \[0, 3\]",
                 id="9 ones of 3"),
    pytest.param(_compact(example_ones=-1),
                 r"example_ones must be an integer in \[0, 3\]",
                 id="-1 ones"),
])
def test_from_json_needs_an_input(text, message):
    # Files that learn_threshold cannot write: no input, no level, or
    # example ones outside 0..n.  The layout reader declines them, so the
    # general parser refuses them, and no tree to write them from can be
    # built.
    assert learning._read_layout(text) is None
    for read in (LearnedTree.from_json, _general):
        with pytest.raises(InputShapeError, match=message):
            read(text)
    data = json.loads(text)
    with pytest.raises(InputShapeError, match=message):
        LearnedTree(
            n=data["n"], seed=0, example_ones=data["example_ones"],
            blocks=tuple(np.uint8(lvl["blocks"]) for lvl in data["levels"]),
            wiring=tuple(np.int64(lvl["wiring"]) for lvl in data["levels"]))


@pytest.mark.parametrize("text", [
    "{bad", "", "[" * 100_000, '{"n":3,"levels":' + "[" * 100_000],
    ids=["unclosed", "empty", "deep", "deep levels"])
def test_text_that_is_not_json_is_an_input_shape_error(text):
    with pytest.raises(InputShapeError, match="not JSON"):
        LearnedTree.from_json(text)


def test_equality_is_a_bool_over_counts_seed_and_arrays():
    a = learn_threshold(2, 4, [1, 0, 1, 1], 0)
    assert (a == learn_threshold(2, 4, [1, 0, 1, 1], 0)) is True
    assert (a != learn_threshold(2, 4, [1, 0, 1, 1], 0)) is False
    assert a == LearnedTree.from_json(a.to_json())
    for other in (learn_threshold(2, 4, [1, 0, 1, 1], 1),
                  learn_threshold(3, 4, [1, 0, 1, 1], 0),
                  learn_threshold(2, 5, [1, 0, 1, 1], 0),
                  learn_threshold(2, 4, [1, 0, 1, 0], 0)):
        assert (a == other) is False
    blocks = list(a.blocks)
    blocks[-1] = 1 - blocks[-1]
    flipped = LearnedTree(n=a.n, blocks=tuple(blocks), wiring=a.wiring,
                          seed=a.seed, example_ones=a.example_ones)
    assert (a == flipped) is False and (a == "a tree") is False


def test_learned_traces_match_linear_threshold_simulation():
    # the learned structure is distributionally the t-threshold leveled
    # construction; per-level mean fractions agree within 3 sigma
    n, m, levels, trials = 100, 2000, 12, 60
    x = make_example(n, 50)
    bits = make_example(n, 42, seed=55)       # input fraction 0.42
    learned_traces = []
    for s in range(trials):
        tree = learn_threshold(levels, m, x, seed=1000 + s)
        _, trace = evaluate_learned(tree, bits, return_trace=True)
        learned_traces.append(trace)
    learned = np.array(learned_traces)

    cfg = LevelConfig(widths=(m,) * levels, n=n, seed=77, trials=trials,
                      input_bits=tuple(int(b) for b in bits))
    sim = simulate_leveled(linear_threshold(0.5), cfg).fractions
    for lvl in range(levels + 1):
        a, b = learned[:, lvl], sim[:, lvl]
        se = math.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
        assert abs(a.mean() - b.mean()) <= max(3 * se, 1e-9)
