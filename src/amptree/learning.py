"""One-shot learning of a threshold from a single example string.

Each learned item samples one random input position i of the example X and
freezes its building block to (A v B) ^ C when X_i = 1, else (A ^ B) v C,
then wires its three leaves to uniformly random items of the previous
level.  The block mix therefore converges to the firing fraction of X, and
the learned structure behaves like the linear threshold construction at
t = ||X||_1 / n, evaluated on fresh inputs with the wiring held fixed.

Determinism: level j of the learner uses PCG64(derive_seed(seed, j)) and
draws two blocks of uniforms with ``Generator.random``, the width's picks
of an example position, then the (width, 3) wiring, each mapped to an index
by ``blocks.index``, the rule the leveled and stream simulators wire by.

A :class:`LearnedTree` checks its counts, blocks and wiring when it is built.
It stores each level's wiring in the smallest unsigned type that holds an
index into the level below, ``np.min_scalar_type(below - 1)``: uint8 for up
to 256 items below, uint16 up to 65,536, then uint32 and uint64.  A
40-level, width-20,000 structure thus keeps 4.8 MB of uint16 wiring, not
19.2 MB of int64.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .blocks import check_bits, eval_blocks, index
from .catalog import linear_threshold
from .errors import InputShapeError, check_int, load_json
from .rng import generator

#: The block an item freezes to when its example bit is b, at index b:
#: linear_threshold's (A ^ B) v C for 0, its (A v B) ^ C for 1.
_BLOCKS = tuple(t for t, _ in reversed(linear_threshold(0.5).entries))


@dataclass(frozen=True)
class LearnedTree:
    """A frozen, finite realization: per-level blocks and leaf wiring.

    ``blocks[j]`` is 1 where the item uses (A v B) ^ C; wiring indices at
    level j point into level j-1 (level 0 = inputs).

    Construction raises InputShapeError unless n >= 1, example_ones in
    0..n and seed are integers, and each of one or more levels has 1-D,
    non-empty integer 0/1 blocks and integer (width, 3) wiring into the
    level below.  It keeps read-only uint8 blocks and read-only wiring in
    each level's index type (see :func:`_index_dtype`), and copies a
    caller's array only when it has another type.
    """

    n: int
    blocks: tuple[np.ndarray, ...]
    wiring: tuple[np.ndarray, ...]
    seed: int
    example_ones: int

    def __post_init__(self):
        n = check_int("n", self.n, 1, error=InputShapeError)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "example_ones", check_int(
            "example_ones", self.example_ones, 0, n, error=InputShapeError))
        object.__setattr__(self, "seed", check_int(
            "seed", self.seed, None, error=InputShapeError))
        if not self.blocks or len(self.blocks) != len(self.wiring):
            raise InputShapeError("a learned structure needs at least one "
                                  "level, with as much wiring as blocks")
        blocks, wiring, below = [], [], n
        for level, (b, w) in enumerate(zip(self.blocks, self.wiring), 1):
            b, w = np.asarray(b), np.asarray(w)
            if not (b.dtype.kind in "iu" and w.dtype.kind in "iu"
                    and b.ndim == 1 and b.size and w.shape == (b.size, 3)
                    and 0 <= b.min() <= b.max() <= 1
                    and 0 <= w.min() <= w.max() < below):
                raise InputShapeError(f"level {level} is not 0/1 blocks wired "
                                      f"into the {below} items below it")
            b = b.astype(np.uint8, copy=False).view()
            w = w.astype(_index_dtype(below), copy=False).view()
            b.flags.writeable = w.flags.writeable = False
            blocks.append(b)
            wiring.append(w)
            below = b.size
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "wiring", tuple(wiring))

    def __eq__(self, other) -> bool:
        """Equal counts and seed, and equal arrays level by level."""
        if not isinstance(other, LearnedTree):
            return NotImplemented
        return ((self.n, self.seed, self.example_ones, self.levels)
                == (other.n, other.seed, other.example_ones, other.levels)
                and all(np.array_equal(a, b) for a, b in zip(
                    self.blocks + self.wiring, other.blocks + other.wiring)))

    @property
    def levels(self) -> int:
        return len(self.blocks)

    @property
    def width(self) -> int:
        return int(self.blocks[0].shape[0])

    def block_fraction(self) -> float:
        """Fraction of items using the (A v B) ^ C block."""
        total = sum(int(b.sum()) for b in self.blocks)
        count = sum(b.size for b in self.blocks)
        return total / count

    def to_json(self) -> str:
        """``json.dumps`` of the arrays as lists, compact, byte for byte."""
        return "".join(self.json_pieces())

    def json_pieces(self) -> Iterator[str]:
        """:meth:`to_json`'s text in pieces: the head, one piece per level
        and the closing brackets, so that a writer holds one level's text
        at a time, not the file's."""
        head = json.dumps({key: getattr(self, key) for key in (
            "n", "seed", "example_ones")}, separators=(",", ":"))
        # Digits for each index up to the largest, or, when those would
        # outnumber the file's indices, for the distinct ones, looked up.
        top = max(int(w.max()) for w in self.wiring) + 1
        sparse = top > sum(w.size for w in self.wiring)
        present = (np.unique(np.concatenate(self.wiring, axis=None))
                   if sparse else range(top))
        table = np.array([str(i).encode() for i in present])
        yield head[:-1] + ',"levels":['
        for level, (b, w) in enumerate(zip(self.blocks, self.wiring), 1):
            flags = np.full((b.size, 2), ord(","), np.uint8)
            flags[:, 1] = b + ord("0")
            # Row i is ",[" then "a," "b," "c]", each cell NUL-padded.
            rows = np.zeros((len(w), 1 + w.shape[1], table.itemsize + 1),
                            np.uint8)
            rows[:, 0, 0] = ord(",")
            rows[:, :, -1] = np.frombuffer(
                b"[" + b"," * (w.shape[1] - 1) + b"]", np.uint8)
            rows[:, 1:, :-1] = np.take(
                table, np.searchsorted(present, w) if sparse else w,
                axis=0)[..., None].view(np.uint8)
            cells = rows.ravel()[1:]
            yield b"".join([b"," * (level > 1), b'{"blocks":[',
                            flags.tobytes()[1:], b'],"wiring":[',
                            cells[cells != 0].tobytes(), b"]}"]).decode()
        yield "]}"

    @classmethod
    def from_json(cls, text: str) -> "LearnedTree":
        """Parse a learned structure from JSON.

        Text in exactly :meth:`to_json`'s layout, with at most one trailing
        newline, is read straight into arrays; any other JSON goes through
        the general JSON parser, with the same result and the same refusals.

        Raises InputShapeError when the text is not JSON (nested past the
        recursion limit included) or does not describe a structure
        :func:`evaluate_learned` can run.
        """
        tree = _read_layout(text)
        if tree is not None:
            return tree
        data = load_json(text, "not JSON", InputShapeError)
        try:
            n, seed, ones = data["n"], data["seed"], data["example_ones"]
            levels = data["levels"]
            blocks = tuple(np.asarray(lvl["blocks"]) for lvl in levels)
            wiring = tuple(np.asarray(lvl["wiring"]) for lvl in levels)
            # numpy reads true mixed with integers as 1.  No valid file
            # holds true or false, so only a file that does is searched.
            has_bool = ("true" in text or "false" in text) and any(
                type(v) is bool for lvl in levels
                for v in chain(lvl["blocks"], *lvl["wiring"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputShapeError(
                f"not a learned structure ({type(exc).__name__}: {exc})"
            ) from exc
        if has_bool:
            raise InputShapeError("true or false in blocks or wiring")
        return cls(n=n, blocks=blocks, wiring=wiring, seed=seed,
                   example_ones=ones)


def _read_layout(text: str) -> LearnedTree | None:
    """The structure ``text`` holds if it is :meth:`LearnedTree.to_json`'s
    bytes plus at most one newline, else None.

    The levels are cut at the layout's fixed punctuation with
    ``bytes.find``, and each level's indices are read by numpy's decimal
    parser once its brackets are deleted, then cast to the level's index
    type.  It declines what LearnedTree refuses, so the general parser
    names each refusal, and its result stands only if writing it back
    gives ``text``, compared piece by piece.
    """
    try:
        raw = text.encode()
        cut = raw.find(b',"levels":[')
        head = json.loads(raw[:cut] + b"}") if cut > 0 else None
        n, seed, ones = (head[key] for key in ("n", "seed", "example_ones"))
    except (TypeError, ValueError, KeyError, RecursionError):
        return None
    blocks, wiring, below = [], [], n
    pos = cut + len(b',"levels":[')
    while not raw.startswith(b"]}", pos):
        start = pos + len(b',{"blocks":[' if blocks else b'{"blocks":[')
        mid = raw.find(b'],"wiring":[', start)
        end = raw.find(b"]}", mid)
        if mid < 0 or end < 0:
            return None
        b = np.frombuffer(raw, np.uint8, mid - start, start)[::2] - ord("0")
        # Cast level by level, so one level's int64 parse is alive at a time,
        # and copied at its final size: the parse's grown buffer fragments
        # the heap (7 MB more peak RSS on a 40-level, width-20,000 file).
        # An n that is not an integer is declined here; one below 1, or an
        # index the cast changes, by LearnedTree or by the write-back.
        try:
            w = np.fromstring(raw[mid + len(b'],"wiring":['):end]
                              .translate(None, b"[]"), np.int64,
                              sep=",").reshape(-1, 3).astype(
                                  _index_dtype(below))
        except (ValueError, TypeError, DeprecationWarning):  # older numpy
            return None     # warns and reads a prefix, which is declined
        blocks.append(b)
        wiring.append(w)
        below = b.size
        pos = end + len(b"]}")
    del raw     # free the text's copy before the text is written again
    try:
        tree = LearnedTree(n=n, blocks=tuple(blocks), wiring=tuple(wiring),
                           seed=seed, example_ones=ones)
    except InputShapeError:
        return None
    # Piece by piece at offsets, so the written text is never held whole.
    at = 0
    for piece in tree.json_pieces():
        if not text.startswith(piece, at):
            return None
        at += len(piece)
    return tree if text[at:at + 2] in ("", "\n") else None


def _index_dtype(below: int) -> np.dtype:
    """The smallest unsigned type that holds an index into ``below`` items
    (uint64 past 2^64 items, which no integer array can index past);
    TypeError unless ``below`` is an integer."""
    return np.min_scalar_type(min(operator.index(below), 2 ** 64) - 1)


def learn_threshold(levels: int, width: int, example: Sequence[int],
                    seed: int) -> LearnedTree:
    """Build a width-``width``, ``levels``-level structure from one example.

    Degenerate all-zero / all-one examples are allowed: the learner still
    runs and produces a monotone-trivial function (pure AND or pure OR
    amplification).
    """
    x = check_bits(example)
    if x.size == 0:
        raise InputShapeError("the example string is empty")
    levels = check_int("levels", levels, 1, error=InputShapeError)
    width = check_int("width", width, 1, error=InputShapeError)
    seed = check_int("seed", seed, None)
    n = int(x.size)
    blocks = []
    wiring = []
    prev_size = n
    for level in range(1, levels + 1):
        rng = generator(seed, level)
        blocks.append(x[index(rng.random(width), n)])
        # Cast as drawn, so one level's int64 indices are alive at a time.
        wiring.append(index(rng.random((width, 3)), prev_size).astype(
            _index_dtype(prev_size)))
        prev_size = width
    return LearnedTree(n=n, blocks=tuple(blocks), wiring=tuple(wiring),
                       seed=seed, example_ones=int(x.sum()))


def _firing(bits) -> float:
    """The fraction of 0/1 ``bits`` that are 1: an exact count over the
    size, the same Python float as ``float(bits.mean())``."""
    return int(np.count_nonzero(bits)) / bits.size


def evaluate_learned(tree: LearnedTree, input_bits: Sequence[int],
                     sample: int | None = None,
                     return_trace: bool = False):
    """Evaluate the learned structure level by level on a fresh input.

    Returns the firing fraction of the sampled top-level items (the first
    ``sample`` items; items are exchangeable by construction, so a prefix
    is a uniform sample and keeps evaluation deterministic).  With
    ``return_trace`` also returns the per-level firing fractions.

    Raises RangeError unless ``sample`` is None or an integer (not a bool)
    in 1..the top level's size.
    """
    size = tree.blocks[-1].size
    sample = size if sample is None else check_int("sample", sample, 1, size)
    cur = check_bits(input_bits)
    if cur.size != tree.n:
        raise InputShapeError(
            f"input has {cur.size} bits, learned structure expects {tree.n}")
    trace = [_firing(cur)]
    for blocks, wires in zip(tree.blocks, tree.wiring):
        # np.take gathers as fast from any index type; cur[wires] takes
        # twice as long from a type other than intp.  Gathering by the
        # transpose gives eval_blocks its leaf-major rows, contiguous.
        cur = eval_blocks(_BLOCKS, blocks, np.take(cur, wires.T))
        trace.append(_firing(cur))
    fraction = _firing(cur[:sample])
    if return_trace:
        return fraction, trace
    return fraction
