"""The item step shared by the leveled, streaming and learning simulators.

Every simulated item samples a building block from a distribution's
entries, wires the block's leaves to earlier items, and fires as the block
evaluates on them.  The entry table and its pick, the uniform-to-index
rule, the block evaluation, and the check and draw of a run's inputs are
decided here, once for all three.
"""
from __future__ import annotations

from collections.abc import Mapping, Set
from numbers import Integral

import numpy as np

from .errors import (CapacityError, InputShapeError, RangeError, check_int,
                     check_real)
from .trees import eval_columns

#: Building blocks wider than this are not simulated item-by-item.
SIM_LEAF_CAP = 64


def entry_table(dist):
    """(trees, cumulative weights, max leaves) of a simulable distribution.

    ``pick(cumw, u)`` maps a uniform draw to its entry.  Cumulative weights
    that reach the total are infinite, so a draw past a sum that rounded
    below 1 picks the last positive-weight entry.
    """
    if dist.max_leaf_count > SIM_LEAF_CAP:
        raise CapacityError(
            f"{dist.label} has a {dist.max_leaf_count}-leaf block; item-level "
            f"simulation is capped at {SIM_LEAF_CAP} leaves")
    cumw = np.cumsum([w for _, w in dist.entries])
    cumw[cumw == cumw[-1]] = np.inf
    return tuple(t for t, _ in dist.entries), cumw, dist.max_leaf_count


def pick(cumw, u):
    """``np.searchsorted(cumw, u, side="right")`` for an ``entry_table``'s
    weights: the count of finite cumulative weights <= u, one comparison
    per entry (an infinite one is never <= a draw), in the smallest
    unsigned type that holds the entry count."""
    which = np.zeros(np.shape(u), np.min_scalar_type(len(cumw)))
    for c in cumw[np.isfinite(cumw)]:
        which += u >= c
    return which


def index(u, size, out=None):
    """``min(floor(u * size), size - 1)`` as int64: the uniform draw u in
    [0, 1) mapped to one of ``size`` slots, for a scalar ``size`` or an
    array that broadcasts against ``u``; written into the int64 ``out``
    when it is given.  Every uniform choice among equal slots takes this
    rule (leveled wiring and top item, the alpha = 0 stream wiring,
    learning's picks and wiring), so no seeded output depends on a
    ``Generator`` method other than ``random``."""
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(u), np.shape(size)),
                       np.int64)
    np.multiply(u, size, out=out, casting="unsafe")
    return np.minimum(out, size - 1, out=out)


def eval_blocks(trees, which, leafbits):
    """Item i is ``trees[which[i]]`` evaluated on column i of ``leafbits``.

    ``leafbits`` is leaf-major, (max_leaves, items), of 0/1 uint8: row l
    holds every item's leaf l.  Every tree runs on the whole block, reading
    its leading rows; each later entry keeps its items by a bitwise select,
    ``out ^ ((new ^ out) & mask)``, which takes no branch per item as
    ``np.where`` does on a random mask.  ``out`` is never updated in
    place: a one-leaf entry's result is a row of ``leafbits`` itself.
    """
    out = eval_columns(trees[0], leafbits)
    for e in range(1, len(trees)):
        keep = eval_columns(trees[e], leafbits) ^ out
        keep &= (which == e).view(np.uint8)
        out = out ^ keep
    return out


def check_bits(bits) -> np.ndarray:
    """``bits`` as a read-only 1-D uint8 array; RangeError unless every one
    is the integer 0 or 1 (numpy's too, not a bool or a float), and unless
    they come in order: a set's or a mapping's iteration order is not."""
    if not (isinstance(bits, np.ndarray) and bits.ndim == 1 and bits.size
            and bits.dtype.kind in "iu" and 0 <= bits.min()
            and bits.max() <= 1):
        if not np.iterable(bits) or isinstance(bits, (Set, Mapping)):
            raise RangeError(f"input bits must be a sequence of the integers "
                             f"0 or 1, got {bits!r}")
        bits = tuple(bits)
        wrong = [kind for kind in set(map(type, bits))
                 if issubclass(kind, bool) or not issubclass(kind, Integral)]
        if wrong or not set(bits) <= {0, 1}:
            bad = next(b for b in bits if type(b) in wrong or b not in (0, 1))
            raise RangeError(f"input bits must be the integers 0 or 1, "
                             f"got {bad!r}")
    bits = np.array(bits, np.uint8)
    bits.flags.writeable = False
    return bits


def check_inputs(config) -> None:
    """Check a config's n, trials and seed, stored back as ints, and its
    inputs: exactly one of ``input_p`` (Bernoulli, drawn per trial, stored
    as a float) and ``input_bits`` (0/1 bits shared by all trials, stored
    as bytes, so that equal configs compare and hash equal)."""
    object.__setattr__(config, "n", check_int(
        "input count", config.n, 1, error=InputShapeError))
    object.__setattr__(config, "trials", check_int(
        "trials", config.trials, 1, error=InputShapeError))
    object.__setattr__(config, "seed", check_int("seed", config.seed, None))
    if (config.input_p is None) == (config.input_bits is None):
        raise InputShapeError("give exactly one of input_p and input_bits")
    if config.input_bits is not None:
        bits = check_bits(config.input_bits)
        if len(bits) != config.n:
            raise InputShapeError(f"{len(bits)} input bits for n={config.n}")
        object.__setattr__(config, "input_bits", bits.tobytes())
    else:
        object.__setattr__(config, "input_p", check_real(
            "input_p", config.input_p, 0, 1, "[]"))


def input_draw(config):
    """``draw(random)``: uint8 inputs for a checked config.

    Explicit bits are one read-only view shared by every trial; otherwise
    Bernoulli(input_p) bits come from the uniforms ``random(n)``, called
    only then.
    """
    if config.input_bits is not None:
        fixed = np.frombuffer(config.input_bits, np.uint8)
        return lambda random: fixed
    return lambda random: (random(config.n) < config.input_p).astype(np.uint8)
