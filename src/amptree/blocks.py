"""The item step shared by the leveled, streaming and learning simulators.

Every simulated item samples a building block from a distribution's
entries, wires the block's leaves to earlier items, and fires as the block
evaluates on them.  The entry table and its pick, the block evaluation,
and the check and draw of a run's inputs are decided here, once for all
three.
"""
from __future__ import annotations

import numpy as np

from .errors import CapacityError, InputShapeError, RangeError
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


def eval_blocks(trees, which, leafbits):
    """Row i is ``trees[which[i]]`` evaluated on row i of ``leafbits``.

    Every tree runs on the whole (rows, max_leaves) block, reading its
    leading columns; one ``np.where`` per entry keeps that entry's rows.
    """
    out = eval_columns(trees[0], leafbits)
    for e in range(1, len(trees)):
        out = np.where(which == e, eval_columns(trees[e], leafbits), out)
    return out


def check_bits(bits) -> tuple:
    """``bits`` as a tuple of ints; RangeError unless every one is 0 or 1."""
    bits = tuple(bits)
    for b in bits:
        if b not in (0, 1):
            raise RangeError(f"input bits must be 0 or 1, got {b}")
    return tuple(int(b) for b in bits)


def check_inputs(config) -> None:
    """Check a config's n, trials and inputs: exactly one of ``input_p``
    (Bernoulli, drawn per trial) and ``input_bits`` (explicit 0/1 bits,
    shared by all trials), stored back as a tuple of ints."""
    if config.n < 1:
        raise InputShapeError("input count must be >= 1")
    if config.trials < 1:
        raise InputShapeError("trials must be >= 1")
    if (config.input_p is None) == (config.input_bits is None):
        raise InputShapeError("give exactly one of input_p and input_bits")
    if config.input_bits is not None:
        bits = check_bits(config.input_bits)
        if len(bits) != config.n:
            raise InputShapeError(f"{len(bits)} input bits for n={config.n}")
        object.__setattr__(config, "input_bits", bits)
    elif not 0.0 <= config.input_p <= 1.0:
        raise RangeError(f"input_p must be in [0,1]: {config.input_p}")


def input_draw(config):
    """``draw(random)``: uint8 inputs for a checked config.

    Explicit bits are converted once and shared by every trial; otherwise
    Bernoulli(input_p) bits come from the uniforms ``random(n)``, called
    only then.
    """
    if config.input_bits is not None:
        fixed = np.asarray(config.input_bits, dtype=np.uint8)
        return lambda random: fixed
    return lambda random: (random(config.n) < config.input_p).astype(np.uint8)
