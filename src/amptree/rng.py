"""Deterministic, splittable seeding for all simulations.

Every random stream in the package is derived from a 64-bit root seed plus
a tuple of integer indices (trial, level, ...).  The derivation mixes each
index into the state with the splitmix64 avalanche function, so streams for
distinct index tuples are statistically independent and a rerun with the
same (seed, indices) is bit-identical regardless of execution order.

``stacked_streams`` seeds many (trial, stream) generators at once, as
array operations, and draws from them through one reusable PCG64.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def splitmix64(x: int) -> int:
    """One splitmix64 step: add the golden-gamma, then avalanche.  Also
    takes a uint64 array, on which numpy wraps modulo 2^64."""
    x = (x + _GAMMA) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(root: int, *indices: int) -> int:
    """Mix ``indices`` into ``root`` one at a time through splitmix64.
    Uint64 array indices give the seeds of every index tuple they
    broadcast to."""
    state = splitmix64(root & _MASK)
    for ix in indices:
        state = splitmix64(state ^ (ix & _MASK))
    return state


def generator(root: int, *indices: int) -> np.random.Generator:
    """A PCG64 generator seeded from ``derive_seed(root, *indices)``."""
    return np.random.Generator(np.random.PCG64(derive_seed(root, *indices)))


def _hash32(v: np.ndarray, const: int, mult: int):
    """One SeedSequence hash step on uint32 words; returns the next const."""
    nxt = const * mult & 0xFFFFFFFF
    v = (v ^ np.uint32(const)) * np.uint32(nxt)
    return v ^ (v >> np.uint32(16)), nxt


def pcg64_states(seeds) -> list[dict]:
    """``np.random.PCG64(s).state`` for each uint64 seed s, in one pass.

    numpy's SeedSequence hashes a seed's (at most two) 32-bit words into a
    zero-padded pool of four, so every seed takes the same uint32 steps.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    zero = np.zeros_like(seeds)
    const, pool = 0x43B0D7E5, [seeds & 0xFFFFFFFF, seeds >> 32, zero, zero]
    for i in range(4):
        pool[i], const = _hash32(pool[i].astype(np.uint32), const, 0x931E8875)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hash32(pool[src], const, 0x931E8875)
                r = (np.uint32(0xCA01F9DD) * pool[dst]
                     - np.uint32(0x4973F715) * h)
                pool[dst] = r ^ (r >> np.uint32(16))
    const, words = 0x8B51F9DD, np.empty((8, seeds.size), dtype=np.uint64)
    for i in range(8):
        words[i], const = _hash32(pool[i % 4], const, 0x58F38DED)
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(
            *(words[0::2] | words[1::2] << np.uint64(32)).tolist()):
        # PCG64's seeding: two LCG steps from state 0 (O'Neill 2014)
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "has_uint32": 0,
                       "uinteger": 0, "state": {"state": state, "inc": inc}})
    return states


def stacked_streams(root: int, trials: range, streams: int):
    """``random(j, shape)``: the ``(len(trials), *shape)`` array whose row
    i is ``generator(root, trials[i], j).random(shape)``, for j < streams.
    Seeds every (trial, stream) at once; draws through one PCG64 of its own.
    """
    states = pcg64_states(derive_seed(
        root, np.asarray(trials, dtype=np.uint64)[None, :],
        np.arange(streams, dtype=np.uint64)[:, None]))
    gen, rows = np.random.Generator(np.random.PCG64(0)), len(trials)

    def random(j: int, shape: tuple[int, ...]) -> np.ndarray:
        out = np.empty((rows, *shape))
        for row, state in zip(out, states[j * rows:(j + 1) * rows]):
            gen.bit_generator.state = state
            gen.random(out=row)
        return out
    return random
