"""Deterministic, splittable seeding for all simulations.

Every random stream in the package is derived from a 64-bit root seed plus
a tuple of integer indices.  The derivation mixes each index into the
state with the splitmix64 avalanche function, so streams for distinct index
tuples are statistically independent and a rerun with the same
(seed, indices) is bit-identical regardless of execution order.

One stream per independent replication: each trial of a leveled or a
stream run draws from ``generator(seed, trial)``, and each level of the
learner from ``generator(seed, level)``.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 step: add the golden-gamma, then avalanche."""
    x = (x + _GAMMA) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(root: int, *indices: int) -> int:
    """Mix ``indices`` into ``root`` one at a time through splitmix64."""
    state = splitmix64(root & _MASK)
    for ix in indices:
        state = splitmix64(state ^ (ix & _MASK))
    return state


def generator(root: int, *indices: int) -> np.random.Generator:
    """A PCG64 generator seeded from ``derive_seed(root, *indices)``."""
    return np.random.Generator(np.random.PCG64(derive_seed(root, *indices)))
