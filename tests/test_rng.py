"""Seeding: splitmix64 derivation and the batched PCG64 states.

``stacked_streams`` reproduces numpy's own PCG64 seeding (SeedSequence
hash, then two LCG steps) as array operations.  These tests pin it against
``np.random.PCG64``, so a numpy release that changes its seeding fails
here instead of silently changing every leveled stream.  Every seeded
output draws its numbers with ``Generator.random`` alone, and the last
test pins that method to PCG64's raw stream.
"""
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amptree.rng import derive_seed, generator, pcg64_states, stacked_streams

EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1)
                | st.integers(0, 2 ** 32 - 1), min_size=1, max_size=40))
def test_states_match_numpy_seeding(seeds):
    seeds = EDGE_SEEDS + seeds
    assert pcg64_states(np.array(seeds, dtype=np.uint64)) == [
        np.random.PCG64(s).state for s in seeds]


def test_states_of_derived_seeds():
    seeds = [derive_seed(3, t, j) for t in range(50) for j in range(21)]
    assert pcg64_states(np.array(seeds, dtype=np.uint64)) == [
        np.random.PCG64(s).state for s in seeds]
    grid = derive_seed(3, np.arange(50, dtype=np.uint64)[:, None],
                       np.arange(21, dtype=np.uint64))
    assert grid.ravel().tolist() == seeds


@settings(max_examples=25, deadline=None)
@given(root=st.integers(0, 2 ** 64 - 1), first=st.integers(0, 10 ** 6),
       count=st.integers(1, 6), streams=st.integers(1, 4),
       shape=st.sampled_from([(1,), (7,), (3, 5)]))
def test_stacked_draws_are_the_generators_draws(root, first, count, streams,
                                                 shape):
    trials = range(first, first + count)
    random = stacked_streams(root, trials, streams)
    for j in range(streams):
        stack = random(j, shape)
        assert stack.shape == (count, *shape)
        for row, trial in zip(stack, trials):
            assert np.array_equal(row, generator(root, trial, j)
                                  .random(shape))


@pytest.mark.parametrize("root, indices", [(0, ()), (7, (3,)),
                                           (2 ** 64 - 1, (12, 40))])
def test_random_is_the_raw_stream_top_53_bits(root, indices):
    # NEP 19 freezes PCG64's raw stream but not the Generator methods.  A
    # numpy release that changes how random turns raw words into doubles
    # fails here, which names the cause of the golden pins' failures.
    raw = generator(root, *indices).bit_generator.random_raw(1000)
    want = (raw >> np.uint64(11)) * 2.0 ** -53
    assert np.array_equal(generator(root, *indices).random(1000), want)
    assert np.array_equal(generator(root, *indices).random((250, 4)),
                          want.reshape(250, 4))
    chunked, gen = np.empty(1000), generator(root, *indices)
    for a, z in pairwise([0, 1, 8, 135, 512, 1000]):
        gen.random(out=chunked[a:z])
    assert np.array_equal(chunked, want)
