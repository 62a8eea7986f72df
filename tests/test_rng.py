"""Seeding: splitmix64 derivation and numpy's PCG64.

Every trial of a leveled or a stream run, and every level of the learner,
draws from ``generator(seed, index)``: PCG64 seeded, through numpy's
SeedSequence, by ``derive_seed``.  The first test pins the first raw words
of a few root seeds' generators, so a numpy release that changes how PCG64
is seeded fails here, with that cause named, instead of silently changing
every seeded output.  Every seeded output draws its numbers with
``Generator.random`` alone, and the last test pins that method to PCG64's
raw stream.
"""
from itertools import pairwise

import numpy as np
import pytest

from amptree.rng import generator

EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]

#: generator(root).bit_generator.random_raw(4) under numpy 2.4.6.
FIRST_RAW_WORDS = {
    0: [0x3EB17BF403A9949D, 0xB29E6165E60FB056,
        0xF04A5C927FCCF602, 0xDDEF2203F5B37358],
    1: [0xB9627286FECEB23E, 0x2641E6244F546E71,
        0x36031924D8D53A18, 0x2CBCC1B149F73857],
    2 ** 32 - 1: [0x9269D3E67B86EA55, 0x3DA4142FF38AC795,
                  0xA6FD4AF3BC249A59, 0x180B2CF7AED0C933],
    2 ** 32: [0xDC754E47321C9D45, 0x861D5B7A60BCF8A3,
              0x4552E2944E763441, 0x09C66F01BFAC7101],
    2 ** 64 - 1: [0xF864C0621D944054, 0x5D86245EF54FF552,
                  0xE4ABA1403653B1E0, 0xBE20ABD09A1D1AA8],
}


@pytest.mark.parametrize("root", EDGE_SEEDS)
def test_generators_first_raw_words_are_pinned(root):
    raw = generator(root).bit_generator.random_raw(4).tolist()
    assert raw == FIRST_RAW_WORDS[root], (
        "PCG64's raw stream from generator(root) changed: numpy's "
        "SeedSequence or PCG64 seeding, or derive_seed, is not what the "
        "golden pins were taken with")


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
