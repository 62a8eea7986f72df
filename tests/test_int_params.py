"""Every count, index and seed of the public API, the tree builders'
sizes among them: an integer (a numpy integer too, not a bool) in its range
is taken, anything else raises the parameter's AmptreeError.  Seeds take
any integer, modulo 2^64."""
import io
from fractions import Fraction
from numbers import Integral

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amptree.catalog import (ak_fixed_point, amplifier, dense_fixed_point,
                             linear_threshold, soft_threshold)
from amptree.dynamics import profile
from amptree.errors import (CapacityError, DegenerateInputError,
                            InputShapeError, RangeError)
from amptree.learning import LearnedTree, evaluate_learned, learn_threshold
from amptree.leveled import (LevelConfig, exact_level_distribution,
                             simulate_leveled)
from amptree.polyalg import iterate_point
from amptree.stream import StreamConfig, simulate_stream
from amptree.trees import (all_trees, and_chain, build_ak, build_bk,
                           enumerate_achievable, or_chain, self_compose)

LT = linear_threshold(0.5)
PROBE = (1, 0, 0, 1)
TREE = learn_threshold(2, 8, PROBE, seed=1)
#: TREE's fields, for building it again with one of them changed.
FIELDS = dict(n=4, blocks=TREE.blocks, wiring=TREE.wiring, seed=1,
              example_ones=2)
LEVELED = dict(widths=(3, 2), n=4, seed=1, trials=2, input_p=0.5)
STREAM = dict(n=4, k=5, alpha=0.5, seed=1, trials=2, input_p=0.5)
TRACE = simulate_stream(LT, StreamConfig(**{**STREAM, "k": 6}),
                        keep_bits=True)


def run_leveled(**kw):
    return simulate_leveled(LT, LevelConfig(**{**LEVELED, **kw}))


def run_stream(**kw):
    return simulate_stream(LT, StreamConfig(**{**STREAM, **kw}))


def capped(build):
    """``build(max_leaves)``, where reaching the cap is an answer, not a
    refusal of the cap."""
    def call(v):
        try:
            build(v)
        except CapacityError:
            pass
    return call


#: name: (call with the value, lo, hi, error); a None bound is open.
PARAMS = {
    "LevelConfig n": (lambda v: run_leveled(n=v), 1, None, InputShapeError),
    "LevelConfig trials": (lambda v: run_leveled(trials=v), 1, None,
                           InputShapeError),
    "LevelConfig seed": (lambda v: run_leveled(seed=v), None, None,
                         RangeError),
    "LevelConfig widths": (lambda v: run_leveled(widths=(3, v)), 1, None,
                           InputShapeError),
    "StreamConfig n": (lambda v: run_stream(n=v), 1, None, InputShapeError),
    "StreamConfig k": (lambda v: run_stream(k=v), 0, None, InputShapeError),
    "StreamConfig trials": (lambda v: run_stream(trials=v), 1, None,
                            InputShapeError),
    "StreamConfig seed": (lambda v: run_stream(seed=v), None, None,
                          RangeError),
    "recompute_x trial": (lambda v: TRACE.recompute_x(v, 3), 0, 1,
                          RangeError),
    "recompute_x step": (lambda v: TRACE.recompute_x(0, v), 0, 6,
                         RangeError),
    "exact_level_distribution m": (
        lambda v: exact_level_distribution(LT, v, 0.4, 2), 1, None,
        RangeError),
    "exact_level_distribution levels": (
        lambda v: exact_level_distribution(LT, 4, 0.4, v), 1, None,
        RangeError),
    "learn_threshold levels": (lambda v: learn_threshold(v, 8, PROBE, 1),
                               1, None, InputShapeError),
    "learn_threshold width": (lambda v: learn_threshold(2, v, PROBE, 1),
                              1, None, InputShapeError),
    "learn_threshold seed": (lambda v: learn_threshold(2, 8, PROBE, v),
                             None, None, RangeError),
    "evaluate_learned sample": (
        lambda v: evaluate_learned(TREE, PROBE, sample=v), 1, 8, RangeError),
    # An n below the largest level-1 index + 1 is refused for the wiring.
    "LearnedTree n": (lambda v: LearnedTree(**{**FIELDS, "n": v}),
                      int(TREE.wiring[0].max()) + 1, None, InputShapeError),
    "LearnedTree example_ones": (
        lambda v: LearnedTree(**{**FIELDS, "example_ones": v}), 0, 4,
        InputShapeError),
    "LearnedTree seed": (lambda v: LearnedTree(**{**FIELDS, "seed": v}),
                         None, None, InputShapeError),
    "profile max_levels": (lambda v: profile(LT, 0.4, max_levels=v), 1,
                           None, RangeError),
    "and_chain k": (and_chain, 1, None, InputShapeError),
    "or_chain k": (or_chain, 1, None, InputShapeError),
    "build_ak k": (build_ak, 1, None, InputShapeError),
    "build_bk k": (build_bk, 1, None, InputShapeError),
    "self_compose k": (lambda v: self_compose(build_ak(2), v), 1, None,
                       InputShapeError),
    "all_trees leaves": (all_trees, 1, 8, InputShapeError),
    "iterate_point k": (lambda v: iterate_point(LT.evaluate, 0.4, v), 0,
                        None, DegenerateInputError),
    "soft_threshold k": (soft_threshold, 4, None, RangeError),
    "ak_fixed_point k": (ak_fixed_point, 2, None, RangeError),
    "enumerate_achievable max_degree": (enumerate_achievable, 1, 7,
                                        CapacityError),
    "amplifier max_leaves": (
        capped(lambda v: amplifier(build_ak(2), 0.1, 0.1, max_leaves=v)), 1,
        None, RangeError),
    "dense_fixed_point max_leaves": (
        capped(lambda v: dense_fixed_point(0.7, 1e-6, max_leaves=v)), 1,
        None, RangeError),
}

#: A value past hi that raises another error than one below lo: a cap.
ABOVE = {"all_trees leaves": CapacityError}

SMALL = st.integers(-3, 12)
#: Integers past 2^62, drawn only where they are refused or, for seeds,
#: cheap: a width of 2^63 would be taken and run.
HUGE = (st.integers(2 ** 62, 2 ** 70)
        | st.integers(2 ** 63, 2 ** 64 - 1).map(np.uint64))
NOT_INTS = (st.booleans() | st.just(np.bool_(True)) | st.none()
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from(["3", Fraction(6, 2), 3 + 0j]))


def values(huge: bool):
    """Integers in and out of range, numpy's too, and values that are not
    integers; with ``huge``, positive integers past 2^62."""
    ints = (SMALL | SMALL.map(np.int64) | SMALL.map(np.int8)
            | st.integers(0, 12).map(np.uint64)
            | st.integers(-2 ** 70, -2 ** 62)
            | st.integers(-2 ** 63, -2 ** 62).map(np.int64))
    return (ints | HUGE if huge else ints) | NOT_INTS


@pytest.mark.parametrize("name", PARAMS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_int_parameter_returns_or_raises_its_error(name, data):
    # Run with warnings as errors (pyproject), so a numpy overflow warning
    # fails too.
    call, lo, hi, error = PARAMS[name]
    value = data.draw(values(huge=hi is not None or lo is None))
    valid = (value is None and name == "evaluate_learned sample") or (
        isinstance(value, Integral) and not isinstance(value, bool)
        and (lo is None or value >= lo) and (hi is None or value <= hi))
    if valid:
        call(value)
    else:
        if isinstance(value, Integral) and hi is not None and value > hi:
            error = ABOVE.get(name, error)
        with pytest.raises(error):
            call(value)


@pytest.mark.parametrize("call, error", [
    (lambda: LevelConfig(**{**LEVELED, "widths": (2.7, 3)}), InputShapeError),
    (lambda: StreamConfig(**{**STREAM, "k": 2.5}), InputShapeError),
    (lambda: StreamConfig(**{**STREAM, "trials": 2.5}), InputShapeError),
    (lambda: LevelConfig(**{**LEVELED, "trials": 2.5}), InputShapeError),
    (lambda: StreamConfig(**{**STREAM, "trials": True}), InputShapeError),
    (lambda: LevelConfig(**{**LEVELED, "trials": True}), InputShapeError),
    (lambda: exact_level_distribution(LT, 2.5, 0.4, 2), RangeError),
    (lambda: learn_threshold(2.0, 8, PROBE, 1), InputShapeError),
    (lambda: profile(LT, 0.4, max_levels=2.5), RangeError),
    (lambda: build_ak(True), InputShapeError),
    (lambda: soft_threshold(4.5), RangeError),
    (lambda: iterate_point(LT.evaluate, 0.4, 2.5), DegenerateInputError),
    (lambda: ak_fixed_point(3.5), RangeError),
    (lambda: ak_fixed_point(2.0), RangeError),
    (lambda: amplifier(build_ak(2), 0.1, 0.1, max_leaves="a"), RangeError),
    (lambda: dense_fixed_point(0.7, 1e-6, max_leaves=True), RangeError),
], ids=["widths-2.7", "stream-k-2.5", "stream-trials-2.5",
        "leveled-trials-2.5", "stream-trials-True", "leveled-trials-True",
        "exact-m-2.5", "learn-levels-2.0", "profile-max_levels-2.5",
        "build_ak-True", "soft_threshold-4.5", "iterate_point-k-2.5",
        "ak_fixed_point-3.5", "ak_fixed_point-2.0", "amplifier-max_leaves-a",
        "dense-max_leaves-True"])
def test_probes_that_once_ran_or_raised_a_bare_error(call, error):
    with pytest.raises(error):
        call()


def csv(trace) -> str:
    out = io.StringIO()
    trace.write_csv(out)
    return out.getvalue()


def test_numpy_seeds_run_as_their_ints():
    for run in (run_leveled, run_stream):
        trace = run(seed=np.int64(5))
        assert type(trace.config.seed) is int
        assert csv(trace) == csv(run(seed=5))
    tree = learn_threshold(2, 8, PROBE, np.uint64(2 ** 63))
    assert type(tree.seed) is int
    assert tree.to_json() == learn_threshold(2, 8, PROBE, 2 ** 63).to_json()


def test_seeds_are_taken_mod_2_64():
    for run in (run_leveled, run_stream):
        assert csv(run(seed=-1)) == csv(run(seed=2 ** 64 - 1))
    a = learn_threshold(2, 8, PROBE, -3)
    b = learn_threshold(2, 8, PROBE, 2 ** 64 - 3)
    for u, v in zip(a.blocks + a.wiring, b.blocks + b.wiring):
        assert np.array_equal(u, v)
