"""Every real-valued parameter of the public API: a finite real number (a
numpy float or integer too, not a bool) in its range gives the same result
as its float, and anything else raises the parameter's AmptreeError."""
import io
import math
import sys
from decimal import Decimal
from fractions import Fraction
from numbers import Real

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amptree.catalog import (StaircaseSpec, amplifier, dense_fixed_point,
                             linear_threshold, one_step, quad4, quad5, quad6,
                             quad7, quad_k)
from amptree.dynamics import certified_corridor, profile, verify_conditions
from amptree.errors import (AmptreeError, InputShapeError,
                            InvalidStaircaseError, RangeError, WeightError)
from amptree.leveled import (LevelConfig, exact_level_distribution,
                             simulate_leveled, width_scaling_experiment)
from amptree.polyalg import check_weights, divergence_ratio, iterate_point
from amptree.stream import (StreamConfig, phase_progress_report,
                            simulate_stream)
from amptree.trees import activation, build_ak

LT = linear_threshold(0.5)
Q4 = quad4(0.5)
A2 = build_ak(2)
LEVELED = dict(widths=(3, 2), n=4, seed=1, trials=2, input_p=0.5)
STREAM = dict(n=4, k=5, alpha=0.5, seed=1, trials=2, input_p=0.5)
MAX_ALPHA = math.log(sys.float_info.max)
TRACE = simulate_stream(LT, StreamConfig(**{**STREAM, "k": 12}))


def csv(trace) -> str:
    out = io.StringIO()
    trace.write_csv(out)
    return out.getvalue()


def leveled(**kw):
    return csv(simulate_leveled(LT, LevelConfig(**{**LEVELED, **kw})))


def streamed(**kw):
    return csv(simulate_stream(LT, StreamConfig(**{**STREAM, **kw})))


def dist(build):
    """``build(v)`` as comparable values: trees by their text form."""
    def call(v):
        d = build(v)
        return d.to_json(), d.threshold, d.corridor
    return call


def tree_key(tree):
    return tree.leaf_count, activation(tree, 0.3), activation(tree, 0.7)


def staircase(**kw):
    return StaircaseSpec(**{**dict(breakpoints=(0.3, 0.7), heights=(0.5,),
                                   epsilon=0.1, delta=0.1), **kw})


#: name: (call with the value, lo, hi, ends, error); ends marks each end of
#: [lo, hi] open "(" ")" or closed "[" "]".
PARAMS = {
    "LevelConfig input_p": (lambda v: leveled(input_p=v), 0, 1, "[]",
                            RangeError),
    "StreamConfig input_p": (lambda v: streamed(input_p=v), 0, 1, "[]",
                             RangeError),
    "StreamConfig alpha": (lambda v: streamed(alpha=v), 0, MAX_ALPHA, "[]",
                           RangeError),
    "linear_threshold t": (dist(linear_threshold), 0, 1, "()", RangeError),
    "quad4 t": (dist(quad4), 0, 1, "()", RangeError),
    "quad5 t": (dist(quad5), 0, 1, "()", RangeError),
    "quad6 t": (dist(quad6), 0, 1, "()", RangeError),
    "quad7 t": (dist(quad7), 0, 1, "()", RangeError),
    "quad_k t": (dist(quad_k), 0, 1, "()", RangeError),
    "one_step alpha": (dist(one_step), 1 / 3, 2 / 3, "()", RangeError),
    "amplifier delta": (lambda v: amplifier(A2, v, 0.1)[1:], 0, 1, "()",
                        RangeError),
    "amplifier epsilon": (lambda v: amplifier(A2, 0.1, v)[1:], 0, 1, "()",
                          RangeError),
    "dense_fixed_point target": (
        lambda v: tree_key(dense_fixed_point(v, 0.05)), 0, 1, "()",
        RangeError),
    "dense_fixed_point epsilon": (
        lambda v: tree_key(dense_fixed_point(0.7, v)), 0, math.inf, "()",
        RangeError),
    "StaircaseSpec epsilon": (lambda v: staircase(epsilon=v), 0, 0.3, "()",
                              InvalidStaircaseError),
    "StaircaseSpec delta": (lambda v: staircase(delta=v), 0, 1, "()",
                            InvalidStaircaseError),
    "StaircaseSpec breakpoints": (
        lambda v: staircase(breakpoints=(v,), heights=(), epsilon=1e-9),
        0, 1, "()", InvalidStaircaseError),
    "StaircaseSpec heights": (lambda v: staircase(heights=(v,)), 0, 1, "()",
                              InvalidStaircaseError),
    "check_weights entry": (lambda v: check_weights((0.5, v)), 0, math.inf,
                            "[)", WeightError),
    "profile p": (lambda v: profile(LT, v), 0, 1, "[]", RangeError),
    "iterate_point p": (lambda v: iterate_point(Q4.evaluate, v, 3), 0, 1,
                        "[]", RangeError),
    "certified_corridor t": (lambda v: certified_corridor(Q4.evaluate, v),
                             0, 1, "()", RangeError),
    "exact_level_distribution p": (
        lambda v: exact_level_distribution(LT, 4, v, 2)[1].tolist(), 0, 1,
        "[]", RangeError),
    "verify_conditions t": (lambda v: verify_conditions(Q4, v, 0.2, 0.8),
                            0, 1, "()", RangeError),
    "verify_conditions u": (lambda v: verify_conditions(Q4, 0.5, v, 0.8),
                            0, 1, "()", RangeError),
    "verify_conditions v": (lambda v: verify_conditions(Q4, 0.5, 0.2, v),
                            0, 1, "()", RangeError),
    "verify_conditions margin": (
        lambda v: verify_conditions(Q4, 0.5, 0.2, 0.8, margin=v), 0,
        math.inf, "()", RangeError),
    # Loose accuracies keep the widths, and so the exact chains, small.
    "width_scaling_experiment gammas": (
        lambda v: width_scaling_experiment(Q4, (0.2, v), (0.4,)), 0, 1,
        "()", RangeError),
    "width_scaling_experiment epsilons": (
        lambda v: width_scaling_experiment(Q4, (0.9,), (0.4, v)), 0,
        0.5, "(]", RangeError),
    "phase_progress_report t": (lambda v: phase_progress_report(TRACE, v),
                                0, 1, "()", RangeError),
    # Only t = 0.5 divides out; any other t is a remainder's refusal.
    "divergence_ratio t": (lambda v: divergence_ratio(LT.mixture, v), 0, 1,
                           "()", RangeError),
}

NOT_REALS = (st.booleans() | st.just(np.bool_(True)) | st.none()
             | st.sampled_from(["0.5", 0.5 + 0j, Decimal("0.5"), (0.5,)]))


def values(lo: float, hi: float):
    """Finite floats near and in [lo, hi] as Python, numpy and Fraction
    values, small and huge integers, NaN, +-inf, and values that are not
    real numbers."""
    near = st.floats(max(lo, -1e6) - 1, min(hi, 1e6) + 1)
    return (st.floats(allow_nan=True, allow_infinity=True) | near
            | near.map(np.float64) | near.map(np.float32)
            | near.map(Fraction) | st.integers(-3, 3)
            | st.integers(-3, 3).map(np.int64)
            | st.sampled_from([10 ** 400, -10 ** 400, Fraction(10 ** 400)])
            | NOT_REALS)


def in_range(value, lo, hi, ends) -> bool:
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        x = float(value)
    except OverflowError:
        return False
    return (math.isfinite(x) and (lo < x if ends[0] == "(" else lo <= x)
            and (x < hi if ends[1] == ")" else x <= hi))


def outcome(call, value):
    """``call(value)``, or the class of the AmptreeError it raises."""
    try:
        return call(value)
    except AmptreeError as exc:
        return type(exc)


@pytest.mark.parametrize("name", PARAMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_real_parameter_returns_or_raises_its_error(name, data):
    # Run with warnings as errors (pyproject), so a numpy warning fails too.
    call, lo, hi, ends, error = PARAMS[name]
    value = data.draw(values(lo, hi))
    if in_range(value, lo, hi, ends):
        assert outcome(call, value) == outcome(call, float(value))
    else:
        # None input_p leaves both inputs unset.
        if value is None and name.endswith("input_p"):
            error = InputShapeError
        with pytest.raises(error):
            call(value)


@pytest.mark.parametrize("call, error", [
    (lambda: LevelConfig(**{**LEVELED, "input_p": True}), RangeError),
    (lambda: StreamConfig(**{**STREAM, "alpha": True}), RangeError),
    (lambda: dense_fixed_point(0.7, math.nan), RangeError),
    (lambda: dense_fixed_point(0.7, math.inf), RangeError),
    (lambda: linear_threshold("a"), RangeError),
    (lambda: exact_level_distribution(LT, 4, "a", 2), RangeError),
    (lambda: verify_conditions(LT, 0.5, "a", 0.8), RangeError),
    (lambda: profile(LT, "a"), RangeError),
    (lambda: StreamConfig(**{**STREAM, "alpha": "a"}), RangeError),
], ids=["leveled-input_p-True", "stream-alpha-True", "dense-epsilon-nan",
        "dense-epsilon-inf", "linear-t-str", "exact-p-str",
        "verify-u-str", "profile-p-str", "stream-alpha-str"])
def test_probes_that_once_ran_or_raised_a_bare_error(call, error):
    with pytest.raises(error):
        call()


def test_reals_are_stored_as_floats():
    for config in (LevelConfig(**{**LEVELED, "input_p": 1}),
                   StreamConfig(**{**STREAM, "input_p": np.float32(0.5),
                                   "alpha": Fraction(1, 2)})):
        assert type(config.input_p) is float
    assert type(StreamConfig(**{**STREAM, "alpha": 1}).alpha) is float
    spec = staircase(epsilon=np.float64(0.1), delta=Fraction(1, 10))
    assert type(spec.epsilon) is float and type(spec.delta) is float
