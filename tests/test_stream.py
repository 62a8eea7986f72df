"""Wild and exponential streaming constructions."""
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amptree import stream
from amptree.catalog import linear_threshold, quad4, soft_threshold, valiant
from amptree.errors import InputShapeError, RangeError
from amptree.stream import (StreamConfig, phase_progress_report,
                            recorded_steps, simulate_stream)

LT = linear_threshold(0.5)


def test_config_validation():
    with pytest.raises(InputShapeError):
        StreamConfig(n=0, k=5, alpha=0.0, seed=1, input_p=0.5)
    with pytest.raises(InputShapeError):
        StreamConfig(n=5, k=-1, alpha=0.0, seed=1, input_p=0.5)
    for alpha in (-0.1, math.nan, math.inf, 710.0):
        with pytest.raises(RangeError):
            StreamConfig(n=5, k=5, alpha=alpha, seed=1, input_p=0.5)
    with pytest.raises(InputShapeError):
        StreamConfig(n=5, k=5, alpha=0.0, seed=1)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), created=st.integers(0, 80),
       alpha=st.floats(0.0, 709.78), ulps=st.integers(1, 4))
def test_leaf_draw_never_picks_a_zero_weight_slot(n, created, alpha, ulps):
    # The reference engine's weights after `created` steps; a weight whose
    # alpha * age passes about 745 underflows to 0.  Draws u * total with
    # u within a few ulps of 1 sit at the right edge, where rounding in
    # the cumulative sum matters most.
    decay = np.exp(-alpha * np.arange(created + 1))
    weights = stream._weights(decay, n, created)
    u = np.array([1.0 - ulps * 2.0 ** -53])
    idx = stream._draw_leaves(weights, u)
    assert weights[idx[0]] > 0.0


def test_recorded_steps_contains_doublings_and_strides():
    steps = recorded_steps(10, 200, 0.0)
    assert 0 in steps and 200 in steps
    assert 10 in steps and 30 in steps and 70 in steps and 150 in steps
    steps_exp = recorded_steps(10, 100, 0.1)
    assert all(s in steps_exp for s in range(10, 101, 10))


def test_determinism_and_batch_independence():
    cfg = StreamConfig(n=20, k=500, alpha=0.0, seed=17, trials=8, input_p=0.4)
    a = simulate_stream(LT, cfg)
    b = simulate_stream(LT, cfg)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.final_bits, b.final_bits)
    wider = simulate_stream(
        LT, StreamConfig(n=20, k=500, alpha=0.0, seed=17, trials=3,
                         input_p=0.4))
    assert np.array_equal(wider.x, a.x[:3])


def test_k_zero_reports_input_fraction():
    bits = (1,) * 13 + (0,) * 19
    cfg = StreamConfig(n=32, k=0, alpha=0.0, seed=5, trials=3,
                       input_bits=bits)
    trace = simulate_stream(LT, cfg)
    assert trace.x.shape == (3, 1)
    assert np.all(trace.x == 13 / 32)
    assert trace.final_bits is None


def test_ledger_matches_scratch_recomputation():
    # X recomputed from scratch (full weight sum over the raw bits) agrees
    # with the X carried from recorded step to recorded step
    for alpha in (0.0, 0.01):
        cfg = StreamConfig(n=40, k=20_000, alpha=alpha, seed=3, trials=2,
                           input_p=0.45)
        trace = simulate_stream(LT, cfg, keep_bits=True)
        for trial in range(2):
            for idx, step in enumerate(trace.steps):
                scratch = trace.recompute_x(trial, int(step))
                assert abs(scratch - trace.x[trial, idx]) <= 1e-9
    # and the two engines agree on the same draws
    cfg = StreamConfig(n=40, k=2000, alpha=0.01, seed=3, trials=2,
                       input_p=0.45)
    vec = simulate_stream(LT, cfg)
    ref = simulate_stream(LT, cfg, engine="prefix_tree")
    assert np.allclose(vec.x[:, -1], ref.x[:, -1], atol=1e-9)


@pytest.mark.parametrize("n, k, alpha", [(16, 1000, 5.0), (32, 2000, 2.5)])
def test_recompute_x_agrees_past_renormalization(n, k, alpha):
    # alpha*k = 5000: e^(alpha*step) overflows, weights relative to the
    # step do not
    cfg = StreamConfig(n=n, k=k, alpha=alpha, seed=4, trials=2, input_p=0.5)
    trace = simulate_stream(LT, cfg, keep_bits=True)
    for trial in range(2):
        for idx, step in enumerate(trace.steps):
            scratch = trace.recompute_x(trial, int(step))
            assert abs(scratch - trace.x[trial, idx]) <= 1e-9


def test_recompute_x_refuses_a_step_outside_the_run():
    cfg = StreamConfig(n=8, k=20, alpha=0.0, seed=4, trials=2, input_p=0.5)
    trace = simulate_stream(LT, cfg, keep_bits=True)
    for step in (-1, 21, 25):
        with pytest.raises(RangeError):
            trace.recompute_x(0, step)
    assert trace.recompute_x(1, 20) == trace.x[1, -1]
    for trial, step in ((-1, 20), (2, 20), (0, 2.5), (True, 3)):
        with pytest.raises(RangeError):
            trace.recompute_x(trial, step)


def test_subnormal_alpha_strides_past_k():
    # 1/alpha overflows to inf; the stride is capped at k + 1, so it marks
    # nothing and no phase ends
    alpha = 5e-324
    assert np.array_equal(recorded_steps(8, 20, alpha),
                          recorded_steps(8, 20, 0.0))
    trace = simulate_stream(LT, StreamConfig(n=8, k=20, alpha=alpha, seed=1,
                                             trials=2, input_p=0.5))
    assert phase_progress_report(trace, 0.5).rows == ()


def test_engines_agree_exactly_on_wild():
    cfg = StreamConfig(n=16, k=300, alpha=0.0, seed=23, trials=5, input_p=0.4)
    vec = simulate_stream(LT, cfg)
    ref = simulate_stream(LT, cfg, engine="prefix_tree")
    assert np.array_equal(vec.final_bits, ref.final_bits)
    assert np.allclose(vec.x, ref.x, atol=1e-12)


@pytest.mark.parametrize("n, k, alpha", [(24, 720, 1.0), (8, 200, 5.0)])
def test_default_engine_renormalizes_past_600(monkeypatch, n, k, alpha):
    # alpha * k = 720 and 1000: the oldest weights are subnormal or 0, and
    # the default engine never reaches the prefix-tree reference, yet
    # agrees with it
    cfg = StreamConfig(n=n, k=k, alpha=alpha, seed=2, trials=3, input_p=0.5)
    ref = simulate_stream(LT, cfg, engine="prefix_tree")

    def refuse(*args):
        raise AssertionError("a default call reached the prefix engine")

    monkeypatch.setattr(stream, "_simulate_prefix", refuse)
    trace = simulate_stream(LT, cfg)
    assert np.array_equal(trace.final_bits, ref.final_bits)
    assert np.allclose(trace.x, ref.x, rtol=0.0, atol=1e-9)
    assert np.all((trace.x >= 0) & (trace.x <= 1.0))


def test_x_never_exceeds_one():
    # dividing by the closed-form ledger total instead of a total summed
    # like the firing weight gives X = 1 + 5.5e-14 on this run
    cfg = StreamConfig(n=600, k=8000, alpha=0.07, seed=77, trials=20,
                       input_p=0.9)
    assert simulate_stream(LT, cfg).x.max() <= 1.0


def test_long_x_windows_keep_memory_bounded():
    # At alpha = 1e-5 X is recorded at the pool doublings only, so its
    # windows run up to 10,000 steps; at alpha = 0.01 every 100 steps.
    # Weighing a whole window at once doubles the traced peak.
    peaks = []
    for alpha in (1e-5, 0.01):
        cfg = StreamConfig(n=16, k=20_000, alpha=alpha, seed=3, trials=64,
                           input_p=0.45)
        tracemalloc.start()
        try:
            simulate_stream(LT, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.3 * peaks[1]


@pytest.mark.parametrize("alpha", [0.0, 0.01, 1.0, 5.0])
def test_x_is_one_when_every_item_fires(alpha):
    cfg = StreamConfig(n=16, k=700, alpha=alpha, seed=3, trials=2,
                       input_bits=(1,) * 16)
    trace = simulate_stream(LT, cfg)
    assert trace.final_bits.tolist() == [1, 1]
    assert np.all(trace.x == 1.0)


@pytest.mark.parametrize("alpha", [0.0, 0.01, 5.0])    # 5.0: d underflows
@pytest.mark.parametrize("inputs", ["p", "bits"])
def test_chunks_and_batches_do_not_change_a_run(monkeypatch, alpha, inputs):
    k, trials = 200, 5
    for n in (12, 2):                   # n = 2: long chains in a chunk
        given = ({"input_p": 0.45} if inputs == "p" else
                 {"input_bits": tuple(int(i % 3 == 0) for i in range(n))})
        cfg = StreamConfig(n=n, k=k, alpha=alpha, seed=31, trials=trials,
                           **given)
        monkeypatch.undo()
        ref = simulate_stream(LT, cfg, keep_bits=True)
        cols, steps = 1 + LT.max_leaf_count, recorded_steps(n, k, alpha)
        for chunk in (1, 7, 64):
            for per_batch in (trials, 2, 1):
                monkeypatch.setattr(stream, "_STEP_CHUNK", chunk)
                run, per_trial = stream._batch_bytes(n, k, cols, steps)
                monkeypatch.setattr(stream, "_BATCH_BUDGET",
                                    run + per_batch * per_trial)
                trace = simulate_stream(LT, cfg, keep_bits=True)
                assert np.array_equal(trace.x, ref.x), (n, chunk, per_batch)
                assert np.array_equal(trace.final_bits, ref.final_bits)
                assert np.array_equal(trace.bits, ref.bits)


STREAM_DISTS = {"linear": LT, "quad4": quad4(0.5), "valiant": valiant(),
                "soft6": soft_threshold(6)}


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(STREAM_DISTS)), n=st.integers(1, 6),
       k=st.integers(0, 3 * stream._STEP_CHUNK + 5),
       alpha=st.sampled_from([0.0, 1e-3, 0.3, 5.0]),    # 5.0: d underflows
       trials=st.integers(1, 4), p=st.sampled_from([0.2, 0.5, 0.8]),
       seed=st.integers(0, 2**32 - 1))
def test_settled_chunks_match_the_reference_engine(name, n, k, alpha, trials,
                                                   p, seed):
    # Every item the default engine settles inside a chunk must fire as the
    # reference engine's one-item-at-a-time run says; with n <= 6, most
    # leaves land inside their own chunk.
    dist = STREAM_DISTS[name]
    cfg = StreamConfig(n=n, k=k, alpha=alpha, seed=seed, trials=trials,
                       input_p=p)
    trace = simulate_stream(dist, cfg, keep_bits=True)
    ref = simulate_stream(dist, cfg, engine="prefix_tree", keep_bits=True)
    assert np.array_equal(trace.bits, ref.bits)
    assert np.array_equal(trace.final_bits, ref.final_bits)
    assert np.allclose(trace.x, ref.x, rtol=0.0, atol=1e-9)
    assert trace.x.max() <= 1.0
    for trial in range(trials):
        for col, step in enumerate(trace.steps):
            assert abs(trace.recompute_x(trial, int(step))
                       - trace.x[trial, col]) <= 1e-9


@pytest.mark.parametrize("name, n, k, alpha, trials", [
    ("linear", 16, 20_000, 1e-5, 64),
    ("linear", 16, 20_000, 0.0, 64),
    ("linear", 16, 20_000, 1.0, 64),     # X recorded at every step
    ("soft6", 3, 5_000, 0.3, 50),        # 12 leaves, most inside the chunk
])
def test_one_batch_peak_is_within_its_predicted_bytes(name, n, k, alpha,
                                                      trials):
    # The batch budget counts every buffer a run holds: its traced peak is
    # at most the predicted bytes plus 64 KB for small Python objects.
    dist = STREAM_DISTS[name]
    run, per_trial = stream._batch_bytes(n, k, 1 + dist.max_leaf_count,
                                         recorded_steps(n, k, alpha))
    assert trials * per_trial + run < stream._BATCH_BUDGET   # one batch
    cfg = StreamConfig(n=n, k=k, alpha=alpha, seed=3, trials=trials,
                       input_p=0.45)
    simulate_stream(dist, StreamConfig(n=4, k=300, alpha=alpha, seed=1,
                                       trials=2, input_p=0.5))   # warm up
    tracemalloc.start()
    try:
        simulate_stream(dist, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= trials * per_trial + run + 64 * 1024


@pytest.mark.parametrize("name", ["linear", "quad4"])
@pytest.mark.parametrize("alpha", [300.0, 650.0, 709.78])
def test_engines_agree_at_high_alpha(name, alpha):
    # Every weight but the newest few underflows here, in the table that
    # both engines read.
    for n, k in ((1, 60), (16, 300)):
        cfg = StreamConfig(n=n, k=k, alpha=alpha, seed=5, trials=3,
                           input_p=0.45)
        trace = simulate_stream(STREAM_DISTS[name], cfg, keep_bits=True)
        ref = simulate_stream(STREAM_DISTS[name], cfg, engine="prefix_tree",
                              keep_bits=True)
        assert np.array_equal(trace.bits, ref.bits)
        assert np.allclose(trace.x, ref.x, rtol=0.0, atol=1e-9)


def test_csv_format():
    cfg = StreamConfig(n=8, k=20, alpha=0.0, seed=4, trials=2, input_p=0.5)
    trace = simulate_stream(LT, cfg)
    buf = io.StringIO()
    trace.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "trial,step,x"
    assert len(lines) == 1 + 2 * len(trace.steps)


def test_accuracy_nondecreasing_in_k():
    # longer streams are at least as accurate (statistically, 3 sigma)
    n = 32
    bits = (1,) * 12 + (0,) * 20          # 0.375
    rates = []
    for k in (400, 3200, 25600):
        cfg = StreamConfig(n=n, k=k, alpha=0.0, seed=9, trials=300,
                           input_bits=bits)
        trace = simulate_stream(LT, cfg)
        rates.append(1.0 - trace.final_bits.mean())
    se = math.sqrt(0.25 / 300)
    assert rates[1] >= rates[0] - 3 * se
    assert rates[2] >= rates[1] - 3 * se


def test_phase_progress_wild():
    n = 64
    bits = (1,) * 25 + (0,) * 39
    cfg = StreamConfig(n=n, k=8000, alpha=0.0, seed=13, trials=200,
                       input_bits=bits)
    trace = simulate_stream(LT, cfg)
    report = phase_progress_report(trace, 0.5)
    assert len(report.rows) >= 5
    assert report.all_ok
    means = [r.mean_start for r in report.rows]
    assert all(b <= a for a, b in zip(means, means[1:]))


def test_phase_progress_exponential_decays():
    cfg = StreamConfig(n=600, k=6000, alpha=0.002, seed=13, trials=100,
                       input_bits=(1,) * 240 + (0,) * 360)
    trace = simulate_stream(LT, cfg)
    report = phase_progress_report(trace, 0.5)
    means = [r.mean_start for r in report.rows] + [report.rows[-1].mean_end]
    assert all(b < a for a, b in zip(means, means[1:]))


def test_trace_at_fixed_point_has_no_drift():
    n = 64
    bits = (1,) * 32 + (0,) * 32           # exactly at t = 0.5
    cfg = StreamConfig(n=n, k=4000, alpha=0.0, seed=8, trials=400,
                       input_bits=bits)
    trace = simulate_stream(LT, cfg)
    drift = trace.x[:, -1].mean() - 0.5
    se = trace.x[:, -1].std(ddof=1) / math.sqrt(400)
    assert abs(drift) <= 4 * se


def test_quad4_stream_converges_linearly():
    from amptree.dynamics import LINEAR, order_estimate
    bits = (1,) * 25 + (0,) * 39
    cfg = StreamConfig(n=64, k=40000, alpha=0.0, seed=7, trials=200,
                       input_bits=bits)
    trace = simulate_stream(quad4(0.5), cfg)
    errors = list(trace.x.mean(axis=0))
    assert order_estimate(errors, upper=0.3) == LINEAR
