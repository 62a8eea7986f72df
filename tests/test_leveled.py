"""Finite-width leveled simulation and the exact transition matrix."""
import io
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import amptree
from amptree import leveled
from amptree.catalog import linear_threshold, quad4, soft_threshold, valiant
from amptree.errors import (CapacityError, DegenerateInputError,
                            InputShapeError, RangeError)
from amptree.leveled import (LevelConfig, exact_level_distribution,
                             simulate_leveled, width_scaling_experiment)
from amptree.stream import StreamConfig, simulate_stream

from _oracles import binom_pmf, binomial_rows_reference, leveled_reference


def test_config_validation():
    with pytest.raises(InputShapeError):
        LevelConfig(widths=(), n=5, seed=1, input_p=0.5)
    with pytest.raises(InputShapeError, match="widths .* got 5"):
        LevelConfig(widths=5, n=5, seed=1, input_p=0.5)
    with pytest.raises(InputShapeError):
        LevelConfig(widths=(0, 3), n=5, seed=1, input_p=0.5)
    with pytest.raises(InputShapeError):
        LevelConfig(widths=(3,), n=5, seed=1)                 # no input
    with pytest.raises(InputShapeError):
        LevelConfig(widths=(3,), n=5, seed=1, input_p=0.5,
                    input_bits=(1, 0, 1, 0, 1))               # both inputs
    with pytest.raises(InputShapeError):
        LevelConfig(widths=(3,), n=5, seed=1, input_bits=(1, 0))
    with pytest.raises(RangeError):
        LevelConfig(widths=(3,), n=5, seed=1, input_p=1.5)
    for gammas, epsilons in (((), (0.1,)), ((0.1,), ()),
                             ((2.0,), (0.1,)), ((0.1,), (0,)),
                             ((0.1,), (0.6,)),
                             ((0.3,), (0.2,)),
                             ((0.3, 0.3), (0.2,)),
                             ((0.1, 0.2), (1e-200,)),
                             ((5e-324, 0.2), (0.1,))):
        with pytest.raises(RangeError):     # before any width is searched
            width_scaling_experiment(quad4(0.5), gammas, epsilons)


def test_width_scaling_needs_the_construction_threshold(monkeypatch):
    def no_search(*args):
        raise AssertionError("a width was searched")

    monkeypatch.setattr(leveled, "exact_level_distribution", no_search)
    with pytest.raises(DegenerateInputError, match="no threshold"):
        width_scaling_experiment(soft_threshold(6), (0.2, 0.1), (0.1,))


def test_trace_determinism():
    cfg = LevelConfig(widths=(40,) * 8, n=30, seed=77, trials=6, input_p=0.4)
    a = simulate_leveled(linear_threshold(0.5), cfg)
    b = simulate_leveled(linear_threshold(0.5), cfg)
    assert np.array_equal(a.fractions, b.fractions)
    assert np.array_equal(a.final_items, b.final_items)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    a.write_csv(buf_a)
    b.write_csv(buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_trials_are_independent_of_trial_count():
    base = dict(widths=(16,) * 4, n=12, seed=5, input_p=0.5)
    small = simulate_leveled(valiant(), LevelConfig(trials=3, **base))
    large = simulate_leveled(valiant(), LevelConfig(trials=7, **base))
    assert np.array_equal(small.fractions, large.fractions[:3])


@pytest.mark.parametrize("dist", [quad4(0.5), linear_threshold(0.45),
                                  valiant()], ids=lambda d: d.label)
@pytest.mark.parametrize("inputs", ["p", "bits"])
def test_batches_do_not_change_a_run(monkeypatch, dist, inputs):
    n, widths, trials = 200, (5, 300, 17), 7
    given = ({"input_p": 0.45} if inputs == "p"
             else {"input_bits": tuple(int(i % 3 == 0) for i in range(n))})
    cfg = LevelConfig(widths=widths, n=n, seed=13, trials=trials, **given)
    ref = simulate_leveled(dist, cfg)
    per_trial = 8 * n + 16 * (1 + dist.max_leaf_count) * max(widths)
    for per_batch in (1, 3, trials):
        monkeypatch.setattr(leveled, "_BATCH_BUDGET", per_batch * per_trial)
        trace = simulate_leveled(dist, cfg)
        assert np.array_equal(trace.fractions, ref.fractions), per_batch
        assert np.array_equal(trace.final_items, ref.final_items)


@pytest.mark.parametrize("dist", [quad4(0.5), linear_threshold(0.45),
                                  valiant()], ids=lambda d: d.label)
@pytest.mark.parametrize("inputs", ["p", "bits"])
@pytest.mark.parametrize("widths", [(5, 300, 17), (1, 6, 1)])
def test_trials_draw_from_their_generator_in_order(dist, inputs, widths):
    n, trials = 200, 7
    given = ({"input_p": 0.45} if inputs == "p"
             else {"input_bits": tuple(int(i % 3 == 0) for i in range(n))})
    cfg = LevelConfig(widths=widths, n=n, seed=13, trials=trials, **given)
    trace = simulate_leveled(dist, cfg)
    fractions, final_items = leveled_reference(dist, cfg)
    assert trace.fractions.tolist() == fractions
    assert trace.final_items.tolist() == final_items
    # One seeding rule: a stream run with the same seed draws the same
    # inputs for each trial.
    stream = simulate_stream(dist, StreamConfig(n=n, k=1, alpha=0.0, seed=13,
                                                trials=trials, **given),
                             keep_bits=True)
    assert trace.fractions[:, 0].tolist() == stream.bits[:, :n].mean(
        axis=1).tolist()


def test_all_ones_input_fires():
    cfg = LevelConfig(widths=(1,), n=4, seed=1, trials=10,
                      input_bits=(1, 1, 1, 1))
    trace = simulate_leveled(valiant(), cfg)
    assert trace.fractions[:, -1].min() == 1.0
    assert trace.final_items.min() == 1


def test_fractions_are_multiples_of_width():
    cfg = LevelConfig(widths=(7, 13), n=9, seed=3, trials=8, input_p=0.6)
    trace = simulate_leveled(linear_threshold(0.4), cfg)
    for trial in range(8):
        assert (trace.fractions[trial, 1] * 7) == pytest.approx(
            round(trace.fractions[trial, 1] * 7))
        assert (trace.fractions[trial, 2] * 13) == pytest.approx(
            round(trace.fractions[trial, 2] * 13))


def test_csv_format():
    cfg = LevelConfig(widths=(3,), n=4, seed=9, trials=2, input_p=0.5)
    trace = simulate_leveled(valiant(), cfg)
    buf = io.StringIO()
    trace.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "trial,level,fraction"
    assert len(lines) == 1 + 2 * 2


def test_rejects_oversized_blocks():
    from amptree.catalog import dense_fixed_point, TreeDistribution
    big = dense_fixed_point(0.55, 0.02)
    dist = TreeDistribution("big", ((big, 1.0),))
    with pytest.raises(CapacityError):
        simulate_leveled(dist, LevelConfig(widths=(5,), n=4, seed=1,
                                           input_p=0.5))


# ---------------------------------------------------------------------------
# Exact transition matrix
# ---------------------------------------------------------------------------

def test_exact_m1_l1_is_f_of_p():
    d = valiant()
    firing, v = exact_level_distribution(d, 1, 0.5, 1)
    assert firing == pytest.approx(d.evaluate(0.5), abs=1e-12)
    assert v.shape == (2,)


def test_exact_m2_l2_matches_hand_enumeration():
    d = valiant()
    m, p = 2, 0.5
    f = d.evaluate
    expected = 0.0
    for c1 in range(m + 1):
        w1 = binom_pmf(m, c1, f(p))
        for c2 in range(m + 1):
            expected += w1 * binom_pmf(m, c2, f(c1 / m)) * (c2 / m)
    firing, _ = exact_level_distribution(d, m, p, 2)
    assert firing == pytest.approx(expected, abs=1e-12)


KERNEL_QS = (0.0, 1.0, 5e-324, 1e-300, 1e-8, 0.5, 1 - 2 ** -53, 1 - 1e-9,
             *np.random.default_rng(0).random(25).tolist())


@pytest.mark.parametrize("m", [1, 2, 7, 60, 200])
def test_binomial_rows_match_exact_rational_rows(m):
    rows = leveled._binomial_rows(m, KERNEL_QS)
    exact = []
    for q in KERNEL_QS:
        a, d = q.as_integer_ratio()             # q = a/d, 1 - q = (d - a)/d
        exact.append([math.comb(m, j) * a ** j * (d - a) ** (m - j) / d ** m
                      for j in range(m + 1)])   # int / int rounds correctly
    exact = np.array(exact)
    big = exact > 1e-290
    assert np.max(np.abs(rows - exact)[big] / exact[big]) <= 2e-13
    assert np.all(np.abs(rows[~big]) < 1e-280)
    assert rows[0].tolist() == [1.0] + [0.0] * m          # q = 0
    assert rows[1].tolist() == [0.0] * m + [1.0]          # q = 1


@pytest.mark.parametrize("m", [1000, 2000])
def test_binomial_rows_match_scipy_at_large_width(m):
    from scipy.stats import binom
    qs = np.concatenate([np.random.default_rng(m).random(300),
                         [0.0, 1.0, 1e-12, 0.5, 1 - 1e-12]])
    rows = leveled._binomial_rows(m, qs)
    ref = binom.pmf(np.arange(m + 1)[None, :], m, qs[:, None])
    big = ref > 1e-250
    assert np.max(np.abs(rows - ref)[big] / ref[big]) <= 2e-12
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 200, 1000, 2000])
@pytest.mark.parametrize("dist", [quad4(0.5), linear_threshold(0.5),
                                  valiant()], ids=lambda d: d.label)
def test_binomial_rows_are_the_one_expression_bit_for_bit(m, dist):
    # The exact chain's q values, and the ends: point masses, the least
    # subnormal (log q = -744.4) and the float below 1.  Whole and cut at
    # the row blocks' edges.
    qs = np.concatenate([[0.0, 1.0, 5e-324, 1 - 1e-16],
                         np.clip(dist.evaluate(np.arange(m + 1) / m),
                                 0.0, 1.0)])
    for rows in (1, leveled._ROW_BLOCK, leveled._ROW_BLOCK + 1, len(qs)):
        got = leveled._binomial_rows(m, qs[:rows])
        want = binomial_rows_reference(m, qs[:rows])
        assert got.tobytes() == want.tobytes(), rows


@pytest.mark.parametrize("m", [1, 63, 64, 65, 200, 1000, 2000])
def test_exact_chain_keeps_its_binomial_start_row_and_kernel_bytes(m):
    # One _binomial_rows call builds the kernel's rows and the start row v
    # after them (at m = 63, v opens the second row block).  The chain
    # after one level is v itself, and after two v @ kernel: each must be
    # the bytes of the two one-expression builds, with v's probability
    # clamped as a scalar, at the ends p = 0 and 1 as well.
    for dist in (quad4(0.5), linear_threshold(0.3), valiant()):
        q = np.clip(dist.evaluate(np.arange(m + 1) / m), 0.0, 1.0)
        kernel = binomial_rows_reference(m, q)
        for p in (0.0, 0.45, 1.0):
            v = binomial_rows_reference(m, [min(max(dist.evaluate(p), 0.0),
                                                1.0)])[0]
            one = exact_level_distribution(dist, m, p, 1)[1]
            assert one.tobytes() == v.tobytes(), (dist.label, p)
            assert one.base is None
            two = exact_level_distribution(dist, m, p, 2)[1]
            assert two.tobytes() == (v @ kernel).tobytes(), (dist.label, p)


def test_exp_zero_is_below_every_exponent_exp_keeps():
    # The kernel writes +0.0 for an exponent below _EXP_ZERO without np.exp:
    # np.exp gives +0.0 (not -0.0) on all of [-800, _EXP_ZERO], and a
    # positive value above -745.1332191019412.
    grid = np.linspace(-800.0, leveled._EXP_ZERO, 1_000_001)
    assert grid[-1] == leveled._EXP_ZERO == -746.0
    assert np.exp(grid).tobytes() == np.zeros_like(grid).tobytes()
    assert np.exp(-745.13) > 0
    assert np.exp(np.full(100, -745.13)).min() > 0


def _traced_peak(call):
    """The peak of the memory ``call()`` allocated."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_chain_holds_one_kernel_and_two_row_blocks():
    m, dist = 2000, quad4(0.5)
    peak = _traced_peak(lambda: exact_level_distribution(dist, m, 0.45, 3))
    block = leveled._ROW_BLOCK * (m + 1) * 8
    assert peak <= (m + 1) ** 2 * 8 + 2 * block + 64 * 1024, peak


def test_a_leveled_run_holds_its_batch_budget():
    # quad4's blocks have 4 leaves: 248,000 bytes a trial, so batches of 4
    # trials fill the budget, and the second batch reuses the first's
    # buffers.  The warm-up imports numpy.random, as a process's first run
    # does.
    dist = quad4(0.5)
    config = LevelConfig(widths=(3000,) * 3, n=1000, seed=2, trials=8,
                         input_p=0.45)
    assert 4 * (8 * 1000 + 16 * 5 * 3000) <= leveled._BATCH_BUDGET
    assert 5 * (8 * 1000 + 16 * 5 * 3000) > leveled._BATCH_BUDGET
    simulate_leveled(dist, LevelConfig(widths=(3,), n=2, seed=1,
                                       input_p=0.5))
    peak = _traced_peak(lambda: simulate_leveled(dist, config))
    fractions = config.trials * 4 * 8
    assert peak <= leveled._BATCH_BUDGET + fractions + 64 * 1024, peak


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(amptree.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, amptree; print(sorted(m for m "
         "in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_exact_distribution_sums_to_one():
    _, v = exact_level_distribution(quad4(0.5), 50, 0.45, 8)
    assert v.sum() == pytest.approx(1.0, abs=1e-9)


def test_exact_width_cap():
    with pytest.raises(CapacityError):
        exact_level_distribution(valiant(), 2001, 0.5, 2)
    # width scaling probes the cap itself, then names the cell and the cap
    with pytest.raises(CapacityError, match="cap 2000") as err:
        width_scaling_experiment(quad4(0.5), (0.2, 0.1), (0.001,))
    assert "gamma=0.2, epsilon=0.001" in str(err.value)
    assert "simulate_leveled" not in str(err.value)


def test_exact_vs_monte_carlo_small():
    d = quad4(0.5)
    m, levels, p, trials = 60, 10, 0.44, 3000
    firing, _ = exact_level_distribution(d, m, p, levels)
    n = 100
    bits = (1,) * 44 + (0,) * 56
    cfg = LevelConfig(widths=(m,) * levels, n=n, seed=11, trials=trials,
                      input_bits=bits)
    trace = simulate_leveled(d, cfg)
    mc = trace.fractions[:, -1]
    se = mc.std(ddof=1) / math.sqrt(trials)
    assert abs(mc.mean() - firing) <= 3 * se


def test_half_progress_falsification_rate():
    # conditioned on X_i in [u, t - eps], the fraction of trials violating
    # half-progress is at most exp(-alpha m eps_i^2) + 3 sigma
    t, u, eps = 0.5, 0.2, 0.05
    m, trials = 5000, 400
    d = linear_threshold(t)
    bits = (1,) * 35 + (0,) * 65
    cfg = LevelConfig(widths=(m,) * 6, n=100, seed=21, trials=trials,
                      input_bits=bits)
    trace = simulate_leveled(d, cfg)
    alpha = u * (1 - t) ** 2 / 8.0    # divergence-ratio minimum is 1 here
    violations = 0
    total = 0
    for trial in range(trials):
        xs = trace.fractions[trial]
        for i in range(len(xs) - 1):
            x = xs[i]
            if u <= x <= t - eps:
                total += 1
                if xs[i + 1] > (x + d.evaluate(x)) / 2.0:
                    violations += 1
    assert total > 0
    worst_bound = math.exp(-alpha * m * eps ** 2)
    sigma = math.sqrt(worst_bound * (1 - worst_bound) / total)
    assert violations / total <= worst_bound + 3 * sigma


def test_width_scaling_smoke():
    res = width_scaling_experiment(quad4(0.5), gammas=(0.2, 0.1),
                                   epsilons=(0.1, 0.05))
    assert len(res.rows) == 4
    assert all(r.min_width >= 1 for r in res.rows)
    # halving epsilon at fixed gamma multiplies the required width ~4x
    by_cell = {(r.gamma, r.epsilon): r.min_width for r in res.rows}
    assert by_cell[(0.2, 0.05)] > by_cell[(0.2, 0.1)]
    assert by_cell[(0.1, 0.05)] > by_cell[(0.1, 0.1)]
    # gamma = 0.2 needs no more width than gamma = 0.1
    assert by_cell[(0.2, 0.1)] <= by_cell[(0.1, 0.1)]
    assert by_cell[(0.2, 0.05)] <= by_cell[(0.1, 0.05)]


@pytest.mark.parametrize("gammas, epsilons", [
    ((0.2, 0.1), (0.1, 0.05)),
    ((0.2, 0.1), (0.5,)),                   # inputs at 0: width 1 suffices
    ((0.2, 0.1, 0.05), (0.1, 0.05, 0.025)),
])
def test_width_scaling_finds_the_exact_minimum(gammas, epsilons):
    dist = quad4(0.5)
    res = width_scaling_experiment(dist, gammas, epsilons)
    assert len(res.rows) == len(gammas) * len(epsilons)
    for row in res.rows:
        levels = math.ceil(math.log2(1 / row.gamma) +
                           math.log2(1 / row.epsilon)) + 12

        def accuracy(m):
            return 1.0 - exact_level_distribution(
                dist, m, 0.5 - row.epsilon, levels)[0]

        assert accuracy(row.min_width) >= 1.0 - row.gamma, row
        if row.min_width > 1:
            assert accuracy(row.min_width - 1) < 1.0 - row.gamma, row
