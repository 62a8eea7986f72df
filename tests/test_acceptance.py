"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
explicit PASS lines); each test prints one line on success.
"""
import io
import json
import math
import time

import numpy as np
import pytest

from amptree.catalog import (StaircaseSpec, linear_threshold, quad4, quad5,
                             quad_k, soft_threshold, staircase, valiant)
from amptree.dynamics import (LINEAR, QUADRATIC, profile, verify_conditions)
from amptree.leveled import (LevelConfig, exact_level_distribution,
                             simulate_leveled, width_scaling_experiment)
from amptree.polyalg import fixed_points, iterate_point, scan_fixed_points
from amptree.stream import StreamConfig, simulate_stream
from amptree.learning import learn_threshold, evaluate_learned
from amptree.rng import generator
from amptree.trees import (achievable_by_degree, all_trees, tree_polynomial)

from _oracles import brute_force_activation, verified_interior_roots

GOLDEN = (1 + math.sqrt(5)) / 2


def _ok(name, detail=""):
    print(f"ACCEPTANCE PASS {name}" + (f": {detail}" if detail else ""))


TABLE_ROWS = {
    1: {(0, 1)},
    2: {(0, 0, 1), (0, 2, -1)},
    3: {(0, 0, 0, 1), (0, 1, 1, -1), (0, 0, 2, -1), (0, 3, -3, 1)},
    4: {(0, 0, 0, 0, 1), (0, 1, 0, 1, -1), (0, 0, 1, 1, -1),
        (0, 2, 0, -2, 1), (0, 0, 0, 2, -1), (0, 1, 2, -3, 1),
        (0, 0, 3, -3, 1), (0, 4, -6, 4, -1), (0, 0, 2, 0, -1),
        (0, 0, 4, -4, 1)},
    5: {(0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, -1), (0, 0, 1, 0, 1, -1),
        (0, 2, -1, 1, -2, 1), (0, 0, 0, 1, 1, -1), (0, 1, 1, 0, -2, 1),
        (0, 0, 2, 0, -2, 1), (0, 3, -2, -2, 3, -1), (0, 0, 0, 0, 2, -1),
        (0, 1, 0, 2, -3, 1), (0, 0, 1, 2, -3, 1), (0, 2, 1, -5, 4, -1),
        (0, 0, 0, 3, -3, 1), (0, 1, 3, -6, 4, -1), (0, 0, 4, -6, 4, -1),
        (0, 5, -10, 10, -5, 1), (0, 0, 0, 2, 0, -1), (0, 1, 2, -2, -1, 1),
        (0, 0, 0, 4, -4, 1), (0, 1, 4, -8, 5, -1), (0, 0, 1, 1, 0, -1),
        (0, 0, 3, -1, -2, 1), (0, 0, 2, 1, -3, 1), (0, 0, 6, -9, 5, -1)},
}


def test_criterion_01_achievable_table_reproduction():
    start = time.perf_counter()
    by_degree = achievable_by_degree(5)
    counts = [len(by_degree[d]) for d in range(1, 6)]
    assert counts == [1, 2, 4, 10, 24]
    for d in range(1, 6):
        assert {q.coeffs for q in by_degree[d]} == TABLE_ROWS[d]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok("1 table reproduction", f"counts {counts}, {elapsed:.3f}s")


def test_criterion_02_brute_force_oracle():
    start = time.perf_counter()
    ps = [i / 10 for i in range(1, 10)]
    checked = 0
    for n in range(1, 6):
        for tree in all_trees(n):
            poly = tree_polynomial(tree)
            for p in ps:
                assert abs(poly(p) - brute_force_activation(tree, p)) <= 1e-12
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok("2 brute-force oracle", f"{checked} comparisons, {elapsed:.2f}s")


def test_criterion_03_fixed_point_values():
    v = fixed_points(valiant().mixture).interior_points()[0]
    assert abs(v.location - (2 - GOLDEN)) <= 1e-9
    assert abs(v.location - 0.3819660113) <= 1e-9
    for t in [i / 10 for i in range(1, 10)]:
        fp = fixed_points(linear_threshold(t).mixture).interior_points()[0]
        assert abs(fp.location - t) <= 1e-9
    for t in (0.05, 0.1, 0.9, 0.95):
        roots = quad_k(t).interior_fixed_points()
        assert min(abs(r - t) for r in roots) <= 1e-9
    _ok("3 fixed-point values", "valiant=2-phi, linear t=0.1..0.9, "
        "quad_k t in {0.05,0.1,0.9,0.95}")


def test_criterion_04_convergence_orders():
    start = time.perf_counter()
    cases = [(linear_threshold(0.5), LINEAR),
             (quad4(0.5), QUADRATIC),
             (quad5(0.5), QUADRATIC),
             (quad_k(0.1), QUADRATIC),
             (quad_k(0.9), QUADRATIC)]
    for dist, expected in cases:
        t = dist.threshold
        for p in (t - 0.01, t + 0.01):
            assert profile(dist, p).order == expected, (dist.label, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok("4 convergence orders", f"{elapsed:.3f}s")


def test_criterion_05_condition_certificates():
    rep4 = verify_conditions(quad4(0.5), 0.5, 1 / 5, 4 / 5)
    assert rep4.passed and rep4.c3 <= 4.0
    rep5 = verify_conditions(quad5(0.5), 0.5, 1 / 7, 6 / 7)
    assert rep5.passed and rep5.c3 <= 6.0
    _ok("5 condition certificates",
        f"quad4 c3={rep4.c3:.3f}<=4, quad5 c3={rep5.c3:.3f}<=6")


def test_criterion_06_degree_lower_bound():
    checked = 0
    for d, polys in achievable_by_degree(7).items():
        for q in polys:
            if len(q.coeffs) < 2 or q.coeffs[1] != 0 or d < 2:
                continue
            for t in verified_interior_roots(q, scan_fixed_points(q)):
                bound = 1.0 / (2 * d * d)
                assert t > bound and 1.0 - t > bound, (q.coeffs, t)
                checked += 1
    assert checked > 0
    _ok("6 degree lower bound", f"{checked} interior fixed points checked")


def test_criterion_07_exact_vs_monte_carlo():
    start = time.perf_counter()
    dist = quad4(0.5)
    m, levels, p, trials = 200, 20, 0.45, 10_000
    exact, _ = exact_level_distribution(dist, m, p, levels)
    n = 200
    bits = (1,) * 90 + (0,) * 110
    cfg = LevelConfig(widths=(m,) * levels, n=n, seed=2307, trials=trials,
                      input_bits=bits)
    trace = simulate_leveled(dist, cfg)
    mc = trace.fractions[:, -1]
    se = mc.std(ddof=1) / math.sqrt(trials)
    diff = abs(mc.mean() - exact)
    assert diff <= 3 * se
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok("7 exact vs Monte Carlo",
        f"|{mc.mean():.5f}-{exact:.5f}| = {diff:.5f} <= 3*{se:.5f}, "
        f"{elapsed:.1f}s")


def test_criterion_08_width_scaling():
    start = time.perf_counter()
    res = width_scaling_experiment(quad4(0.5), gammas=(0.2, 0.1, 0.05),
                                   epsilons=(0.1, 0.05, 0.025))
    assert 0.8 <= res.slope <= 1.2
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _ok("8 width scaling",
        f"slope={res.slope:.3f} in [0.8,1.2], r2={res.r_squared:.3f}, "
        f"{elapsed:.1f}s")


def test_criterion_09_streaming_convergence():
    start = time.perf_counter()
    lt = linear_threshold(0.5)
    delta = 0.1
    trials = 500
    sigma = math.sqrt((1 - delta) * delta / trials)
    floor = 1.0 - delta - 3.0 * sigma

    n_w, k_w = 128, 224_000
    bits_w = (1,) * 51 + (0,) * 77          # 51/128 ~ 0.3984, margin ~ 0.1
    wild_cfg = StreamConfig(n=n_w, k=k_w, alpha=0.0, seed=1502,
                            trials=trials, input_bits=bits_w)
    wild = simulate_stream(lt, wild_cfg)
    wild_rate = 1.0 - wild.final_bits.mean()
    assert wild_rate >= floor

    n_e, k_e, alpha = 600, 8_000, 0.002     # keep n > 1/alpha
    bits_e = (1,) * 240 + (0,) * 360
    exp_cfg = StreamConfig(n=n_e, k=k_e, alpha=alpha, seed=1502,
                           trials=trials, input_bits=bits_e)
    expo = simulate_stream(lt, exp_cfg)
    expo_rate = 1.0 - expo.final_bits.mean()
    assert expo_rate >= floor

    q4 = quad4(0.5)
    bits_q = (1,) * 25 + (0,) * 39
    q_cfg = StreamConfig(n=64, k=40_000, alpha=0.0, seed=1502, trials=trials,
                         input_bits=bits_q)
    q_trace = simulate_stream(q4, q_cfg)
    from amptree.dynamics import order_estimate
    order = order_estimate(list(q_trace.x.mean(axis=0)), upper=0.3)
    assert order == LINEAR
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _ok("9 streaming convergence",
        f"wild={wild_rate:.3f}, exponential={expo_rate:.3f} >= {floor:.3f}; "
        f"quad4 stream order LINEAR, {elapsed:.0f}s")


def test_criterion_10_staircase():
    start = time.perf_counter()
    spec = StaircaseSpec(breakpoints=(0.3, 0.7), heights=(0.5,),
                         epsilon=0.1, delta=0.1)
    dist = staircase(spec)
    grid = np.linspace(0.0005, 0.9995, 1000)
    heights = {(0.0 + 0.1, 0.3 - 0.1): 0.0,
               (0.3 + 0.1, 0.7 - 0.1): 0.5,
               (0.7 + 0.1, 1.0 - 0.1): 1.0}
    for (lo, hi), target in heights.items():
        sel = grid[(grid > lo) & (grid < hi)]
        for p in sel:
            assert abs(dist.evaluate(p) - target) < spec.delta

    soft = soft_threshold(6)
    rep = fixed_points(soft.mixture)
    s, mid, t = [fp.location for fp in rep.interior_points()]
    plateaus = {0.0: 0, 0.5: 0, 1.0: 0}
    for p in np.linspace(0.01, 0.99, 99):
        if min(abs(p - s), abs(p - t)) < 0.03:
            continue
        end = iterate_point(soft.mixture, float(p), 30)[-1]
        target = 0.0 if p < s else (0.5 if p < t else 1.0)
        assert abs(end - target) < 0.05
        plateaus[target] += 1
    assert all(v > 0 for v in plateaus.values())
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok("10 staircase",
        f"two-step bands within 0.1; soft_threshold(6) plateaus "
        f"{tuple(plateaus.values())}, {elapsed:.1f}s")


def test_criterion_11_learning():
    start = time.perf_counter()
    n, m, levels = 200, 20_000, 40
    x = np.zeros(n, dtype=np.uint8)
    x[:100] = 1
    generator(41).shuffle(x)

    trees = [learn_threshold(levels, m, x, seed=5000 + s) for s in range(10)]
    agree = []
    for s, tree in enumerate(trees):
        for trial in range(10):
            g = generator(6000, s, trial)
            lo = np.zeros(n, dtype=np.uint8)
            lo[:90] = 1
            g.shuffle(lo)
            hi = np.zeros(n, dtype=np.uint8)
            hi[:110] = 1
            g.shuffle(hi)
            agree.append(1.0 - evaluate_learned(tree, lo))
            agree.append(evaluate_learned(tree, hi))
    rate = float(np.mean(agree))
    assert len(agree) == 200
    assert rate >= 0.95

    # learned traces match the linear-threshold leveled construction
    trials = 40
    probe = np.zeros(n, dtype=np.uint8)
    probe[:90] = 1
    generator(43).shuffle(probe)
    learned_traces = np.array([
        evaluate_learned(learn_threshold(levels, m, x, seed=7000 + s), probe,
                         return_trace=True)[1]
        for s in range(trials)])
    cfg = LevelConfig(widths=(m,) * levels, n=n, seed=44, trials=trials,
                      input_bits=tuple(int(b) for b in probe))
    sim = simulate_leveled(linear_threshold(0.5), cfg).fractions
    for lvl in range(levels + 1):
        a, b = learned_traces[:, lvl], sim[:, lvl]
        se = math.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
        assert abs(a.mean() - b.mean()) <= max(3 * se, 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _ok("11 learning", f"agreement rate={rate:.4f} >= 0.95, traces within "
        f"3 sigma, {elapsed:.0f}s")


def test_criterion_12_determinism():
    lt = linear_threshold(0.5)
    lcfg = LevelConfig(widths=(64,) * 10, n=50, seed=909, trials=20,
                       input_p=0.4)
    a, b = simulate_leveled(lt, lcfg), simulate_leveled(lt, lcfg)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    a.write_csv(buf_a)
    b.write_csv(buf_b)
    assert buf_a.getvalue().encode() == buf_b.getvalue().encode()

    scfg = StreamConfig(n=32, k=4000, alpha=0.0, seed=909, trials=20,
                        input_p=0.4)
    sa, sb = simulate_stream(lt, scfg), simulate_stream(lt, scfg)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    sa.write_csv(buf_a)
    sb.write_csv(buf_b)
    assert buf_a.getvalue().encode() == buf_b.getvalue().encode()

    ecfg = StreamConfig(n=100, k=2000, alpha=0.01, seed=909, trials=10,
                        input_p=0.45)
    ea, eb = simulate_stream(lt, ecfg), simulate_stream(lt, ecfg)
    assert np.array_equal(ea.x, eb.x)

    x = [1, 0] * 25
    la = learn_threshold(6, 100, x, seed=909).to_json()
    lb = learn_threshold(6, 100, x, seed=909).to_json()
    assert la.encode() == lb.encode()

    from amptree.cli import main
    import contextlib
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["simulate", "--construction", "quad4", "--t", "0.5",
                         "--mode", "leveled", "--m", "30", "--levels", "6",
                         "--n", "20", "--p", "0.4", "--trials", "5",
                         "--seed", "3", "--format", "csv"])
        assert code == 0
        outs.append(buf.getvalue())
    assert outs[0].encode() == outs[1].encode()
    _ok("12 determinism", "leveled, stream, exponential, learned and CLI "
        "outputs byte-identical")
