"""Finite-width levels: Monte Carlo, the exact chain, and width scaling.

With finite width m per level the firing count is a Markov chain on
{0..m}; its kernel is binomial and can be propagated exactly for moderate
m.  Monte Carlo and the exact chain agree, and the minimal width for
1-gamma accuracy at input margin epsilon, read off the exact chain,
scales like ln(1/gamma)/eps^2.
"""
import numpy as np

from amptree import (LevelConfig, exact_level_distribution, quad4,
                     simulate_leveled, width_scaling_experiment)

dist = quad4(0.5)

# exact chain vs Monte Carlo at m = 120, L = 15, inputs at 0.45
m, levels = 120, 15
exact, _ = exact_level_distribution(dist, m, 0.45, levels)
bits = (1,) * 45 + (0,) * 55
cfg = LevelConfig(widths=(m,) * levels, n=100, seed=7, trials=4000,
                  input_bits=bits)
trace = simulate_leveled(dist, cfg)
mc = trace.fractions[:, -1]
se = mc.std(ddof=1) / np.sqrt(len(mc))
print(f"exact level-{levels} firing probability: {exact:.5f}")
print(f"Monte Carlo ({len(mc)} trials):          {mc.mean():.5f} "
      f"+- {se:.5f}")

# mean trajectory across levels
print("\nmean firing fraction by level:")
means = trace.fractions.mean(axis=0)
print("  " + " ".join(f"{v:.3f}" for v in means))

# width scaling on a small 2x2 grid
res = width_scaling_experiment(dist, 0.5, gammas=(0.2, 0.1),
                               epsilons=(0.1, 0.05))
print("\nminimal widths for 1-gamma accuracy (exact chain):")
for row in res.rows:
    print(f"  gamma={row.gamma:4}  eps={row.epsilon:5}  "
          f"min_width={row.min_width:5d}  ln(1/g)/e^2={row.predictor:8.1f}")
print(f"log-log slope: {res.slope:.3f} (theory: 1)")
