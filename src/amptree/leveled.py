"""Finite-width leveled constructions.

Monte Carlo realization of the leveled iterative construction, the exact
width-m transition-matrix computation, and the width-scaling experiment.

Determinism: the generator for (trial, level) is PCG64 seeded by mixing the
root seed, the trial index and the level index through the splitmix64
avalanche (see :mod:`amptree.rng`).  Each level draws one uniform block of
shape (m, 1 + max_leaves): column 0 picks the building-block tree, the
remaining columns pick its leaves.  Trials run in batches, a level of a
batch as one (trials, m) array, and a batch's streams are seeded at once
(:func:`amptree.rng.stacked_streams`).  The streams stay those above, so
reruns with the same config and seed are bit-identical whatever the batch
size, and trials are independent of each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np
from scipy.stats import binom

from .blocks import check_inputs, entry_table, eval_blocks, input_draw
from .catalog import TreeDistribution
from .errors import CapacityError, InputShapeError, RangeError
from .rng import derive_seed, stacked_streams

#: Dense (m+1)^2 transition matrices are capped here.
EXACT_WIDTH_CAP = 2000

#: Memory budget (bytes) per trial batch: one level's uniforms and indices.
_BATCH_BUDGET = 1 << 20


@dataclass(frozen=True)
class LevelConfig:
    """Widths, input specification, seed and trial count for a leveled run.

    Exactly one of ``input_p`` (Bernoulli inputs, drawn per trial) and
    ``input_bits`` (explicit, shared by all trials) must be given.
    """

    widths: tuple[int, ...]
    n: int
    seed: int
    trials: int = 1
    input_p: float | None = None
    input_bits: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if not self.widths or any(w < 1 for w in self.widths):
            raise InputShapeError(f"widths must be positive: {self.widths}")
        check_inputs(self)

    @classmethod
    def uniform(cls, m: int, levels: int, **kw) -> "LevelConfig":
        return cls(widths=(m,) * levels, **kw)


@dataclass(frozen=True)
class SimulationTrace:
    """Per-trial, per-level firing fractions, plus one sampled top item."""

    fractions: np.ndarray        # (trials, levels+1), level 0 = inputs
    final_items: np.ndarray      # (trials,) uint8
    config: LevelConfig

    def write_csv(self, out: TextIO) -> None:
        out.write("trial,level,fraction\n")
        for trial, row in enumerate(self.fractions.tolist()):
            for level, x in enumerate(row):
                out.write(f"{trial},{level},{x!r}\n")


def simulate_leveled(dist: TreeDistribution,
                     config: LevelConfig) -> SimulationTrace:
    """Run the leveled construction and record firing fractions.

    Level 0 is the inputs.  Each item at level j samples a tree from the
    distribution and wires its leaves to uniformly random items of level
    j-1, with replacement.
    """
    trees, cumw, max_leaves = entry_table(dist)
    levels, cols = len(config.widths), 1 + max_leaves
    fractions = np.empty((config.trials, levels + 1), dtype=np.float64)
    final_items = np.empty(config.trials, dtype=np.uint8)
    draw = input_draw(config)
    per_trial = 8 * config.n + 16 * cols * max(config.widths)
    batch_size = max(1, min(config.trials, _BATCH_BUDGET // per_trial))

    for start in range(0, config.trials, batch_size):
        batch = range(start, min(start + batch_size, config.trials))
        b, rows = len(batch), slice(batch.start, batch.stop)
        random = stacked_streams(config.seed, batch, levels + 2)
        prev = np.broadcast_to(draw(lambda size: random(0, (size,))),
                               (b, config.n))
        fractions[rows, 0] = prev.mean(axis=1)
        prev_size = config.n
        for level, m in enumerate(config.widths, start=1):
            u = random(level, (m, cols))
            which = np.searchsorted(cumw, u[..., 0], side="right")
            idx = np.minimum((u[..., 1:] * prev_size).astype(np.int64),
                             prev_size - 1)
            # One flat gather: 2-D fancy indexing is several times slower.
            idx += np.arange(0, b * prev_size, prev_size)[:, None, None]
            prev = eval_blocks(trees, which.ravel(), np.ravel(prev)[idx]
                               .reshape(b * m, -1)).reshape(b, m)
            fractions[rows, level] = prev.mean(axis=1)
            prev_size = m
        top = np.minimum((random(levels + 1, (1,))[:, 0] * prev_size)
                         .astype(np.int64), prev_size - 1)
        final_items[rows] = prev[np.arange(b), top]
    return SimulationTrace(fractions=fractions, final_items=final_items,
                           config=config)


def exact_level_distribution(dist: TreeDistribution, m: int, p: float,
                             levels: int) -> tuple[float, np.ndarray]:
    """Exact level-L firing probability by transition-matrix propagation.

    The count of firing items at each level is a Markov chain on
    {0, ..., m}: starting from Binom(m, f(p)), each step applies the
    binomial kernel A[i, j] = Binom(m, f(i/m))(j).  Returns the expected
    firing fraction at level ``levels`` together with the full count
    distribution (the expected-count vector is normalized by m so the
    result is a probability).
    """
    if m < 1:
        raise RangeError("width must be >= 1")
    if m > EXACT_WIDTH_CAP:
        raise CapacityError(
            f"dense ({m + 1})^2 transition matrix exceeds the cap "
            f"{EXACT_WIDTH_CAP}; use simulate_leveled for wide levels")
    if levels < 1:
        raise RangeError("levels must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise RangeError(f"p must be in [0,1], got {p}")
    counts = np.arange(m + 1)
    q = np.clip(dist.evaluate(counts / m), 0.0, 1.0)
    kernel = binom.pmf(counts[None, :], m, q[:, None])
    v = binom.pmf(counts, m, min(max(dist.evaluate(p), 0.0), 1.0))
    for _ in range(levels - 1):
        v = v @ kernel
    firing = float(v @ counts) / m
    return firing, v


# ---------------------------------------------------------------------------
# Width scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WidthScalingRow:
    gamma: float
    epsilon: float
    min_width: int
    predictor: float           # ln(1/gamma) / epsilon^2


@dataclass(frozen=True)
class WidthScalingResult:
    rows: tuple[WidthScalingRow, ...]
    slope: float
    r_squared: float
    verdict: str               # "OK" or "UNDETERMINED"

    def to_json(self) -> str:
        import json
        return json.dumps({
            "rows": [{"gamma": r.gamma, "epsilon": r.epsilon,
                      "min_width": r.min_width, "predictor": r.predictor}
                     for r in self.rows],
            "slope": self.slope,
            "r_squared": self.r_squared,
            "verdict": self.verdict,
        }, sort_keys=True)


def _accuracy(dist: TreeDistribution, t: float, epsilon: float, m: int,
              levels: int, n: int, trials: int, seed: int) -> float:
    ones = int(round((t - epsilon) * n))
    bits = (1,) * ones + (0,) * (n - ones)
    config = LevelConfig(widths=(m,) * levels, n=n, seed=seed, trials=trials,
                         input_bits=bits)
    trace = simulate_leveled(dist, config)
    return float(1.0 - trace.fractions[:, -1].mean())


def width_scaling_experiment(dist: TreeDistribution, t: float,
                             gammas: Sequence[float],
                             epsilons: Sequence[float], seed: int,
                             trials: int = 200, n: int = 2000
                             ) -> WidthScalingResult:
    """Minimal widths for 1-gamma accuracy, fit against ln(1/gamma)/eps^2.

    For each (gamma, epsilon) cell a doubling search (plus three bisection
    refinements) finds the smallest width whose empirical accuracy at input
    margin epsilon reaches 1-gamma; the log-log regression slope of width
    against the predictor is the scaling-law verdict.  The constants inside
    the width bound are not reproducible; the slope is what is asserted.
    """
    if t is None or not 0.0 < t < 1.0:
        raise RangeError(f"width scaling needs a threshold in (0,1), got {t}")
    if not gammas or not epsilons:
        raise RangeError("width scaling needs at least one gamma and one "
                         "epsilon")
    if not (all(0.0 < g < 1.0 for g in gammas)
            and all(0.0 < e <= t for e in epsilons)):
        raise RangeError(f"gammas must be in (0,1) and epsilons in (0, t]: "
                         f"{gammas}, {epsilons}")
    if len({math.log(1 / g) / e ** 2 for g in gammas for e in epsilons}) < 2:
        raise RangeError(f"the slope fit needs two distinct predictors "
                         f"ln(1/gamma)/epsilon^2: {gammas}, {epsilons}")

    def solve_cell(cell) -> WidthScalingRow:
        ig, ie = cell
        gamma, epsilon = gammas[ig], epsilons[ie]
        levels = int(math.ceil(math.log2(1 / gamma) +
                               math.log2(1 / epsilon))) + 12
        target = 1.0 - gamma

        def acc(m: int) -> float:
            return _accuracy(dist, t, epsilon, m, levels, n, trials,
                             derive_seed(seed, ig, ie, m))

        m = 8
        while acc(m) < target:
            m *= 2
            if m > 2 ** 21:
                raise CapacityError(
                    f"width search exceeded 2^21 at gamma={gamma}, "
                    f"epsilon={epsilon}")
        lo, hi = m // 2, m
        for _ in range(3):
            if hi - lo <= 1:
                break
            mid = (lo + hi) // 2
            if acc(mid) >= target:
                hi = mid
            else:
                lo = mid
        predictor = math.log(1 / gamma) / epsilon ** 2
        return WidthScalingRow(gamma=gamma, epsilon=epsilon, min_width=hi,
                               predictor=predictor)

    cells = [(ig, ie) for ig in range(len(gammas))
             for ie in range(len(epsilons))]
    rows = [solve_cell(c) for c in cells]

    xs = np.log([r.predictor for r in rows])
    ys = np.log([r.min_width for r in rows])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    verdict = "OK" if r2 >= 0.8 else "UNDETERMINED"
    return WidthScalingResult(rows=tuple(rows), slope=float(slope),
                              r_squared=r2, verdict=verdict)
