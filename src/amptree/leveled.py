"""Finite-width leveled constructions.

Monte Carlo realization of the leveled iterative construction, the exact
width-m transition-matrix computation, and the width-scaling experiment.

Determinism: each trial owns generator PCG64(derive_seed(seed, trial)), as
in the stream engine (see :mod:`amptree.rng`).  It first draws the
Bernoulli inputs (if any), then one uniform block of shape
(m, 1 + max_leaves) per level, whose column 0 picks the building-block
tree and whose other columns pick its leaves, and last one uniform for the
top item.  Trials run in batches, a level of a batch as one (trials, m)
array; each trial draws its own row of the batch, into a uniform buffer
that, like the index buffer, every level of every batch of a run reuses.
So reruns with the same config and seed are bit-identical whatever the
batch size, trials are independent of each other, and a stream run with
the same seed and ``input_p`` draws the same inputs for each trial.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import accumulate, product
from typing import Sequence, TextIO

import numpy as np

from .blocks import (check_inputs, entry_table, eval_blocks, index,
                     input_draw, pick)
from .catalog import TreeDistribution
from .errors import (CapacityError, InputShapeError, RangeError, check_int,
                     check_real)
from .rng import generator

#: Dense (m+1)^2 transition matrices are capped here.
EXACT_WIDTH_CAP = 2000

#: Memory budget (bytes) per trial batch: one level's uniforms and indices.
_BATCH_BUDGET = 1 << 20

#: Rows of an exact kernel built at a time.
_ROW_BLOCK = 64

#: np.exp is +0.0 below -745.1332191019412 (half the least subnormal), so
#: exponents below this are written as +0.0 without it.
_EXP_ZERO = -746.0


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
    input_bits: Sequence[int] | None = None

    def __post_init__(self):
        widths = tuple(self.widths) if np.iterable(self.widths) else ()
        if not widths:
            raise InputShapeError(f"widths must name at least one level, "
                                  f"got {self.widths!r}")
        object.__setattr__(self, "widths", tuple(check_int(
            "each width", w, 1, error=InputShapeError) for w in widths))
        check_inputs(self)


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
    widest = max(config.widths)
    per_trial = 8 * config.n + 16 * cols * widest
    batch_size = max(1, min(config.trials, _BATCH_BUDGET // per_trial))
    # Every level of every batch draws into these and indexes into those.
    uniforms = np.empty(batch_size * widest * cols)
    wired = np.empty(batch_size * widest * max_leaves, np.int64)

    for start in range(0, config.trials, batch_size):
        batch = range(start, min(start + batch_size, config.trials))
        b, rows = len(batch), slice(batch.start, batch.stop)
        rngs = [generator(config.seed, trial) for trial in batch]
        prev = np.array([draw(rng.random) for rng in rngs])
        fractions[rows, 0] = np.count_nonzero(prev, axis=1) / config.n
        prev_size = config.n
        for level, m in enumerate(config.widths, start=1):
            u = uniforms[:b * m * cols].reshape(b, m, cols)
            for row, rng in zip(u, rngs):
                rng.random(out=row)
            which = pick(cumw, u[..., 0])
            # Leaf-major (leaves, trials, items), offset to each trial's row
            # of prev: one flat gather.
            lv = np.moveaxis(u[..., 1:], 2, 0)
            idx = index(lv, prev_size,
                        out=wired[:lv.size].reshape(lv.shape))
            idx += np.arange(0, b * prev_size, prev_size)[:, None]
            prev = eval_blocks(trees, which.ravel(), np.take(prev, idx)
                               .reshape(max_leaves, -1)).reshape(b, m)
            # A count of 0/1 items is exact: the same float as their mean.
            fractions[rows, level] = np.count_nonzero(prev, axis=1) / m
            prev_size = m
        top = index(np.array([rng.random() for rng in rngs]), prev_size)
        final_items[rows] = prev[np.arange(b), top]
    return SimulationTrace(fractions=fractions, final_items=final_items,
                           config=config)


def _binomial_rows(m: int, q) -> np.ndarray:
    """Binomial(m, q) probabilities of 0..m, one row per q.

    Entry j is exp(log C(m, j) + (m - j) log1p(-q) + j log q), with
    log C(m, j) taken from the exact integer; q = 0 and q = 1 give exact
    point masses.  The rows are built in place, ``_ROW_BLOCK`` at a time,
    by the same operations in the same order as the one-expression form:
    an exponent below ``_EXP_ZERO`` is written as +0.0, the value np.exp
    gives it, without calling np.exp.
    """
    q = np.asarray(q, dtype=np.float64)
    j = np.arange(m + 1)
    combs = accumulate(range(m), lambda c, k: c * (m - k) // (k + 1),
                       initial=1)                   # C(m, 0..m), exact ints
    log_comb = np.array([math.log(c) for c in combs])
    rows = np.empty((len(q), m + 1))
    part = np.empty((min(_ROW_BLOCK, len(q)), m + 1))
    live = np.empty(part.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_fail, log_q = np.log1p(-q)[:, None], np.log(q)[:, None]
        for a in range(0, len(q), _ROW_BLOCK):
            block = rows[a:a + _ROW_BLOCK]
            k = len(block)
            np.multiply(m - j, log_fail[a:a + k], out=block)
            block += log_comb
            block += np.multiply(j, log_q[a:a + k], out=part[:k])
            np.exp(block, out=block,
                   where=np.greater_equal(block, _EXP_ZERO, out=live[:k]))
            # After exp only the skipped exponents are still below it.
            np.copyto(block, 0.0,
                      where=np.less(block, _EXP_ZERO, out=live[:k]))
    rows[q == 0.0] = j == 0
    rows[q == 1.0] = j == m
    return rows


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
    m, levels = check_int("width m", m, 1), check_int("levels", levels, 1)
    if m > EXACT_WIDTH_CAP:
        raise CapacityError(
            f"dense ({m + 1})^2 transition matrix exceeds the cap "
            f"{EXACT_WIDTH_CAP}; use simulate_leveled for wide levels")
    p = check_real("p", p, 0, 1, "[]")
    counts = np.arange(m + 1)
    # The kernel's rows, then the start row v, from one evaluation and one
    # build of log C(m, j); v is copied out, so that the row returned does
    # not hold the kernel.
    rows = _binomial_rows(m, np.clip(dist.evaluate(np.append(counts / m, p)),
                                     0.0, 1.0))
    kernel, v = rows[:-1], rows[-1].copy()
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
        return json.dumps(asdict(self), sort_keys=True)


def width_scaling_experiment(dist: TreeDistribution,
                             gammas: Sequence[float],
                             epsilons: Sequence[float]) -> WidthScalingResult:
    """Minimal widths for 1-gamma accuracy, fit against ln(1/gamma)/eps^2.

    Accuracy at width m is 1 minus the exact chain's firing from
    p = t - epsilon, t = ``dist.unique_threshold()``: with fixed inputs each
    level-1 leaf is a uniform draw from them.  Per cell the width doubles
    from 1 up to ``EXACT_WIDTH_CAP``, then bisects to the least accurate
    width.  That takes accuracy to be nondecreasing in m, as it is for
    m = 1..999 on criterion 8's grid.  The log-log slope of width against
    the predictor is the verdict.
    """
    t = dist.unique_threshold()
    gammas = [check_real("gamma", g, 0, 1) for g in gammas]
    epsilons = [check_real("epsilon", e, 0, t, "(]") for e in epsilons]
    if not gammas or not epsilons:
        raise RangeError("width scaling needs at least one gamma and one "
                         "epsilon")
    cells = list(product(gammas, epsilons))
    predictors = [math.log(1 / g) / e ** 2 if e ** 2 else math.inf
                  for g, e in cells]
    if not all(map(math.isfinite, predictors)):
        raise RangeError(f"ln(1/gamma)/epsilon^2 overflows a float: "
                         f"{gammas}, {epsilons}")
    if len(set(predictors)) < 2:
        raise RangeError(f"the slope fit needs two distinct predictors "
                         f"ln(1/gamma)/epsilon^2: {gammas}, {epsilons}")

    rows = []
    for (gamma, epsilon), predictor in zip(cells, predictors):
        levels = math.ceil(math.log2(1 / gamma) + math.log2(1 / epsilon)) + 12

        def accurate(m: int) -> bool:
            return 1.0 - exact_level_distribution(
                dist, m, t - epsilon, levels)[0] >= 1.0 - gamma

        lo, hi = 0, 1
        while not accurate(hi):
            if hi == EXACT_WIDTH_CAP:
                raise CapacityError(f"no width up to the cap {EXACT_WIDTH_CAP} "
                                    f"is accurate at gamma={gamma}, "
                                    f"epsilon={epsilon}")
            lo, hi = hi, min(2 * hi, EXACT_WIDTH_CAP)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if accurate(mid) else (mid, hi)
        rows.append(WidthScalingRow(gamma=gamma, epsilon=epsilon,
                                    min_width=hi, predictor=predictor))

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
