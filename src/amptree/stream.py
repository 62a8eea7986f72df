"""Wild and exponential iterative constructions.

A single growing pool: each new item samples a tree and wires its leaves
to existing items with probability proportional to item weight.  Weights
decay by e^-alpha per creation step; alpha = 0 is the wild construction.

Since every weight decays by the same factor, relative weights never need
rescaling: the item created at step j carries relative weight e^(alpha*j)
against inputs at weight 1, and the cumulative weight of the first m items
is the geometric sum S(m) = (e^(alpha*m) - 1)/(e^alpha - 1).  The default
engine samples by inverting this cumulative ledger directly (vectorized
across trials); the ``prefix_tree`` engine maintains an explicit prefix-sum
tree with O(log N) draws and periodic renormalization of the shared
exponent, and is the reference for cross-validation.

Determinism: each trial owns generator PCG64(derive_seed(seed, trial));
it first draws the Bernoulli inputs (if any), then one (k, 1 + max_leaves)
uniform block: column 0 picks the tree, the rest pick its leaves.  Both
engines consume the same block, so each is bit-reproducible per
(seed, trial) independent of batching.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .blocks import check_inputs, entry_table, eval_blocks, input_draw
from .catalog import TreeDistribution
from .errors import InputShapeError, RangeError
from .rng import generator
from .trees import eval_tree

#: Vectorized exponential weights stay in float range below this exponent.
_MAX_TOTAL_EXPONENT = 600.0

#: Memory budget (bytes) for pregenerated uniforms per batch.
_BATCH_BUDGET = 320_000_000


@dataclass(frozen=True)
class StreamConfig:
    """Pool size, decay rate, seed and trial count for a streaming run."""

    n: int
    k: int
    alpha: float
    seed: int
    trials: int = 1
    input_p: float | None = None
    input_bits: tuple[int, ...] | None = None

    def __post_init__(self):
        check_inputs(self)
        if self.k < 0:
            raise InputShapeError("items to create must be >= 0")
        if self.alpha < 0:
            raise RangeError("decay rate alpha must be >= 0")


@dataclass(frozen=True)
class StreamTrace:
    """Weighted firing probabilities X_j at the recorded creation counts."""

    steps: np.ndarray            # recorded creation counts, ascending
    x: np.ndarray                # (trials, len(steps))
    final_bits: np.ndarray | None   # k-th item's output per trial
    config: StreamConfig
    bits: np.ndarray | None = None  # (trials, n+k) when keep_bits was set

    def write_csv(self, out: TextIO) -> None:
        out.write("trial,step,x\n")
        steps = [int(step) for step in self.steps]
        for trial, row in enumerate(self.x.tolist()):
            for step, x in zip(steps, row):
                out.write(f"{trial},{step},{x!r}\n")

    def recompute_x(self, trial: int, step: int) -> float:
        """X after ``step`` creations from the raw bits and the closed-form
        weight schedule; an independent check on the incremental ledger."""
        if self.bits is None:
            raise ValueError("run simulate_stream with keep_bits=True")
        n, alpha = self.config.n, self.config.alpha
        row = self.bits[trial]
        if alpha == 0:
            return float(row[:n + step].sum()) / (n + step)
        weights = np.exp(alpha * np.arange(step))
        numer = float(row[:n].sum()) + float(weights @ row[n:n + step])
        return numer / (n + float(weights.sum()))


def recorded_steps(n: int, k: int, alpha: float) -> np.ndarray:
    """Creation counts at which X is recorded: pool doublings, every
    ceil(1/alpha) steps when alpha > 0, plus 0 and k.  Keeps trace memory
    logarithmic in k for the wild construction."""
    marks = {0, k}
    i = 1
    while n * (2 ** i) - n <= k:
        marks.add(n * (2 ** i) - n)
        i += 1
    if alpha > 0:
        stride = max(1, math.ceil(1.0 / alpha))
        marks.update(range(stride, k + 1, stride))
    return np.array(sorted(marks), dtype=np.int64)


class PrefixSumTree:
    """Power-of-two segment tree over nonnegative weights.

    O(log N) point update and prefix-inversion (sample an index with
    probability proportional to its weight); O(N) global rescale used for
    renormalizing the shared exponent.
    """

    def __init__(self, capacity: int):
        size = 1
        while size < capacity:
            size *= 2
        self.size = size
        self.tree = np.zeros(2 * size, dtype=np.float64)

    def __setitem__(self, idx: int, value: float) -> None:
        i = idx + self.size
        self.tree[i] = value
        i >>= 1
        while i >= 1:
            self.tree[i] = self.tree[2 * i] + self.tree[2 * i + 1]
            i >>= 1

    @property
    def total(self) -> float:
        return float(self.tree[1])

    def find_prefix(self, r: float) -> int:
        """The idx with sum(weights[:idx]) <= r < sum(weights[:idx + 1]),
        a weighted draw; r at or past the total gives the last positive
        weight.

        The descent never enters a zero-weight subtree, so rounding in the
        node sums (notably after ``scale``) cannot reach an unwritten slot.
        """
        i = 1
        while i < self.size:
            left = self.tree[2 * i]
            if r < left or self.tree[2 * i + 1] <= 0.0:
                i = 2 * i
            else:
                r -= left
                i = 2 * i + 1
        return i - self.size

    def scale(self, factor: float) -> None:
        self.tree *= factor


def simulate_stream(dist: TreeDistribution, config: StreamConfig,
                    engine: str = "vectorized",
                    keep_bits: bool = False) -> StreamTrace:
    """Run the streaming construction for every trial.

    X_j is computed exactly from the weight ledger (weighted fraction of
    firing items among inputs plus the first j creations), not estimated.
    """
    if engine == "prefix_tree":
        return _simulate_prefix(dist, config, keep_bits)
    if engine != "vectorized":
        raise RangeError(f"unknown engine {engine!r}")
    if config.alpha * config.k > _MAX_TOTAL_EXPONENT:
        # Relative weights would overflow the analytic ledger; the prefix
        # tree engine renormalizes as it goes.
        return _simulate_prefix(dist, config, keep_bits)
    return _simulate_vectorized(dist, config, keep_bits)


def _simulate_vectorized(dist: TreeDistribution, config: StreamConfig,
                         keep_bits: bool = False) -> StreamTrace:
    trees, cumw, max_leaves = entry_table(dist)
    n, k, alpha = config.n, config.k, config.alpha
    cols = 1 + max_leaves
    steps = recorded_steps(n, k, alpha)
    x = np.empty((config.trials, len(steps)), dtype=np.float64)
    final = np.empty(config.trials, dtype=np.uint8) if k > 0 else None

    if alpha > 0:
        js = np.arange(k + 1, dtype=np.float64)
        cumweight = np.expm1(alpha * js) / np.expm1(alpha)   # S[m]
        item_w = np.exp(alpha * np.arange(k, dtype=np.float64))
    else:
        cumweight = item_w = None

    per_trial = max(1, k) * cols * 8
    batch_size = max(1, min(config.trials, _BATCH_BUDGET // per_trial))
    draw = input_draw(config)
    kept = np.empty((config.trials, n + k), dtype=np.uint8) if keep_bits \
        else None

    for start in range(0, config.trials, batch_size):
        batch = range(start, min(start + batch_size, config.trials))
        b = len(batch)
        bits = np.zeros((b, n + k), dtype=np.uint8)
        u3 = np.empty((b, k, cols), dtype=np.float64) if k else None
        for row, trial in enumerate(batch):
            rng = generator(config.seed, trial)
            bits[row, :n] = draw(lambda: rng)
            if k:
                u3[row] = rng.random((k, cols))
        numer = bits[:, :n].sum(axis=1).astype(np.float64)
        rows_arange = np.arange(b)
        rec = 0
        if steps[rec] == 0:
            x[start:start + b, rec] = numer / n
            rec += 1
        for j in range(k):
            u = u3[:, j, :]
            which = np.searchsorted(cumw, u[:, 0], side="right")
            if alpha == 0:
                total = float(n + j)
                idx = np.minimum((u[:, 1:] * total).astype(np.int64), n + j - 1)
            else:
                total = n + cumweight[j]
                r = u[:, 1:] * total
                from_input = r < n
                idx_inputs = np.minimum(r, n - 1).astype(np.int64)
                z = np.maximum(r - n, 0.0)
                pos = np.searchsorted(cumweight, z.ravel(),
                                      side="right").reshape(z.shape) - 1
                pos = np.clip(pos, 0, max(j - 1, 0))
                idx = np.where(from_input, idx_inputs, n + pos)
            new = eval_blocks(trees, which, bits[rows_arange[:, None], idx])
            bits[:, n + j] = new
            numer += (new if alpha == 0 else new * item_w[j])
            if rec < len(steps) and steps[rec] == j + 1:
                denom = (n + j + 1) if alpha == 0 else (n + cumweight[j + 1])
                x[start:start + b, rec] = numer / denom
                rec += 1
        if k:
            final[start:start + b] = bits[:, n + k - 1]
        if keep_bits:
            kept[start:start + b] = bits
    return StreamTrace(steps=steps, x=x, final_bits=final, config=config,
                       bits=kept)


def _simulate_prefix(dist: TreeDistribution, config: StreamConfig,
                     keep_bits: bool = False) -> StreamTrace:
    trees, cumw, max_leaves = entry_table(dist)
    n, k, alpha = config.n, config.k, config.alpha
    cols = 1 + max_leaves
    steps = recorded_steps(n, k, alpha)
    step_index = {int(s): i for i, s in enumerate(steps)}
    x = np.empty((config.trials, len(steps)), dtype=np.float64)
    final = np.empty(config.trials, dtype=np.uint8) if k > 0 else None
    growth = math.exp(alpha)
    draw = input_draw(config)
    kept = np.empty((config.trials, n + k), dtype=np.uint8) if keep_bits \
        else None

    for trial in range(config.trials):
        rng = generator(config.seed, trial)
        bits0 = draw(lambda: rng)
        u = rng.random((k, cols)) if k else None
        ledger = PrefixSumTree(n + k)
        for i in range(n):
            ledger[i] = 1.0
        bits = np.empty(n + k, dtype=np.uint8)
        bits[:n] = bits0
        numer = float(bits0.sum())
        weight_next = 1.0
        if 0 in step_index:
            x[trial, step_index[0]] = numer / n
        for j in range(k):
            e = int(np.searchsorted(cumw, u[j, 0], side="right"))
            leafbits = tuple(
                int(bits[ledger.find_prefix(u[j, 1 + l] * ledger.total)])
                for l in range(trees[e].leaf_count))
            bit = eval_tree(trees[e], leafbits)
            ledger[n + j] = weight_next
            bits[n + j] = bit
            numer += weight_next * bit
            if weight_next > 1e250:
                factor = 1.0 / weight_next
                ledger.scale(factor)
                numer *= factor
                weight_next = 1.0
            weight_next *= growth
            if (j + 1) in step_index:
                x[trial, step_index[j + 1]] = numer / ledger.total
        if k:
            final[trial] = bits[n + k - 1]
        if keep_bits:
            kept[trial] = bits
    return StreamTrace(steps=steps, x=x, final_bits=final, config=config,
                       bits=kept)


# ---------------------------------------------------------------------------
# Phase analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseRow:
    index: int
    step_start: int
    step_end: int
    mean_start: float
    mean_end: float
    epsilon: float               # t - mean_start
    factor: float                # mean_end / mean_start
    expected_bound: float        # mean_start * (1 - epsilon (1-t) / 8)
    passed: bool


@dataclass(frozen=True)
class PhaseReport:
    rows: tuple[PhaseRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json(self) -> str:
        import json
        return json.dumps({
            "all_ok": self.all_ok,
            "phases": [{
                "step_start": r.step_start, "step_end": r.step_end,
                "mean_start": r.mean_start, "mean_end": r.mean_end,
                "epsilon": r.epsilon, "factor": r.factor,
                "expected_bound": r.expected_bound, "passed": r.passed,
            } for r in self.rows],
        }, sort_keys=True)


def phase_progress_report(trace: StreamTrace, t: float) -> PhaseReport:
    """Segment the trace into phases and check expected progress per phase.

    For the wild construction phases are pool doublings; for alpha > 0 they
    are the ceil(1/alpha)-stride marks.  Each phase checks, statistically
    over trials, that the mean end value obeys the expected-progress form
    mean_start * (1 - epsilon (1-t) / 8) up to three standard errors.
    Meaningful for below-threshold inputs (X converging to 0).
    """
    cfg = trace.config
    steps = [int(s) for s in trace.steps]
    if cfg.alpha == 0:
        marks = [s for s in steps
                 if s > 0 and (cfg.n + s) % cfg.n == 0
                 and _is_pow2((cfg.n + s) // cfg.n)]
        marks = [0] + marks
    else:
        stride = max(1, math.ceil(1.0 / cfg.alpha))
        marks = [s for s in steps if s % stride == 0]
    marks = [s for s in marks if s in steps]
    trials = trace.x.shape[0]
    rows = []
    for i in range(len(marks) - 1):
        i0, i1 = steps.index(marks[i]), steps.index(marks[i + 1])
        xs = trace.x[:, i0]
        xe = trace.x[:, i1]
        ms, me = float(xs.mean()), float(xe.mean())
        eps = t - ms
        bound = ms * (1.0 - eps * (1.0 - t) / 8.0)
        se = float(xe.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        rows.append(PhaseRow(
            index=i, step_start=marks[i], step_end=marks[i + 1],
            mean_start=ms, mean_end=me, epsilon=eps,
            factor=me / ms if ms > 0 else 0.0,
            expected_bound=bound, passed=bool(me <= bound + 3.0 * se)))
    return PhaseReport(rows=tuple(rows))


def _is_pow2(v: int) -> bool:
    return v >= 1 and (v & (v - 1)) == 0
