"""Wild and exponential iterative constructions.

A single growing pool: each new item samples a tree and wires its leaves
to existing items with probability proportional to item weight.  Weights
decay by e^-alpha per creation step; alpha = 0 is the wild construction.

Since every weight decays by the same factor, only relative weights
matter.  The default engine holds them relative to the item created at
step ``base`` (item j weighs e^(alpha*(j - base))) and samples by
inverting the cumulative ledger, vectorized across trials.  Before an
exponent passes 600 it rescales and moves ``base`` up, so the ledger
stays finite for any alpha*k.  The ``prefix_tree`` engine keeps an
explicit prefix-sum tree with O(log N) draws; it is a reference only.

Determinism: each trial owns generator PCG64(derive_seed(seed, trial));
it first draws the Bernoulli inputs (if any), then k rows of 1 + max_leaves
uniforms: column 0 picks the tree, the rest pick its leaves.  The default
engine draws them in step chunks, the reference in one block; the numbers
are the same, so a run is bit-reproducible per (seed, trial) however it
is chunked or batched.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .blocks import check_inputs, entry_table, eval_blocks, input_draw
from .catalog import TreeDistribution
from .errors import InputShapeError, RangeError
from .rng import generator
from .trees import eval_tree

#: The ledger is renormalized before a weight's exponent passes this.
_MAX_TOTAL_EXPONENT = 600.0

#: e^alpha is a finite float up to this decay rate.
_MAX_ALPHA = math.log(sys.float_info.max)

#: Uniform rows drawn from each trial's generator at a time.
_STEP_CHUNK = 1024

#: Memory budget (bytes) per batch: its items and one chunk of uniforms.
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
        if not 0.0 <= self.alpha <= _MAX_ALPHA:
            raise RangeError(f"decay rate alpha must be a number in "
                             f"[0, {_MAX_ALPHA:.2f}]: {self.alpha}")


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
        # Weights relative to e^(alpha*step), as the ledger holds them.
        w_in = math.exp(-alpha * step)
        weights = np.exp(alpha * (np.arange(step) - step))
        numer = float(row[:n].sum()) * w_in + float(weights @ row[n:n + step])
        return numer / (n * w_in + float(weights.sum()))


def recorded_steps(n: int, k: int, alpha: float) -> np.ndarray:
    """Creation counts at which X is recorded: pool doublings, every
    ceil(1/alpha) steps when alpha > 0, plus 0 and k.  Keeps trace memory
    logarithmic in k for the wild construction."""
    marks = {k, *_phase_marks(n, k, 0.0), *_phase_marks(n, k, alpha)}
    return np.array(sorted(marks), dtype=np.int64)


def _phase_marks(n: int, k: int, alpha: float) -> list[int]:
    """Phase boundaries: 0 and the pool doublings n (2^i - 1) <= k for the
    wild construction, every ceil(1/alpha) steps up to k for alpha > 0."""
    if alpha > 0:
        return list(range(0, k + 1, _stride(alpha, k)))
    marks, pool = [0], 2 * n
    while pool - n <= k:
        marks.append(pool - n)
        pool *= 2
    return marks


def _stride(alpha: float, k: int) -> int:
    """ceil(1/alpha) for alpha > 0, capped at k + 1 (a stride past k marks
    nothing), so that a subnormal alpha cannot overflow it."""
    return max(1, math.ceil(min(1.0 / alpha, k + 1)))


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
    return _simulate_vectorized(dist, config, keep_bits)


def _simulate_vectorized(dist: TreeDistribution, config: StreamConfig,
                         keep_bits: bool = False) -> StreamTrace:
    trees, cumw, max_leaves = entry_table(dist)
    n, k, alpha = config.n, config.k, config.alpha
    cols = 1 + max_leaves
    steps = recorded_steps(n, k, alpha)
    x = np.empty((config.trials, len(steps)), dtype=np.float64)
    final = np.empty(config.trials, dtype=np.uint8) if k > 0 else None

    per_trial = n + k + _STEP_CHUNK * cols * 8
    batch_size = max(1, min(config.trials, _BATCH_BUDGET // per_trial))
    draw = input_draw(config)
    kept = np.empty((config.trials, n + k), dtype=np.uint8) if keep_bits \
        else None

    for start in range(0, config.trials, batch_size):
        batch = range(start, min(start + batch_size, config.trials))
        b = len(batch)
        bits = np.zeros((b, n + k), dtype=np.uint8)
        rngs = [generator(config.seed, trial) for trial in batch]
        for row, rng in enumerate(rngs):
            bits[row, :n] = draw(rng.random)
        numer = bits[:, :n].sum(axis=1).astype(np.float64)
        # denom takes numer's steps with every item firing: numer <= denom.
        denom = float(n)
        rows_arange = np.arange(b)
        x[start:start + b, 0] = numer / n          # steps[0] == 0
        rec, base, end = 1, 0, 0
        for j in range(k):
            if j % _STEP_CHUNK == 0:
                rows = min(_STEP_CHUNK, k - j)
                u3 = np.stack([rng.random((rows, cols)) for rng in rngs])
            u = u3[:, j % _STEP_CHUNK, :]
            which = np.searchsorted(cumw, u[:, 0], side="right")
            if alpha == 0:
                total = float(n + j)
                idx = np.minimum((u[:, 1:] * total).astype(np.int64), n + j - 1)
            else:
                if j + 1 > end:
                    # Renormalize: weights relative to e^(alpha*j) up to end.
                    numer *= math.exp(alpha * (base - j))
                    denom *= math.exp(alpha * (base - j))
                    base = j
                    expo = alpha * (np.arange(k + 1, dtype=np.float64) - base)
                    end = max(j + 1, int(np.searchsorted(
                        expo, _MAX_TOTAL_EXPONENT, side="right")) - 1)
                    cumweight = ((np.expm1(expo[:end + 1])
                                  - np.expm1(-alpha * base)) / np.expm1(alpha))
                    item_w = np.exp(expo[base:end])
                    w_in = math.exp(-alpha * base)        # one input's weight
                    n_w = n * w_in
                total = n_w + cumweight[j]
                r = u[:, 1:] * total
                # r < n_w is false once w_in underflows; any divisor serves
                idx_inputs = np.minimum(np.minimum(r, n_w) / (w_in or 1.0),
                                        n - 1).astype(np.int64)
                z = np.maximum(r - n_w, 0.0)
                pos = np.searchsorted(cumweight, z.ravel(),
                                      side="right").reshape(z.shape) - 1
                idx = np.where(r < n_w, idx_inputs,
                               n + np.clip(pos, 0, max(j - 1, 0)))
            new = eval_blocks(trees, which, bits[rows_arange[:, None], idx])
            bits[:, n + j] = new
            numer += (new if alpha == 0 else new * item_w[j - base])
            denom += 1.0 if alpha == 0 else item_w[j - base]
            if rec < len(steps) and steps[rec] == j + 1:
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
        bits0 = draw(rng.random)
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
    marks = _phase_marks(cfg.n, cfg.k, cfg.alpha)
    cols = np.searchsorted(trace.steps, marks)
    trials = trace.x.shape[0]
    rows = []
    for i in range(len(marks) - 1):
        xs = trace.x[:, cols[i]]
        xe = trace.x[:, cols[i + 1]]
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
