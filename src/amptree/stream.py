"""Wild and exponential iterative constructions.

A single growing pool: each new item samples a tree and wires its leaves
to existing items with probability proportional to item weight.  Weights
decay by e^-alpha per creation step; alpha = 0 is the wild construction.

Since every weight decays by the same factor, only relative weights
matter.  The default engine holds them relative to the item created at
step ``base`` (item j weighs e^(alpha*(j - base))) and samples by
inverting the cumulative ledger, vectorized across trials.  Before an
exponent passes 600 it rescales and moves ``base`` up, so the ledger
stays finite for any alpha*k.  The ``prefix_tree`` engine is a reference
only: at step j it writes every weight out from one table e^(-alpha*m),
relative to e^(alpha*j), and draws each leaf by ``searchsorted`` on
their cumulative sum.

The default engine takes 128 steps at a time, cut where the ledger
rescales.  Wiring reads uniforms and the ledger, never a bit, so a chunk
is wired at once, then evaluated with its own items set to each trial's
last earlier item; the items wired into the chunk are re-evaluated until
a round changes nothing.  Each item reads only earlier items, so the
chunk has one fixed point, and a round that changes nothing has found it.

Determinism: each trial owns generator PCG64(derive_seed(seed, trial));
it first draws the Bernoulli inputs (if any), then k rows of 1 + max_leaves
uniforms: column 0 picks the tree, the rest pick its leaves.  The default
engine draws them 128 rows at a time, the reference in one block; the
numbers are the same, so a run is bit-reproducible per (seed, trial)
however it is chunked or batched.
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

#: Steps drawn, wired and evaluated together.
_STEP_CHUNK = 128

#: Memory budget (bytes) per batch: its items and one chunk's buffers.
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
        """X after ``step`` creations, from the raw bits and the weight
        definition; an independent check on the engine's ledger."""
        if self.bits is None:
            raise ValueError("run simulate_stream with keep_bits=True")
        for name, value, top in (("trial", trial, self.config.trials - 1),
                                 ("step", step, self.config.k)):
            if isinstance(value, bool) or not isinstance(
                    value, (int, np.integer)) or not 0 <= value <= top:
                raise RangeError(f"{name} must be an integer in [0, {top}]: "
                                 f"{value!r}")
        decay = np.exp(-self.config.alpha * np.arange(step + 1))
        return _weighted_x(self.bits[trial], self.config.n, step, decay)


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


def _per_trial(n: int, k: int, cols: int) -> int:
    """Batch bytes per trial: its bits row and, per chunk step and column,
    uniforms (8 raw, 8 leaf-major), leaf indices (8 + 8) and a bit (1)."""
    return n + k + _STEP_CHUNK * cols * 33


def _simulate_vectorized(dist: TreeDistribution, config: StreamConfig,
                         keep_bits: bool = False) -> StreamTrace:
    trees, cumw, max_leaves = entry_table(dist)
    n, k, alpha = config.n, config.k, config.alpha
    cols, size = 1 + max_leaves, n + k
    steps = recorded_steps(n, k, alpha)
    x = np.empty((config.trials, len(steps)), dtype=np.float64)
    final = np.empty(config.trials, dtype=np.uint8) if k > 0 else None

    batch_size = max(1, min(config.trials,
                            _BATCH_BUDGET // _per_trial(n, k, cols)))
    draw = input_draw(config)
    kept = np.empty((config.trials, size), np.uint8) if keep_bits else None

    for start in range(0, config.trials, batch_size):
        batch = range(start, min(start + batch_size, config.trials))
        b = len(batch)
        bits = np.zeros((b, size), dtype=np.uint8)
        flat = bits.ravel()
        rngs = [generator(config.seed, trial) for trial in batch]
        for row, rng in enumerate(rngs):
            bits[row, :n] = draw(rng.random)
        u = np.empty((b, _STEP_CHUNK, cols))
        rows = np.arange(b)[:, None] * size
        # denom takes numer's steps with every item firing: numer <= denom.
        numer, denom = bits[:, :n].sum(axis=1).astype(np.float64), float(n)
        x[start:start + b, 0] = numer / n          # steps[0] == 0
        base, end, a = 0, 0, 0
        while a < k:
            c0 = a - a % _STEP_CHUNK
            if a == c0:
                for row, rng in enumerate(rngs):
                    rng.random(out=u[row, :min(_STEP_CHUNK, k - a)])
            if alpha > 0 and a + 1 > end:
                # Renormalize: weights relative to e^(alpha*a) up to end.
                numer *= math.exp(alpha * (base - a))
                denom *= math.exp(alpha * (base - a))
                base = a
                expo = alpha * (np.arange(k + 1, dtype=np.float64) - base)
                end = max(a + 1, int(np.searchsorted(
                    expo, _MAX_TOTAL_EXPONENT, side="right")) - 1)
                cumweight = ((np.expm1(expo[:end + 1])
                              - np.expm1(-alpha * base)) / np.expm1(alpha))
                item_w = np.exp(expo[base:end])
                w_in = math.exp(-alpha * base)        # one input's weight
                n_w = n * w_in
            z = min(c0 + _STEP_CHUNK, k, end if alpha > 0 else k)
            js, uz = np.arange(a, z), u[:, a - c0:z - c0]
            which = np.searchsorted(cumw, uz[..., 0], side="right")
            lv = np.moveaxis(uz[..., 1:], 2, 0).copy()    # (leaves, b, z - a)
            if alpha == 0:
                idx = np.minimum((lv * (n + js)).astype(np.int64), n + js - 1)
            else:
                r = lv * (n_w + cumweight[js])
                # r < n_w is false once w_in underflows; any divisor serves
                idx_inputs = np.minimum(np.minimum(r, n_w) / (w_in or 1.0),
                                        n - 1).astype(np.int64)
                pos = np.searchsorted(cumweight, np.maximum(r - n_w, 0.0),
                                      side="right") - 1
                idx = np.where(r < n_w, idx_inputs, n + np.minimum(
                    np.maximum(pos, 0), np.maximum(js - 1, 0)))
            at = (idx + rows).reshape(max_leaves, -1)
            which, out = which.ravel(), (rows + n + js).ravel()
            flat[out] = bits[:, n + a - 1].repeat(z - a)         # the guess
            flat[out] = eval_blocks(trees, which, flat[at].T)
            inner = np.flatnonzero((idx >= n + a).any(axis=0))
            at, which, out = at[:, inner], which[inner], out[inner]
            new = eval_blocks(trees, which, flat[at].T)
            while not np.array_equal(new, flat[out]):             # settle
                flat[out] = new
                new = eval_blocks(trees, which, flat[at].T)
            # Ledger: the same sequential adds as one step at a time.
            w = np.ones(z - a) if alpha == 0 else item_w[a - base:z - base]
            numers = np.add.accumulate(np.concatenate(
                (numer[:, None], bits[:, n + a:n + z] * w), axis=1), axis=1)
            denoms = np.add.accumulate(np.concatenate(((denom,), w)))
            lo, hi = np.searchsorted(steps, (a + 1, z + 1))
            hit = steps[lo:hi] - a
            x[start:start + b, lo:hi] = numers[:, hit] / denoms[hit]
            numer, denom, a = numers[:, -1], denoms[-1], z
        if k:
            final[start:start + b] = bits[:, n + k - 1]
        if keep_bits:
            kept[start:start + b] = bits
    return StreamTrace(steps=steps, x=x, final_bits=final, config=config,
                       bits=kept)


def _simulate_prefix(dist: TreeDistribution, config: StreamConfig,
                     keep_bits: bool = False) -> StreamTrace:
    """The reference engine: one item at a time, straight from the weights
    (relative to the newest step, an item m steps old weighs decay[m])."""
    trees, cumw, max_leaves = entry_table(dist)
    n, k = config.n, config.k
    steps = recorded_steps(n, k, config.alpha)
    decay = np.exp(-config.alpha * np.arange(k + 1))
    draw = input_draw(config)
    bits = np.empty((config.trials, n + k), dtype=np.uint8)
    for trial, row in enumerate(bits):
        rng = generator(config.seed, trial)
        row[:n] = draw(rng.random)
        u = rng.random((k, 1 + max_leaves))
        for j in range(k):
            tree = trees[np.searchsorted(cumw, u[j, 0], side="right")]
            idx = _draw_leaves(_weights(decay, n, j),
                               u[j, 1:1 + tree.leaf_count])
            row[n + j] = eval_tree(tree, row[idx])
    x = np.array([[_weighted_x(row, n, s, decay) for s in steps]
                  for row in bits])
    return StreamTrace(steps=steps, x=x,
                       final_bits=bits[:, -1].copy() if k else None,
                       config=config, bits=bits if keep_bits else None)


def _weights(decay: np.ndarray, n: int, step: int) -> np.ndarray:
    """The weights after ``step`` creations, relative to e^(alpha*step):
    decay[step] for each input, then decay[step - i] for item i."""
    return np.concatenate((np.full(n, decay[step]), decay[step:0:-1]))


def _draw_leaves(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One index per uniform, drawn in proportion to ``weights``; a draw
    that rounds to the total takes the last slot.  A slot of weight 0 adds
    nothing to the cumulative sum, so no draw lands on it."""
    cum = np.cumsum(weights)
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"),
                      len(weights) - 1)


def _weighted_x(bits: np.ndarray, n: int, step: int,
                decay: np.ndarray) -> float:
    """X after ``step`` creations.  The firing and total weights are summed
    alike over terms no larger, so X <= 1; with alpha = 0 both are exact."""
    w = _weights(decay, n, step)
    return float((w * bits[:n + step]).sum() / w.sum())


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
        return json.dumps({"all_ok": self.all_ok,
                           "phases": _phase_dicts(self.rows)},
                          sort_keys=True)


def _phase_dicts(rows: tuple[PhaseRow, ...]) -> list[dict]:
    """The rows as ``to_json`` and the CLI's stream summary write them."""
    return [{"step_start": r.step_start, "step_end": r.step_end,
             "mean_start": r.mean_start, "mean_end": r.mean_end,
             "epsilon": r.epsilon, "factor": r.factor,
             "expected_bound": r.expected_bound, "passed": r.passed}
            for r in rows]


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
