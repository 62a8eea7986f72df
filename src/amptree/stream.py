"""Wild and exponential iterative constructions.

A single growing pool: each new item samples a tree and wires its leaves
to existing items with probability proportional to item weight.  Weights
decay by e^-alpha per creation step; alpha = 0 is the wild construction.

Since every weight decays by the same factor, only relative weights
matter.  Both engines weigh each item relative to the newest one, from
one table per run (``_decay_table``): d[m] = e^(-alpha*m) for an item m
steps old, and A[a] = d[1] + ... + d[a].  At step j the default engine
draws r = u * (n*d[j] + A[j]) per leaf: input floor(r / d[j]) below
n*d[j], else the item whose age a search of A finds; it picks each tree
with ``blocks.pick``.  The ``prefix_tree`` engine is a reference only: at
step j it writes every weight out from the table and draws each leaf, and
the tree, by ``searchsorted`` on cumulative sums.

The default engine takes its steps in chunks: with alpha = 0 a chunk from
step a takes clamp((n + a) // 16, 128, 2048) steps, so chunks grow with the
pool; with alpha > 0 every chunk takes 128 (``_chunk_bounds``).  Wiring
reads uniforms and the table, never a bit, so a chunk is wired at once,
leaf-major into one buffer per batch.  Each trial's new items are one
slice of its bits row: they are set to the trial's last earlier item, then
evaluated once; the items wired into the chunk are re-evaluated until a
round changes nothing.  Each item reads only earlier items, so the chunk
has one fixed point, and a round that changes nothing has found it.  X is
then carried over the batch's bits from recorded step to recorded step
(``_carried``).  A batch holds at most 32 trials, and the batches run at
once on a thread pool with a worker per core the process may use (one
batch or one core: on the calling thread); numpy's draws, gathers, ufuncs
and searches release the GIL.

Determinism: each trial owns generator PCG64(derive_seed(seed, trial));
it first draws the Bernoulli inputs (if any), then k rows of 1 + max_leaves
uniforms: column 0 picks the tree, the rest pick its leaves.  The default
engine draws them a chunk's rows at a time, the reference in one block;
the numbers are the same, so a run is bit-reproducible per (seed, trial)
however it is chunked or batched, and its bits do not depend on how many
cores run it.  Generators are made on the calling thread, in trial order.
"""
from __future__ import annotations

import math
import os
import sys
from collections import deque
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .blocks import (check_inputs, entry_table, eval_blocks, index,
                     input_draw, pick)
from .catalog import TreeDistribution
from .errors import InputShapeError, RangeError, check_int, check_real
from .rng import generator
from .trees import eval_tree

#: e^alpha is a finite float up to this decay rate.
_MAX_ALPHA = math.log(sys.float_info.max)

#: Fewest and most steps drawn, wired and evaluated together
#: (``_chunk_bounds``).
_STEP_CHUNK = 128
_MAX_CHUNK = 2048

#: Most trials in one batch; batches run at once, one per core.
_BATCH_TRIALS = 32

#: Memory budget (bytes) of a run: its weight table and trace, and the
#: items, X carry and chunk buffers of the batches that run at once
#: (``_batch_bytes``).
_BATCH_BUDGET = 320_000_000

#: Longest piece of X's carry; fixed, so no chunk size changes X's bits.
_X_SPAN = 1024


@dataclass(frozen=True)
class StreamConfig:
    """Pool size, decay rate, seed and trial count for a streaming run."""

    n: int
    k: int
    alpha: float
    seed: int
    trials: int = 1
    input_p: float | None = None
    input_bits: Sequence[int] | None = None

    def __post_init__(self):
        check_inputs(self)
        object.__setattr__(self, "k", check_int(
            "items to create", self.k, 0, error=InputShapeError))
        object.__setattr__(self, "alpha", check_real(
            "decay rate alpha", self.alpha, 0, _MAX_ALPHA, "[]"))


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
        """X after ``step`` creations, summed afresh from the raw bits and
        the weight table; an independent check on the engine's carried X."""
        if self.bits is None:
            raise InputShapeError("run simulate_stream with keep_bits=True")
        trial = check_int("trial", trial, 0, self.config.trials - 1)
        step = check_int("step", step, 0, self.config.k)
        decay = _decay_table(self.config.alpha, step)[0]
        return _weighted_x(self.bits[trial], self.config.n, step, decay)


def recorded_steps(n: int, k: int, alpha: float) -> np.ndarray:
    """Creation counts at which X is recorded: pool doublings, every
    ceil(1/alpha) steps when alpha > 0, plus 0 and k.  Keeps trace memory
    logarithmic in k for the wild construction."""
    marks = np.sort(np.concatenate(
        ([k], _phase_marks(n, k, 0.0), _phase_marks(n, k, alpha))))
    return marks[np.diff(marks, prepend=-1) > 0]


def _phase_marks(n: int, k: int, alpha: float) -> np.ndarray:
    """Phase boundaries: 0 and the pool doublings n (2^i - 1) <= k for the
    wild construction, every ceil(1/alpha) steps up to k for alpha > 0."""
    if alpha > 0:
        return np.arange(0, k + 1, _stride(alpha, k), dtype=np.int64)
    marks, pool = [0], 2 * n
    while pool - n <= k:
        marks.append(pool - n)
        pool *= 2
    return np.array(marks, dtype=np.int64)


def _stride(alpha: float, k: int) -> int:
    """ceil(1/alpha) for alpha > 0, capped at k + 1 (a stride past k marks
    nothing), so that a subnormal alpha cannot overflow it."""
    return max(1, math.ceil(min(1.0 / alpha, k + 1)))


def simulate_stream(dist: TreeDistribution, config: StreamConfig,
                    engine: str = "vectorized",
                    keep_bits: bool = False) -> StreamTrace:
    """Run the streaming construction for every trial.

    X_j, the weighted fraction of firing items among the inputs and the
    first j creations, is computed from the bits and the weight table, not
    estimated.
    """
    if engine == "prefix_tree":
        return _simulate_prefix(dist, config, keep_bits)
    if engine != "vectorized":
        raise RangeError(f"unknown engine {engine!r}")
    return _simulate_vectorized(dist, config, keep_bits)


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                      # no affinity call here
        return os.cpu_count() or 1


def _chunk_bounds(n: int, k: int, alpha: float) -> list[tuple[int, int]]:
    """Each chunk's steps [a, z).  With alpha = 0 a chunk from step a takes
    clamp((n + a) // 16, ``_STEP_CHUNK``, ``_MAX_CHUNK``) steps: a leaf
    lands inside its own chunk with probability about 1/16 or less, so the
    settle rounds stay few while each chunk's fixed cost is spread over
    more steps as the pool grows.  With alpha > 0 every chunk takes
    ``_STEP_CHUNK`` steps: the recent items carry most of the weight, so a
    longer chunk would settle over longer chains."""
    bounds, a = [], 0
    while a < k:
        size = (min(max((n + a) // 16, _STEP_CHUNK), _MAX_CHUNK)
                if alpha == 0 else _STEP_CHUNK)
        bounds.append((a, min(a + size, k)))
        a = bounds[-1][1]
    return bounds


def _batch_bytes(config: StreamConfig, cols: int, steps: np.ndarray,
                 chunk: int) -> tuple[int, int, int]:
    """Bytes a run holds whatever its batches, bytes each running batch
    holds whatever its size, and bytes per trial of a batch, when the
    longest chunk takes ``chunk`` steps.  X's carry keeps a row per
    recorded step and per ``_X_SPAN`` items.  The run holds the weight
    table and every trial's row of the trace.  A batch holds 48 bytes per
    carry row (the total weight's column, in the carry and in its gather at
    the recorded steps, and the rows' index arrays), five ``_X_SPAN`` rows
    (the carry's total-weight row, a piece's weights and their indices) and
    56 bytes per chunk step (the steps, their decay and age entries and
    their sums).  A trial holds its bits row, its generator (about 1.6 KB),
    X's carry buffer, 16 bytes per carry row (its column in the carry and
    in the gather) and, per chunk step, 40 bytes for the settle set's
    positions and per column: 8 for the uniforms, 8 for the leaf-major
    buffer, 8 for the settle set's leaves and, when alpha > 0, 24 for the
    last chunk's indices, the age search's key and its result."""
    n, k, trials = config.n, config.k, config.trials
    rows = len(steps) + -(-k // _X_SPAN)
    per_column = 48 if config.alpha > 0 else 24
    return (16 * (k + 1) + trials * (8 * len(steps) + 1),
            48 * rows + 40 * _X_SPAN + 56 * chunk,
            n + k + 1600 + 8 * _X_SPAN + 16 * rows
            + chunk * (40 + per_column * cols))


def _simulate_vectorized(dist: TreeDistribution, config: StreamConfig,
                         keep_bits: bool = False) -> StreamTrace:
    trees, cumw, max_leaves = entry_table(dist)
    n, k, alpha, trials = config.n, config.k, config.alpha, config.trials
    cols, size = 1 + max_leaves, n + k
    steps = recorded_steps(n, k, alpha)
    decay, ages = _decay_table(alpha, k)
    bounds = _chunk_bounds(n, k, alpha)
    longest = max((z - a for a, z in bounds), default=0)
    x = np.empty((trials, len(steps)), dtype=np.float64)
    final = np.empty(trials, dtype=np.uint8) if k > 0 else None

    # The batches that run at once share the budget.
    cores = _cores()
    run_bytes, per_batch, per_trial = _batch_bytes(config, cols, steps,
                                                   longest)
    fits = ((_BATCH_BUDGET - run_bytes) // cores - per_batch) // per_trial
    batch_size = max(1, min(_BATCH_TRIALS, trials, fits))
    workers = min(cores, -(-trials // batch_size))
    draw = input_draw(config)
    kept = np.empty((trials, size), np.uint8) if keep_bits else None

    def run_batch(start: int, rngs: list[np.random.Generator]) -> None:
        """Trials start, start + 1, ... with their generators: this batch
        writes only its own rows of x, final and kept."""
        b = len(rngs)
        bits = np.zeros((b, size), dtype=np.uint8)
        flat = bits.ravel()
        for row, rng in enumerate(rngs):
            bits[row, :n] = draw(rng.random)
        u = np.empty((b, longest, cols))
        # Leaf-major (leaves, b, steps): leaf indices, or draws when alpha > 0.
        wired = np.empty(max_leaves * b * longest,
                         np.int64 if alpha == 0 else np.float64)
        rows = np.arange(b)[:, None] * size
        for a, z in bounds:
            for row, rng in enumerate(rngs):
                rng.random(out=u[row, :z - a])
            js, uz = np.arange(a, z), u[:, :z - a]
            which = pick(cumw, uz[..., 0]).ravel()
            lv = np.moveaxis(uz[..., 1:], 2, 0)
            leaf = wired[:lv.size].reshape(lv.shape)
            if alpha == 0:
                idx = index(lv, n + js, out=leaf)
            else:
                # An input weighs d[j]; item j - 1 - g weighs d[g + 1].
                d_j = decay[js]
                nd, a_j = n * d_j, ages[np.minimum(js, len(ages) - 1)]
                r = np.multiply(lv, nd + a_j, out=leaf)
                idx = np.searchsorted(ages, a_j - (r - nd))
                idx -= 1                                # the age, then clamped
                np.subtract(n + js - 1, np.maximum(idx, 0, out=idx), out=idx)
                inputs = np.minimum(r, nd)     # d[j] = 0: no input drawn
                inputs /= np.where(d_j > 0, d_j, 1.0)
                np.minimum(inputs, n - 1, out=inputs)
                np.copyto(idx, inputs, casting="unsafe", where=r < nd)
            inner = np.flatnonzero((idx >= n + a).any(axis=0))
            idx += rows
            at = idx.reshape(max_leaves, -1)
            made = bits[:, n + a:n + z]
            made[:] = bits[:, n + a - 1, None]                    # the guess
            made[:] = eval_blocks(trees, which, flat[at].T).reshape(b, -1)
            trial, step = np.divmod(inner, z - a)
            out = trial * size + n + a + step
            at, which = at[:, inner], which[inner]
            new = eval_blocks(trees, which, flat[at].T)
            while not np.array_equal(new, flat[out]):             # settle
                flat[out] = new
                new = eval_blocks(trees, which, flat[at].T)
        carried = _carried(bits, n, steps, decay)
        np.divide(carried[:-1], carried[-1], out=x[start:start + b])
        if k:
            final[start:start + b] = bits[:, n + k - 1]
        if keep_bits:
            kept[start:start + b] = bits

    def rngs(start: int) -> list[np.random.Generator]:
        return [generator(config.seed, trial)
                for trial in range(start, min(start + batch_size, trials))]

    # Generators are made here, on the calling thread, in trial order, each
    # batch's once a worker is free for it: only running batches hold theirs.
    if workers == 1:
        for start in range(0, trials, batch_size):
            run_batch(start, rngs(start))
    else:
        # Imported here: it pulls in logging, about 0.7 MB of RSS that a
        # run on one thread, or with no stream at all, need not hold.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            running: deque = deque()
            for start in range(0, trials, batch_size):
                if len(running) == workers:
                    running.popleft().result()
                running.append(pool.submit(run_batch, start, rngs(start)))
            for future in running:
                future.result()
    return StreamTrace(steps=steps, x=x, final_bits=final, config=config,
                       bits=kept)


def _simulate_prefix(dist: TreeDistribution, config: StreamConfig,
                     keep_bits: bool = False) -> StreamTrace:
    """The reference engine: one item at a time, straight from the weights
    (relative to the newest step, an item m steps old weighs decay[m])."""
    trees, cumw, max_leaves = entry_table(dist)
    n, k = config.n, config.k
    steps = recorded_steps(n, k, config.alpha)
    decay = _decay_table(config.alpha, k)[0]
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


def _decay_table(alpha: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The run's weights relative to the newest item: d[m] = e^(-alpha*m),
    m = 0..k, and A[a] = d[1] + ... + d[a] while d > 0.  ``math.exp``,
    unlike numpy's exp ufunc, gives the same bits at every SIMD level.
    Built in place, the two tables are the most the build holds."""
    d = np.arange(k + 1, dtype=np.float64)
    d *= -alpha
    d = np.fromiter(map(math.exp, d), float, k + 1)
    ages = np.zeros(np.count_nonzero(d))
    np.cumsum(d[1:len(ages)], out=ages[1:])
    return d, ages


def _carried(bits: np.ndarray, n: int, steps: np.ndarray,
             decay: np.ndarray) -> np.ndarray:
    """Each row's firing weight at every recorded step, relative to the
    newest item, and last the total weight, carried alike with every bit 1.
    Over each piece [p, e), cut at the recorded steps and every ``_X_SPAN``
    items, w <- d[e - p] * w + the piece's bits weighed d[e - p], ..., d[1]:
    X <= 1 exactly, and no chunk or batch size changes X's bits."""
    k = len(decay) - 1
    bounds = np.sort(np.concatenate((steps, np.arange(0, k, _X_SPAN))))
    bounds = bounds[np.diff(bounds, prepend=-1) > 0]
    weighed = np.empty((len(bits) + 1, _X_SPAN))
    carried = np.empty((len(bounds), len(bits) + 1))
    carried[0] = np.append(bits[:, :n].sum(axis=1, dtype=np.float64), n)
    i = 0
    for q in range(0, k, _X_SPAN):
        cut = bounds[(bounds >= q) & (bounds <= q + _X_SPAN)]
        w = decay[np.repeat(cut[1:], np.diff(cut)) - np.arange(q, cut[-1])]
        np.multiply(bits[:, n + q:n + cut[-1]], w, out=weighed[:-1, :len(w)])
        weighed[-1, :len(w)] = w
        sums = np.add.reduceat(weighed[:, :len(w)], cut[:-1] - q, axis=1)
        for m, piece in zip(np.diff(cut).tolist(), sums.T):
            np.add(decay[m] * carried[i], piece, out=carried[i + 1])
            i += 1
    return carried[np.searchsorted(bounds, steps)].T


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

    Raises RangeError unless t is a finite real number in (0, 1).
    """
    t = check_real("threshold t", t, 0, 1)
    cfg = trace.config
    marks = _phase_marks(cfg.n, cfg.k, cfg.alpha).tolist()
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
