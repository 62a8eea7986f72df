"""Span recording for the traced benchmark run.

Only the traced run installs the recorder.  It rebinds the public callables
that one amptree module takes from another, so each call through those
bindings records a span: name, start, end, parent span and operation id.
Spans live in flat in-memory arrays and are written out once, at the end.
No file of the library changes; untraced runs never import this wrapping.

A span's self time is its duration minus the part of it that its child
spans cover.  Per-layer metrics are sums, counts and means over spans,
normalised per traced pass so that counts repeat exactly run to run.
"""
from __future__ import annotations

import array
import functools
import statistics
import time
from pathlib import Path

import numpy as np

from ops import CLI_UNCAUGHT, OP_SPAN

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("rng.generator_calls", "count"),
    ("rng.generator_us", "us"),
    ("rng.share", "ratio"),
    ("rng.self_s", "s"),
    ("trees.activation_calls", "count"),
    ("trees.activation_us", "us"),
    ("trees.self_s", "s"),
    ("polyalg.scan_calls", "count"),
    ("polyalg.scan_ms", "ms"),
    ("polyalg.evals_per_scan", "count"),
    ("polyalg.fixed_points_ms", "ms"),
    ("polyalg.self_s", "s"),
    ("catalog.build_ms", "ms"),
    ("catalog.evaluate_calls", "count"),
    ("catalog.evaluate_us", "us"),
    ("catalog.self_s", "s"),
    ("dynamics.verify_ms", "ms"),
    ("dynamics.profile_ms", "ms"),
    ("dynamics.corridor_ms", "ms"),
    ("dynamics.self_s", "s"),
    ("leveled.level_us", "us"),
    ("leveled.item_ns", "ns"),
    ("leveled.exact_ms", "ms"),
    ("leveled.exact_cell_ns", "ns"),
    ("leveled.self_s", "s"),
    ("stream.wild_item_ns", "ns"),
    ("stream.decay_item_ns", "ns"),
    ("stream.prefix_item_ns", "ns"),
    ("stream.eval_tree_calls", "count"),
    ("stream.phase_report_ms", "ms"),
    ("stream.self_s", "s"),
    ("learning.learn_ms", "ms"),
    ("learning.eval_item_ns", "ns"),
    ("learning.json_ms", "ms"),
    ("learning.self_s", "s"),
    ("cli.analyze_ms", "ms"),
    ("cli.simulate_exact_ms", "ms"),
    ("cli.simulate_leveled_ms", "ms"),
    ("cli.simulate_stream_ms", "ms"),
    ("cli.learn_ms", "ms"),
    ("cli.eval_ms", "ms"),
    ("cli.uncaught", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

LAYERS = ("rng", "trees", "polyalg", "catalog", "dynamics", "leveled",
          "stream", "learning", "cli")

#: Catalog constructors; a build span nested in another (quad_k -> quad4)
#: is counted once, through its outermost build span.
CONSTRUCTORS = ("valiant", "linear_threshold", "quad4", "quad5", "quad_k",
            "soft_threshold", "staircase")


class Recorder:
    """Spans in flat arrays: times in perf_counter nanoseconds.

    ``info`` keeps the (few) per-span annotations, keyed by span index.
    """

    def __init__(self):
        self.names: list[str] = []
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.info: dict[int, object] = {}
        self.stack: list[int] = []
        self.op_id = -1

    def open(self, name: str, info=None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        if info is not None:
            self.info[idx] = info
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn, info=None):
        """``fn`` recording one span per call; ``info(*args, **kwargs)``
        annotates the span with the work the call was given."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.open(name, None if info is None
                           else info(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)

        return traced

    def arrays(self):
        return (np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int64))

    def save(self, path: Path) -> None:
        """Write every span as numpy arrays (names as a string table)."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        start, end, parent = self.arrays()
        np.savez(path, names=np.array(table),
                 name_id=np.array([code[n] for n in self.names],
                                  dtype=np.int32),
                 start_ns=start, end_ns=end, parent=parent,
                 op=np.frombuffer(self.op, dtype=np.int64))


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval first, so an
    overlapping or overhanging child never drives self time negative.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    child = np.nonzero(parent >= 0)[0]
    if child.size == 0:
        return dur.copy()
    p = parent[child]
    s = np.maximum(start[child], start[p])
    e = np.maximum(np.minimum(end[child], end[p]), s)
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    first = np.r_[True, p[1:] != p[:-1]]
    # Shift each parent's children into their own disjoint time window so
    # that one running maximum sweeps all groups at once.
    base = int(start.min())
    window = int(end.max()) - base + 1
    shift = (np.cumsum(first) - 1) * window - base
    s, e = s + shift, e + shift
    prev = np.r_[0, np.maximum.accumulate(e)[:-1]]
    prev[first] = s[first]
    covered = np.maximum(0, e - np.maximum(s, prev))
    cover = np.zeros(len(start), dtype=np.int64)
    np.add.at(cover, p, covered)
    return dur - cover


# ---------------------------------------------------------------------------
# Instrumentation of amptree
# ---------------------------------------------------------------------------

def _leveled_info(dist, config):
    return {"trial_levels": config.trials * len(config.widths),
            "items": config.trials * sum(config.widths)}


def _exact_info(dist, m, p, levels):
    return {"cells": levels * (m + 1) ** 2}


#: alpha*k above which the library, when this benchmark was defined, left
#: the vectorized ledger for the pure-Python prefix-tree engine.  Spans are
#: labelled by configuration, so the metric follows these configurations
#: even if the library changes how it serves them.
PREFIX_EXPONENT = 600.0


def _stream_info(dist, config, engine="vectorized", keep_bits=False):
    if engine == "prefix_tree" or config.alpha * config.k > PREFIX_EXPONENT:
        path = "prefix"
    else:
        path = "wild" if config.alpha == 0 else "decay"
    return {"path": path, "items": config.trials * config.k}


def _learned_info(tree, *args, **kwargs):
    return {"items": tree.width * tree.levels}


def instrument(rec: Recorder):
    """Rebind amptree's cross-module callables to span-recording wrappers.

    Every module attribute that is the same object as a target is
    replaced, so a call is recorded whichever module made it.  Returns a
    function that restores the originals.
    """
    import amptree
    from amptree import (catalog, cli, dynamics, learning, leveled, polyalg,
                         rng, stream, trees)
    modules = (amptree, catalog, cli, dynamics, learning, leveled, polyalg,
               rng, stream, trees)
    targets = [
        (rng, "generator", (leveled, stream, learning), None),
        (trees, "activation", (catalog,), None),
        (polyalg, "scan_fixed_points", (catalog, polyalg), None),
        (trees, "eval_tree", (stream,), None),
        (polyalg, "fixed_points", modules, None),
        (dynamics, "verify_conditions", modules, None),
        (dynamics, "profile", modules, None),
        (dynamics, "certified_corridor", modules, None),
        (leveled, "simulate_leveled", modules, _leveled_info),
        (leveled, "exact_level_distribution", modules, _exact_info),
        (stream, "simulate_stream", modules, _stream_info),
        (stream, "phase_progress_report", modules, None),
        (learning, "learn_threshold", modules, None),
        (learning, "evaluate_learned", modules, _learned_info),
        (cli, "main", (cli,), None),
    ] + [(catalog, b, modules, None) for b in CONSTRUCTORS]
    undo = []
    for home, attr, where, info in targets:
        fn = getattr(home, attr, None)
        if fn is None:
            continue
        wrapped = rec.wrap(f"{home.__name__.rsplit('.', 1)[-1]}.{attr}", fn,
                           info)
        for mod in where:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, name, value))
                    setattr(mod, name, wrapped)
    for cls, attr, name in (
            (catalog.TreeDistribution, "evaluate", "catalog.evaluate"),
            (learning.LearnedTree, "to_json", "learning.to_json"),
            (learning.LearnedTree, "from_json", "learning.from_json")):
        original = vars(cls)[attr]
        undo.append((cls, attr, original))
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(rec.wrap(name, original.__func__)))
        else:
            setattr(cls, attr, rec.wrap(name, original))

    def restore():
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)

    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(rec: Recorder, passes: int, traced_pass_s: list[float],
                  untraced_pass_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from the spans of ``passes`` traced passes.

    Counts and self times are per pass; ``_us``/``_ms`` metrics are means
    per call; ``_ns`` metrics are time per unit of work.  A layer the
    workload does not reach reports 0.
    """
    start, end, parent = rec.arrays()
    dur = (end - start) / 1e9
    own = self_times(start, end, parent) / 1e9
    positions: dict[str, list[int]] = {}
    for i, name in enumerate(rec.names):
        positions.setdefault(name, []).append(i)
    by_name = {n: np.array(ix, dtype=np.int64) for n, ix in positions.items()}
    empty = np.array([], dtype=np.int64)

    def idx(name):
        return by_name.get(name, empty)

    def count(name):
        return idx(name).size / passes

    def mean(name, scale):
        ix = idx(name)
        return float(dur[ix].mean()) * scale if ix.size else 0.0

    def per_unit(ix, times, key, scale):
        work = sum(rec.info[i][key] for i in ix)
        return float(times[ix].sum()) / work * scale if work else 0.0

    traced_total = sum(traced_pass_s)
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, ix in by_name.items():
        key = f"{name.split('.', 1)[0]}.self_s"
        if key in out:
            out[key] += float(own[ix].sum()) / passes

    out["rng.generator_calls"] = count("rng.generator")
    out["rng.generator_us"] = mean("rng.generator", 1e6)
    out["rng.share"] = out["rng.self_s"] * passes / traced_total

    out["trees.activation_calls"] = count("trees.activation")
    out["trees.activation_us"] = mean("trees.activation", 1e6)

    scans = idx("polyalg.scan_fixed_points")
    out["polyalg.scan_calls"] = scans.size / passes
    out["polyalg.scan_ms"] = mean("polyalg.scan_fixed_points", 1e3)
    out["polyalg.evals_per_scan"] = (
        float(np.isin(parent, scans).sum()) / scans.size if scans.size
        else 0.0)
    out["polyalg.fixed_points_ms"] = mean("polyalg.fixed_points", 1e3)

    build_names = {f"catalog.{b}" for b in CONSTRUCTORS}
    builds = [i for n in build_names for i in idx(n)
              if parent[i] < 0 or rec.names[parent[i]] not in build_names]
    out["catalog.build_ms"] = float(dur[builds].sum()) * 1e3 / passes
    out["catalog.evaluate_calls"] = count("catalog.evaluate")
    out["catalog.evaluate_us"] = mean("catalog.evaluate", 1e6)

    out["dynamics.verify_ms"] = mean("dynamics.verify_conditions", 1e3)
    out["dynamics.profile_ms"] = mean("dynamics.profile", 1e3)
    out["dynamics.corridor_ms"] = mean("dynamics.certified_corridor", 1e3)

    lev = idx("leveled.simulate_leveled")
    out["leveled.level_us"] = per_unit(lev, own, "trial_levels", 1e6)
    out["leveled.item_ns"] = per_unit(lev, own, "items", 1e9)
    exact = idx("leveled.exact_level_distribution")
    out["leveled.exact_ms"] = mean("leveled.exact_level_distribution", 1e3)
    out["leveled.exact_cell_ns"] = per_unit(exact, dur, "cells", 1e9)

    sims = idx("stream.simulate_stream")
    for path in ("wild", "decay", "prefix"):
        ix = np.array([i for i in sims if rec.info[i]["path"] == path],
                      dtype=np.int64)
        out[f"stream.{path}_item_ns"] = per_unit(ix, dur, "items", 1e9)
    out["stream.eval_tree_calls"] = count("trees.eval_tree")
    out["stream.phase_report_ms"] = mean("stream.phase_progress_report", 1e3)

    out["learning.learn_ms"] = mean("learning.learn_threshold", 1e3)
    out["learning.eval_item_ns"] = per_unit(
        idx("learning.evaluate_learned"), dur, "items", 1e9)
    json_ix = np.r_[idx("learning.to_json"), idx("learning.from_json")]
    out["learning.json_ms"] = float(dur[json_ix.astype(np.int64)].sum()) \
        * 1e3 / passes

    cli_calls: dict[str, list[int]] = {}
    op_records = {rec.op[i]: rec.info[i] for i in idx(OP_SPAN)}
    for i in idx("cli.main"):
        key = op_records[rec.op[i]].cli
        if key is not None:
            cli_calls.setdefault(key, []).append(i)
    for key in ("analyze", "simulate_exact", "simulate_leveled",
                "simulate_stream", "learn", "eval"):
        ix = cli_calls.get(key, [])
        out[f"cli.{key}_ms"] = float(dur[ix].mean()) * 1e3 if ix else 0.0
    out["cli.uncaught"] = sum(
        1 for i in idx(OP_SPAN) if rec.info[i].outcome == CLI_UNCAUGHT
    ) / passes

    out["trace.overhead_frac"] = (statistics.median(traced_pass_s)
                                  / untraced_pass_s - 1.0)
    return {name: out[name] for name, _ in PER_LAYER}
