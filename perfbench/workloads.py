"""The four workloads: inputs made from the seed, and one pass of operations.

``setup(name, seed, workdir)`` builds every input of a workload, and the
temp files its CLI calls read, and returns the list of operations of one
pass, issued in order by one caller.  Sizes are fixed here: the seed
changes the inputs, never the amount of work.  Why each workload exists,
and which layers it stresses and bypasses, is recorded in
``perfbench/layers.json``.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from amptree import catalog, cli, dynamics, learning, leveled, polyalg, stream
from ops import Op, run_cli

WORKLOADS = ("leveled-narrow", "leveled-wide", "stream", "analysis")

#: Monte Carlo means must match exact values within this many standard
#: errors.  Checks run on every pass of every run, so the multiple is set
#: for a negligible false-alarm rate over thousands of checks.
MC_SIGMAS = 5.0

#: Learned traces must match leveled linear_threshold(0.5) traces within
#: this many standard errors of the difference of the two means.
TRACE_SIGMAS = 7.0

#: Learned structures must classify +-0.05-margin probes at least this well.
MIN_AGREEMENT = 0.95


@dataclass
class Workload:
    ops: list[Op]
    items: int               # simulated items per pass (analysis: operations)


def setup(name: str, seed: int, workdir: Path) -> Workload:
    make = {"leveled-narrow": leveled_narrow,
            "leveled-wide": leveled_wide,
            "stream": streaming,
            "analysis": analysis}
    return make[name](seed, workdir)


def derive(seed: int, *keys: int) -> int:
    """A 32-bit simulation seed for ``keys`` under the workload seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def shuffled_bits(rng: np.random.Generator, n: int, ones: int) -> list[int]:
    bits = np.zeros(n, dtype=np.uint8)
    bits[:ones] = 1
    rng.shuffle(bits)
    return [int(b) for b in bits]


def csv_text(trace) -> str:
    buf = io.StringIO()
    trace.write_csv(buf)
    return buf.getvalue()


def csv_bytes(trace) -> bytes:
    return csv_text(trace).encode()


def cli_matches(reference_op: str, render=lambda v: v):
    """Check that a CLI call exits 0 and prints, byte for byte, what the
    library call ``reference_op`` produced earlier in the pass."""
    def check(res, results):
        if res.code != 0:
            return f"exit code {res.code}: {res.err.strip()[-200:]}"
        if res.out.encode() != render(results[reference_op]).encode():
            return f"CLI output differs from library output {reference_op}"
        return None
    return check


def clean_exit(res, results):
    """An invalid input must end in a nonzero exit code."""
    if res.code == 0:
        return "invalid input exited 0"
    return None


# ---------------------------------------------------------------------------
# leveled-narrow: many trials of narrow levels (the Criterion 7 shape)
# ---------------------------------------------------------------------------

NARROW_M, NARROW_LEVELS, NARROW_N, NARROW_TRIALS = 200, 20, 200, 2000
NARROW_P, NARROW_ONES, NARROW_CLI_TRIALS = 0.45, 90, 100


def leveled_narrow(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    bits = tuple(shuffled_bits(rng, NARROW_N, NARROW_ONES))
    m, levels = NARROW_M, NARROW_LEVELS
    widths = (m,) * levels
    dists = {"quad4": catalog.quad4(0.5),
             "linear": catalog.linear_threshold(0.5)}
    ops: list[Op] = []
    for label, dist in dists.items():
        ops.append(Op(f"exact.{label}",
                      lambda r, d=dist: leveled.exact_level_distribution(
                          d, m, NARROW_P, levels)[0],
                      check=_probability))
    for i, (label, dist) in enumerate(dists.items()):
        cfg = leveled.LevelConfig(widths=widths, n=NARROW_N,
                                  seed=derive(seed, 1, i),
                                  trials=NARROW_TRIALS, input_bits=bits)
        ops.append(Op(f"leveled.{label}",
                      lambda r, d=dist, c=cfg: leveled.simulate_leveled(d, c),
                      check=_matches_exact(f"exact.{label}"),
                      digest=csv_bytes, items=cfg.trials * sum(widths)))
    cli_seed = derive(seed, 2)
    cli_cfg = leveled.LevelConfig(widths=widths, n=NARROW_N, seed=cli_seed,
                                  trials=NARROW_CLI_TRIALS, input_p=NARROW_P)
    argv = ["simulate", "--construction", "quad4", "--t", "0.5",
            "--mode", "leveled", "--m", str(m), "--levels", str(levels),
            "--n", str(NARROW_N), "--p", str(NARROW_P),
            "--trials", str(NARROW_CLI_TRIALS), "--seed", str(cli_seed),
            "--format", "csv"]
    cli_items = cli_cfg.trials * sum(widths)
    ops.append(Op("leveled.cli_reference",
                  lambda r: csv_text(leveled.simulate_leveled(
                      catalog.quad4(0.5), cli_cfg)),
                  digest=str.encode, items=cli_items))
    ops.append(Op("cli.simulate_leveled", lambda r: run_cli(cli, argv),
                  check=cli_matches("leveled.cli_reference"),
                  items=cli_items, cli="simulate_leveled"))
    return Workload(ops, sum(op.items for op in ops))


def _probability(value, results):
    return None if 0.0 < value < 1.0 else f"probability {value} not in (0,1)"


def _matches_exact(exact_op: str):
    def check(trace, results):
        last = trace.fractions[:, -1]
        exact = results[exact_op]
        se = float(last.std(ddof=1)) / math.sqrt(last.size)
        diff = abs(float(last.mean()) - exact)
        if not diff <= MC_SIGMAS * se:
            return (f"last-level mean {last.mean():.5f} vs exact "
                    f"{exact:.5f}: {diff:.5f} > {MC_SIGMAS} * {se:.5f}")
        return None
    return check


# ---------------------------------------------------------------------------
# leveled-wide: few trials of wide levels, and learning (Criterion 11 shape)
# ---------------------------------------------------------------------------

WIDE_M, WIDE_LEVELS, WIDE_N, WIDE_TRIALS = 20_000, 40, 200, 8
WIDE_LEARNED = 8             # learned structures per pass


def leveled_wide(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    n, m, levels = WIDE_N, WIDE_M, WIDE_LEVELS
    example = shuffled_bits(rng, n, n // 2)
    probe = shuffled_bits(rng, n, 90)
    margin = [(shuffled_bits(rng, n, 90), shuffled_bits(rng, n, 110))
              for _ in range(WIDE_LEARNED)]
    x_file, input_file = workdir / "x.json", workdir / "input.json"
    learned_file = workdir / "learned.json"
    x_file.write_text(json.dumps(example))
    input_file.write_text(json.dumps(probe))
    lt = catalog.linear_threshold(0.5)
    cfg = leveled.LevelConfig(widths=(m,) * levels, n=n, seed=derive(seed, 1),
                              trials=WIDE_TRIALS, input_bits=tuple(probe))
    learn_seeds = [derive(seed, 2, i) for i in range(WIDE_LEARNED)]
    learned_items = m * levels
    ops = [Op("leveled.linear_wide",
              lambda r: leveled.simulate_leveled(lt, cfg),
              digest=csv_bytes, items=cfg.trials * m * levels)]
    for i, s in enumerate(learn_seeds):
        lo, hi = margin[i]
        ops += [
            Op(f"learn.{i}", lambda r, s=s: learning.learn_threshold(
                levels, m, example, s)),
            Op(f"eval.trace.{i}", lambda r, i=i: learning.evaluate_learned(
                r[f"learn.{i}"], probe, return_trace=True),
               items=learned_items),
            Op(f"eval.margin.{i}", lambda r, i=i, lo=lo, hi=hi: (
                learning.evaluate_learned(r[f"learn.{i}"], lo),
                learning.evaluate_learned(r[f"learn.{i}"], hi)),
               items=2 * learned_items),
        ]
    # Checked once, when every learned structure of the pass is evaluated.
    ops[-1].check = _learning_checks
    ops.append(Op("learn.to_json", lambda r: r["learn.0"].to_json(),
                  digest=str.encode))
    learn_argv = ["learn", "--x-file", str(x_file), "--levels", str(levels),
                  "--width", str(m), "--seed", str(learn_seeds[0]),
                  "--out", str(learned_file)]
    ops.append(Op("cli.learn", lambda r: run_cli(cli, learn_argv),
                  check=_learned_file_matches(learned_file), cli="learn"))
    eval_argv = ["eval", "--learned-file", str(learned_file),
                 "--input-file", str(input_file)]
    ops.append(Op("cli.eval", lambda r: run_cli(cli, eval_argv),
                  check=cli_matches("eval.trace.0", lambda v: json.dumps(
                      {"firing_fraction": v[0]}) + "\n"),
                  items=learned_items, cli="eval"))
    return Workload(ops, sum(op.items for op in ops))


def _learning_checks(value, results):
    """Learned traces against leveled linear_threshold(0.5) traces, level
    by level, and learned agreement on +-0.05-margin probes."""
    sim = results["leveled.linear_wide"].fractions
    learned = np.array([results[f"eval.trace.{i}"][1]
                        for i in range(WIDE_LEARNED)])
    for lvl in range(sim.shape[1]):
        a, b = learned[:, lvl], sim[:, lvl]
        se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        diff = abs(a.mean() - b.mean())
        if not diff <= max(TRACE_SIGMAS * se, 1e-9):
            return (f"level {lvl}: learned mean {a.mean():.5f} vs leveled "
                    f"{b.mean():.5f}: {diff:.5f} > {TRACE_SIGMAS} * {se:.5f}")
    agree = [s for i in range(WIDE_LEARNED)
             for s in (1.0 - results[f"eval.margin.{i}"][0],
                       results[f"eval.margin.{i}"][1])]
    rate = float(np.mean(agree))
    if rate < MIN_AGREEMENT:
        return f"agreement {rate:.4f} < {MIN_AGREEMENT}"
    return None


def _learned_file_matches(path: Path):
    def check(res, results):
        if res.code != 0:
            return f"exit code {res.code}: {res.err.strip()[-200:]}"
        if path.read_bytes() != (results["learn.to_json"] + "\n").encode():
            return "learned file differs from LearnedTree.to_json()"
        return None
    return check


# ---------------------------------------------------------------------------
# stream: one growing pool, wild and exponential
# ---------------------------------------------------------------------------

WILD_N, WILD_K, WILD_TRIALS, WILD_ONES = 128, 50_000, 201, 51
DECAY_N, DECAY_K, DECAY_ALPHA, DECAY_TRIALS, DECAY_ONES = \
    600, 8_000, 0.002, 20, 240
PREFIX_ALPHA, PREFIX_TRIALS = 0.1, 2          # alpha * k = 800 > 600
STREAM_CLI = dict(n=64, k=4_000, trials=10, p=0.4)


def streaming(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    lt = catalog.linear_threshold(0.5)
    wild_bits = tuple(shuffled_bits(rng, WILD_N, WILD_ONES))
    decay_bits = tuple(shuffled_bits(rng, DECAY_N, DECAY_ONES))
    configs = {
        "wild": stream.StreamConfig(n=WILD_N, k=WILD_K, alpha=0.0,
                                    seed=derive(seed, 1), trials=WILD_TRIALS,
                                    input_bits=wild_bits),
        "decay": stream.StreamConfig(n=DECAY_N, k=DECAY_K, alpha=DECAY_ALPHA,
                                     seed=derive(seed, 2),
                                     trials=DECAY_TRIALS,
                                     input_bits=decay_bits),
        "prefix": stream.StreamConfig(n=DECAY_N, k=DECAY_K,
                                      alpha=PREFIX_ALPHA,
                                      seed=derive(seed, 3),
                                      trials=PREFIX_TRIALS,
                                      input_bits=decay_bits),
    }
    ops = [Op(f"stream.{label}",
              lambda r, c=cfg: stream.simulate_stream(lt, c),
              check=_stream_sane, digest=csv_bytes, items=cfg.trials * cfg.k)
           for label, cfg in configs.items()]
    ops.append(Op("stream.phase_report",
                  lambda r: stream.phase_progress_report(r["stream.wild"],
                                                         0.5),
                  digest=lambda rep: rep.to_json().encode()))

    c = STREAM_CLI
    cli_seed = derive(seed, 4)
    cli_cfg = stream.StreamConfig(n=c["n"], k=c["k"], alpha=0.0,
                                  seed=cli_seed, trials=c["trials"],
                                  input_p=c["p"])
    argv = ["simulate", "--construction", "linear", "--t", "0.5",
            "--mode", "stream", "--n", str(c["n"]), "--k", str(c["k"]),
            "--alpha", "0", "--p", str(c["p"]), "--trials", str(c["trials"]),
            "--seed", str(cli_seed), "--format", "csv"]
    cli_items = c["trials"] * c["k"]
    ops.append(Op("stream.cli_reference",
                  lambda r: csv_text(stream.simulate_stream(
                      catalog.linear_threshold(0.5), cli_cfg)),
                  digest=str.encode, items=cli_items))
    ops.append(Op("cli.simulate_stream", lambda r: run_cli(cli, argv),
                  check=cli_matches("stream.cli_reference"), items=cli_items,
                  cli="simulate_stream"))

    small_bits = tuple(shuffled_bits(rng, 32, 13))
    kept = stream.StreamConfig(n=32, k=2_000, alpha=0.01,
                               seed=derive(seed, 5), trials=3,
                               input_bits=small_bits)
    ops.append(Op("stream.keep_bits",
                  lambda r: stream.simulate_stream(lt, kept, keep_bits=True),
                  check=_ledger_matches, items=kept.trials * kept.k))
    for label, alpha in (("wild", 0.0), ("decay", 0.01)):
        small = stream.StreamConfig(n=32, k=1_500, alpha=alpha,
                                    seed=derive(seed, 6), trials=2,
                                    input_bits=small_bits)
        ops.append(Op(f"stream.engine_vectorized.{label}",
                      lambda r, s=small: stream.simulate_stream(lt, s),
                      items=small.trials * small.k))
        ops.append(Op(f"stream.engine_prefix.{label}",
                      lambda r, s=small: stream.simulate_stream(
                          lt, s, engine="prefix_tree"),
                      check=_engines_agree(
                          f"stream.engine_vectorized.{label}"),
                      items=small.trials * small.k))
    return Workload(ops, sum(op.items for op in ops))


#: X is a ratio of two float sums; on the prefix-tree path it can exceed 1
#: by a few ulps (1 + 4.4e-16 is seen), which is rounding, not a defect.
X_ROUNDING = 1e-12


def _stream_sane(trace, results):
    cfg = trace.config
    ones = sum(cfg.input_bits) / cfg.n
    if not np.all(trace.x[:, 0] == ones):
        return "X at step 0 is not the input fraction"
    if not np.all((trace.x >= -X_ROUNDING) & (trace.x <= 1.0 + X_ROUNDING)):
        return "X left [0, 1]"
    return None


def _ledger_matches(trace, results):
    """X recomputed from the raw bits equals the incremental ledger."""
    for trial in range(trace.x.shape[0]):
        for j, step in enumerate(trace.steps):
            diff = abs(trace.recompute_x(trial, int(step)) - trace.x[trial, j])
            if not diff <= 1e-9:
                return f"trial {trial} step {step}: ledger off by {diff:.3g}"
    return None


def _engines_agree(vectorized_op: str):
    def check(ref, results):
        vec = results[vectorized_op]
        if not np.array_equal(vec.final_bits, ref.final_bits):
            return "engines disagree on the final items"
        if not np.allclose(vec.x, ref.x, rtol=0.0, atol=1e-9):
            return "engines disagree on X beyond 1e-9"
        return None
    return check


# ---------------------------------------------------------------------------
# analysis: infinite width, no randomness in the program
# ---------------------------------------------------------------------------

#: Sweep thresholds sit inside the quad_k ladder's brackets (away from the
#: A_k/B_k fixed points), so seed jitter never changes the trees built.
SWEEP_CENTERS = (0.028, 0.064, 0.115, 0.22, 0.30, 0.45, 0.55, 0.70, 0.78,
                 0.885, 0.936, 0.972)
SWEEP_JITTER = 0.003
PROFILE_CENTERS = (0.115, 0.45, 0.885)
GRID_POINTS, GRID_CHUNKS = 1000, 25
STAIRCASE = dict(breakpoints=(0.3, 0.7), heights=(0.5,), epsilon=0.1,
                 delta=0.1)
EXACT_M, EXACT_LEVELS = 1000, 20
CONDITIONS = (("quad4", catalog.quad4, 1 / 5, 4 / 5),
              ("quad5", catalog.quad5, 1 / 7, 6 / 7))

#: Inputs the CLI rejects; the first two raise tracebacks at the time this
#: benchmark was defined.  They stay in the workload, counted as failures.
INVALID_CLI = (
    (["analyze", "--construction", "soft_threshold", "--k", "5",
      "--u", "0.1", "--v", "0.9"],
     "soft_threshold has no threshold, so verify_conditions gets t=None "
     "and raises TypeError"),
    (["learn", "--x-file", "{missing}", "--levels", "4", "--width", "10"],
     "a missing --x-file raises FileNotFoundError"),
    (["analyze", "--construction", "nope"], None),
    (["analyze", "--construction", "quad4", "--t", "0.1"], None),
    (["analyze", "--construction", "linear", "--t", "1.5"], None),
    (["simulate", "--construction", "linear", "--t", "0.5",
      "--mode", "bogus"], None),
    (["simulate", "--construction", "linear", "--t", "0.5",
      "--mode", "leveled"], None),
    (["learn", "--levels", "4", "--width", "10"], None),
    (["iterate", "--construction", "linear", "--t", "0.5", "--p", "0.5"],
     None),
    (["bogus"], None),
)


def analysis(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    sweep = [c + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)
             for c in SWEEP_CENTERS]
    ops: list[Op] = []
    for i, t in enumerate(sweep):
        for kind, build in (("quad_k", catalog.quad_k),
                            ("linear", catalog.linear_threshold)):
            name = f"sweep.{i}.{kind}"
            ops.append(Op(f"{name}.build", lambda r, b=build, t=t: b(t)))
            ops.append(Op(f"{name}.fixed_points",
                          lambda r, n=name: r[f"{n}.build"]
                          .interior_fixed_points(),
                          check=_roots_at(t)))

    for label, build, expect in (
            ("valiant", catalog.valiant, (catalog.VALIANT_THRESHOLD,)),
            ("quad4", lambda: catalog.quad4(0.5), (0.5,)),
            ("soft6", lambda: catalog.soft_threshold(6), None)):
        ops.append(Op(f"fp.{label}.build", lambda r, b=build: b()))
        ops.append(Op(f"fp.{label}",
                      lambda r, lb=label: polyalg.fixed_points(
                          r[f"fp.{lb}.build"].mixture),
                      check=_fixed_point_report(expect)))

    for label, build, u, v in CONDITIONS:
        ops.append(Op(f"verify.{label}.build", lambda r, b=build: b(0.5)))
        ops.append(Op(f"verify.{label}",
                      lambda r, lb=label, u=u, v=v: dynamics.verify_conditions(
                          r[f"verify.{lb}.build"], 0.5, u, v),
                      check=lambda rep, r: None if rep.passed
                      else f"corridor failed: {rep.failures}"))

    for c in PROFILE_CENTERS:
        i = SWEEP_CENTERS.index(c)
        t = sweep[i]
        for kind, order in (("quad_k", dynamics.QUADRATIC),
                            ("linear", dynamics.LINEAR)):
            for side in (-1, 1):
                p = t + side * rng.uniform(0.008, 0.012)
                ops.append(Op(
                    f"profile.{i}.{kind}.{side:+d}",
                    lambda r, n=f"sweep.{i}.{kind}.build", p=p:
                    dynamics.profile(r[n], p),
                    check=lambda prof, r, o=order: None if prof.order == o
                    else f"order {prof.order}, expected {o}"))

    spec = catalog.StaircaseSpec(**STAIRCASE)
    ops.append(Op("staircase.build", lambda r: catalog.staircase(spec)))
    offset = rng.uniform(-0.0004, 0.0004)
    grid = np.linspace(0.0005, 0.9995, GRID_POINTS) + offset
    for j, chunk in enumerate(np.array_split(grid, GRID_CHUNKS)):
        ops.append(Op(f"staircase.grid.{j}",
                      lambda r, ch=chunk: [r["staircase.build"].evaluate(
                          float(p)) for p in ch],
                      check=_bands_hold(chunk, spec)))

    m = EXACT_M + int(rng.integers(-20, 21))
    q4 = catalog.quad4(0.5)
    ops.append(Op("exact.quad4",
                  lambda r: leveled.exact_level_distribution(
                      q4, m, 0.45, EXACT_LEVELS),
                  check=_exact_sane))

    u, v = 0.2, 0.8
    ops.append(Op("analyze.reference", lambda r: _analyze_json(u, v)))
    ops.append(Op("cli.analyze", lambda r: run_cli(cli, [
        "analyze", "--construction", "quad4", "--t", "0.5",
        "--u", str(u), "--v", str(v)]),
        check=cli_matches("analyze.reference"), cli="analyze"))
    p_exact = round(float(rng.uniform(0.40, 0.48)), 4)
    ops.append(Op("exact.reference",
                  lambda r: json.dumps({"firing_probability":
                                        leveled.exact_level_distribution(
                                            q4, 200, p_exact, 20)[0]}) + "\n"))
    ops.append(Op("cli.simulate_exact", lambda r: run_cli(cli, [
        "simulate", "--construction", "quad4", "--t", "0.5", "--mode",
        "exact", "--m", "200", "--p", str(p_exact), "--levels", "20"]),
        check=cli_matches("exact.reference"), cli="simulate_exact"))

    missing = str(workdir / "missing-x.json")
    for j, (argv, defect) in enumerate(INVALID_CLI):
        argv = [a.replace("{missing}", missing) for a in argv]
        # A fix for a known defect may settle on any exit code.
        ops.append(Op(f"cli.invalid.{j}.{argv[0]}",
                      lambda r, a=argv: run_cli(cli, a),
                      check=None if defect else clean_exit,
                      known_defect=defect))
    return Workload(ops, len(ops))


def _roots_at(t: float):
    def check(roots, results):
        if not roots:
            return f"no interior fixed point found for t={t}"
        far = [x for x in roots if abs(x - t) > 1e-6]
        return f"fixed points {far} are not within 1e-6 of {t}" if far \
            else None
    return check


def _fixed_point_report(expect):
    def check(report, results):
        interior = [fp.location for fp in report.interior_points()]
        if expect is None:        # soft_threshold: s < 1/2 < t
            if len(interior) != 3 or abs(interior[1] - 0.5) > 1e-9:
                return f"expected three interior points around 1/2: " \
                       f"{interior}"
            return None
        if len(interior) != len(expect) or any(
                abs(a - b) > 1e-9 for a, b in zip(interior, expect)):
            return f"interior fixed points {interior}, expected {expect}"
        return None
    return check


def _bands_hold(chunk, spec):
    full_a = (0.0,) + spec.breakpoints + (1.0,)
    full_p = (0.0,) + spec.heights + (1.0,)
    margin = spec.epsilon

    def check(values, results):
        for p, y in zip(chunk, values):
            for i in range(len(full_p)):
                if full_a[i] + margin < p < full_a[i + 1] - margin \
                        and not abs(y - full_p[i]) < spec.delta:
                    return f"staircase({p:.4f}) = {y:.4f}, band " \
                           f"{full_p[i]} +- {spec.delta}"
        return None
    return check


def _exact_sane(result, results):
    firing, dist = result
    if not 0.0 <= firing <= 1.0 or abs(float(dist.sum()) - 1.0) > 1e-9:
        return f"exact chain: firing {firing}, mass {dist.sum()}"
    return None


def _analyze_json(u: float, v: float) -> str:
    """What ``amptree analyze --construction quad4 --t 0.5 --u U --v V``
    prints, built from library calls."""
    dist = catalog.quad4(0.5)
    report = polyalg.fixed_points(dist.mixture)
    cond = dynamics.verify_conditions(dist, 0.5, u, v)
    return json.dumps({
        "label": dist.label,
        "fixed_points": [{"location": f.location, "derivative": f.derivative,
                          "class": f.kind} for f in report.points],
        "conditions": {"c1": cond.c1, "c2": cond.c2, "c3": cond.c3,
                       "c4": cond.c4, "passed": cond.passed},
        "status": "ok"}, sort_keys=True) + "\n"
