"""Command-line front end: enumerate | analyze | iterate | simulate | learn | eval.

Every command takes its parameters from ``--config`` (a JSON file) with
individual flags overriding config fields, writes CSV (traces) or JSON
(reports) to ``--out`` or stdout, and exits 0 iff all requested checks
pass.  Outputs carry no timestamps, so a rerun with the same config and
seed is byte-identical.
"""
from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import asdict, dataclass, field

from . import catalog, dynamics, leveled, learning, stream
from .errors import AmptreeError, InputShapeError
from .polyalg import fixed_points
from .trees import achievable_by_degree


@dataclass
class ExperimentConfig:
    """Command parameters plus the global knobs; JSON round-trips losslessly."""

    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out: str | None = None
    format: str = "json"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**json.loads(text))


CONSTRUCTIONS = {
    "valiant": lambda p: catalog.valiant(),
    "linear": lambda p: catalog.linear_threshold(p["t"]),
    "quad4": lambda p: catalog.quad4(p["t"]),
    "quad5": lambda p: catalog.quad5(p["t"]),
    "quad6": lambda p: catalog.quad6(p["t"]),
    "quad7": lambda p: catalog.quad7(p["t"]),
    "quad_k": lambda p: catalog.quad_k(p["t"]),
    "one_step": lambda p: catalog.one_step(p["alpha"]),
    "soft_threshold": lambda p: catalog.soft_threshold(p["k"]),
    "staircase": lambda p: catalog.staircase(catalog.StaircaseSpec(
        breakpoints=tuple(p["breakpoints"]), heights=tuple(p["heights"]),
        epsilon=p["epsilon"], delta=p["delta"])),
}


class UsageError(Exception):
    """Input the command cannot use; reported on one line with exit code 2."""


def build_construction(params: dict) -> catalog.TreeDistribution:
    name = params.get("construction")
    if name not in CONSTRUCTIONS:
        raise AmptreeError(
            f"unknown construction {name!r}; choose from "
            f"{sorted(CONSTRUCTIONS)}")
    return CONSTRUCTIONS[name](params)


def _emit(cfg: ExperimentConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(cfg: ExperimentConfig, failures: list) -> int:
    _emit(cfg, json.dumps({"status": "fail", "failures": failures},
                          sort_keys=True) + "\n")
    return 1


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_enumerate(cfg: ExperimentConfig) -> int:
    max_degree = int(cfg.params.get("max_degree", 5))
    table = achievable_by_degree(max_degree)
    if cfg.format == "csv":
        buf = io.StringIO()
        buf.write("degree,coefficients\n")
        for d in sorted(table):
            for poly in sorted(table[d], key=lambda q: q.coeffs):
                buf.write(f"{d},\"{json.dumps(list(poly.coeffs))}\"\n")
        _emit(cfg, buf.getvalue())
    else:
        _emit(cfg, json.dumps(
            {str(d): sorted([list(q.coeffs) for q in table[d]])
             for d in sorted(table)}, sort_keys=True) + "\n")
    return 0


def cmd_analyze(cfg: ExperimentConfig) -> int:
    dist = build_construction(cfg.params)
    report: dict = {"label": dist.label}
    failures: list = []
    try:
        fp_report = fixed_points(dist.mixture)
        report["fixed_points"] = [
            {"location": f.location, "derivative": f.derivative,
             "class": f.kind} for f in fp_report.points]
    except AmptreeError:
        roots = dist.interior_fixed_points()
        report["fixed_points"] = [{"location": r} for r in roots]
    if dist.threshold is not None:
        interior = [f["location"] for f in report["fixed_points"]
                    if 0 < f["location"] < 1]
        if not any(abs(r - dist.threshold) < 1e-6 for r in interior):
            failures.append({"check": "threshold-fixed-point",
                             "expected": dist.threshold,
                             "found": interior})
    if "u" in cfg.params and "v" in cfg.params:
        t = dist.threshold
        if t is None:
            sys.stderr.write(f"error: {dist.label} has no threshold to check "
                             f"--u/--v conditions against\n")
            return 2
        cond = dynamics.verify_conditions(dist, t, cfg.params["u"],
                                          cfg.params["v"])
        report["conditions"] = {
            "c1": cond.c1, "c2": cond.c2, "c3": cond.c3, "c4": cond.c4,
            "passed": cond.passed}
        for f in cond.failures:
            failures.append({"check": "condition", "condition": f.condition,
                             "interval": list(f.interval),
                             "witness": f.witness, "value": f.value})
    if failures:
        report["status"] = "fail"
        report["failures"] = failures
        _emit(cfg, json.dumps(report, sort_keys=True) + "\n")
        return 1
    report["status"] = "ok"
    _emit(cfg, json.dumps(report, sort_keys=True) + "\n")
    return 0


def cmd_iterate(cfg: ExperimentConfig) -> int:
    dist = build_construction(cfg.params)
    prof = dynamics.profile(dist, cfg.params["p"],
                            max_levels=int(cfg.params.get("levels", 200)))
    if cfg.format == "csv":
        buf = io.StringIO()
        prof.write_csv(buf)
        _emit(cfg, buf.getvalue())
    else:
        _emit(cfg, json.dumps({
            "p": prof.p, "threshold": prof.threshold, "limit": prof.limit,
            "order": prof.order, "errors": list(prof.errors)}) + "\n")
    return 0


def cmd_simulate(cfg: ExperimentConfig) -> int:
    dist = build_construction(cfg.params)
    mode = cfg.params.get("mode", "leveled")
    if mode == "leveled":
        widths = cfg.params.get("widths")
        if widths is None:
            widths = [int(cfg.params["m"])] * int(cfg.params["levels"])
        config = leveled.LevelConfig(
            widths=tuple(int(w) for w in widths), n=int(cfg.params["n"]),
            seed=cfg.seed, trials=int(cfg.params.get("trials", 1)),
            input_p=cfg.params.get("p"),
            input_bits=(tuple(cfg.params["bits"])
                        if "bits" in cfg.params else None))
        trace = leveled.simulate_leveled(dist, config)
        if cfg.format == "csv":
            buf = io.StringIO()
            trace.write_csv(buf)
            _emit(cfg, buf.getvalue())
        else:
            _emit(cfg, json.dumps({
                "mean_final_fraction": float(trace.fractions[:, -1].mean()),
                "final_item_rate": float(trace.final_items.mean()),
            }, sort_keys=True) + "\n")
        return 0
    if mode == "stream":
        config = stream.StreamConfig(
            n=int(cfg.params["n"]), k=int(cfg.params["k"]),
            alpha=float(cfg.params.get("alpha", 0.0)), seed=cfg.seed,
            trials=int(cfg.params.get("trials", 1)),
            input_p=cfg.params.get("p"),
            input_bits=(tuple(cfg.params["bits"])
                        if "bits" in cfg.params else None))
        trace = stream.simulate_stream(dist, config)
        if cfg.format == "csv":
            buf = io.StringIO()
            trace.write_csv(buf)
            _emit(cfg, buf.getvalue())
        else:
            summary = {"mean_final_x": float(trace.x[:, -1].mean())}
            if trace.final_bits is not None:
                summary["final_item_rate"] = float(trace.final_bits.mean())
            if dist.threshold is not None:
                phases = stream.phase_progress_report(trace, dist.threshold)
                summary["phases"] = json.loads(phases.to_json())["phases"]
            _emit(cfg, json.dumps(summary, sort_keys=True) + "\n")
        return 0
    if mode == "exact":
        firing, _ = leveled.exact_level_distribution(
            dist, int(cfg.params["m"]), float(cfg.params["p"]),
            int(cfg.params["levels"]))
        _emit(cfg, json.dumps({"firing_probability": firing}) + "\n")
        return 0
    if mode == "width_scaling":
        res = leveled.width_scaling_experiment(
            dist, dist.threshold,
            gammas=tuple(cfg.params.get("gammas", (0.2, 0.1, 0.05))),
            epsilons=tuple(cfg.params.get("epsilons", (0.1, 0.05, 0.025))),
            seed=cfg.seed, trials=int(cfg.params.get("trials", 200)))
        _emit(cfg, res.to_json() + "\n")
        return 0 if res.verdict == "OK" else 1
    return _fail(cfg, [{"check": "mode", "got": mode,
                        "expected": ["leveled", "stream", "exact",
                                     "width_scaling"]}])


def _read_bits(path: str) -> list:
    with open(path) as fh:
        bits = json.load(fh)
    if not isinstance(bits, list) or any(b not in (0, 1) for b in bits):
        raise UsageError(f"{path} must hold a JSON list of 0/1 bits")
    return bits


def cmd_learn(cfg: ExperimentConfig) -> int:
    x_bits = _read_bits(cfg.params["x_file"])
    tree = learning.learn_threshold(int(cfg.params["levels"]),
                                    int(cfg.params["width"]), x_bits,
                                    cfg.seed)
    _emit(cfg, tree.to_json() + "\n")
    return 0


def cmd_eval(cfg: ExperimentConfig) -> int:
    path = cfg.params["learned_file"]
    with open(path) as fh:
        text = fh.read()
    try:
        tree = learning.LearnedTree.from_json(text)
    except InputShapeError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    bits = _read_bits(cfg.params["input_file"])
    sample = cfg.params.get("sample")
    frac = learning.evaluate_learned(tree, bits,
                                     sample=None if sample is None
                                     else int(sample))
    _emit(cfg, json.dumps({"firing_fraction": frac}) + "\n")
    return 0


COMMANDS = {
    "enumerate": cmd_enumerate,
    "analyze": cmd_analyze,
    "iterate": cmd_iterate,
    "simulate": cmd_simulate,
    "learn": cmd_learn,
    "eval": cmd_eval,
}

_FLAG_PARAMS = [
    ("--max-degree", "max_degree", int),
    ("--construction", "construction", str),
    ("--t", "t", float),
    ("--alpha", "alpha", float),
    ("--k", "k", int),
    ("--p", "p", float),
    ("--levels", "levels", int),
    ("--m", "m", int),
    ("--n", "n", int),
    ("--width", "width", int),
    ("--trials", "trials", int),
    ("--mode", "mode", str),
    ("--u", "u", float),
    ("--v", "v", float),
    ("--sample", "sample", int),
    ("--x-file", "x_file", str),
    ("--learned-file", "learned_file", str),
    ("--input-file", "input_file", str),
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="amptree",
        description="Iterative AND/OR-tree threshold constructions.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--params", help="inline JSON parameter object")
    for flag, _, typ in _FLAG_PARAMS:
        parser.add_argument(flag, type=typ, default=None)
    args = parser.parse_args(argv)

    cfg = ExperimentConfig(command=args.command)
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = ExperimentConfig.from_json(fh.read())
        except (OSError, json.JSONDecodeError, TypeError) as exc:
            sys.stderr.write(f"bad config {args.config}: {exc}\n")
            return 2
        cfg.command = args.command
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            sys.stderr.write(f"bad --params: {exc}\n")
            return 2
        if not isinstance(params, dict):
            sys.stderr.write("bad --params: expected a JSON object\n")
            return 2
        cfg.params.update(params)
    for flag, name, _ in _FLAG_PARAMS:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None:
            cfg.params[name] = value
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    if args.format is not None:
        cfg.format = args.format

    try:
        return COMMANDS[cfg.command](cfg)
    except AmptreeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except KeyError as exc:
        sys.stderr.write(f"missing required config field: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"error: malformed JSON input: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
