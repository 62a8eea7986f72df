"""Command-line front end: enumerate | analyze | iterate | simulate | learn | eval.

Parameters come from ``--config`` (a JSON file), ``--params`` (a JSON
object) and flags, each overriding the last, and are checked once against
``PARAMS``.  Every command writes CSV (traces) or JSON (reports) to
``--out`` or stdout and exits 0 iff all requested checks pass, 1 on a
failed check or a value out of range, 2 on input it cannot use.  Outputs
carry no timestamps, so a rerun with the same config and seed is
byte-identical.
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
        """Parse a config; TypeError or ValueError names a bad field."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise TypeError("expected a JSON object")
        cfg = cls(**data)
        for name, ok, want in (
                ("command", isinstance(cfg.command, str), "a string"),
                ("params", isinstance(cfg.params, dict), "an object"),
                ("seed", type(cfg.seed) is int, "an integer"),
                ("out", cfg.out is None or isinstance(cfg.out, str),
                 "a string or null"),
                ("format", cfg.format in ("csv", "json"), "csv or json")):
            if not ok:
                raise ValueError(
                    f"{name} must be {want}: {getattr(cfg, name)!r}")
        return cfg


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
        breakpoints=p["breakpoints"], heights=p["heights"],
        epsilon=p["epsilon"], delta=p["delta"])),
}

_BUILDS = ("analyze", "iterate", "simulate")

#: Every parameter: its JSON type and the commands that read it.  ``[T]``
#: is a JSON array of T; an int is a float, a bool is not an int.
PARAMS = {
    "max_degree": (int, ("enumerate",)),
    "construction": (str, _BUILDS),
    "t": (float, _BUILDS),
    "alpha": (float, _BUILDS),
    "k": (int, _BUILDS),
    "p": (float, ("iterate", "simulate")),
    "levels": (int, ("iterate", "simulate", "learn")),
    "m": (int, ("simulate",)),
    "n": (int, ("simulate",)),
    "width": (int, ("learn",)),
    "trials": (int, ("simulate",)),
    "mode": (str, ("simulate",)),
    "u": (float, ("analyze",)), "v": (float, ("analyze",)),
    "sample": (int, ("eval",)),
    "x_file": (str, ("learn",)),
    "learned_file": (str, ("eval",)), "input_file": (str, ("eval",)),
    "breakpoints": ([float], _BUILDS), "heights": ([float], _BUILDS),
    "epsilon": (float, _BUILDS), "delta": (float, _BUILDS),
    "widths": ([int], ("simulate",)),
    "bits": ([int], ("simulate",)),
    "gammas": ([float], ("simulate",)), "epsilons": ([float], ("simulate",)),
}

#: Construction parameters that stream mode reads too (decay rate, items).
_SHARED = {"one_step": "alpha", "soft_threshold": "k"}


class UsageError(Exception):
    """Input the command cannot use; reported on one line with exit code 2."""


def _has_type(value, typ) -> bool:
    if isinstance(typ, list):
        return isinstance(value, list) and all(_has_type(v, typ[0])
                                               for v in value)
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if typ is float else typ)


def check_params(command: str, params: dict) -> None:
    """Raise UsageError for a key ``command`` does not read, a value not of
    its PARAMS type, or a key that would set two things at once."""
    for name, value in params.items():
        typ, readers = PARAMS.get(name, (None, ()))
        if command not in readers:
            raise UsageError(f"{command} does not read parameter {name!r}")
        if not _has_type(value, typ):
            want = (f"a list of {typ[0].__name__}" if isinstance(typ, list)
                    else typ.__name__)
            raise UsageError(f"{name} must be {want}: {value!r}")
    shared = _SHARED.get(params.get("construction"))
    if shared and params.get("mode") == "stream":
        raise UsageError(f"{params['construction']} cannot run in stream "
                         f"mode: {shared} would set both it and the stream")


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
    max_degree = cfg.params.get("max_degree", 5)
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
            raise UsageError(f"{dist.label} has no threshold to check --u/--v "
                             f"conditions against")
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
                            max_levels=cfg.params.get("levels", 200))
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
    params = cfg.params
    mode = params.get("mode", "leveled")
    inputs = dict(seed=cfg.seed, trials=params.get("trials", 1),
                  input_p=params.get("p"), input_bits=params.get("bits"))
    if mode == "leveled":
        widths = params.get("widths")
        if widths is None:
            widths = [params["m"]] * params["levels"]
        config = leveled.LevelConfig(widths=widths, n=params["n"], **inputs)
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
        config = stream.StreamConfig(n=params["n"], k=params["k"],
                                     alpha=params.get("alpha", 0.0), **inputs)
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
            dist, params["m"], params["p"], params["levels"])
        _emit(cfg, json.dumps({"firing_probability": firing}) + "\n")
        return 0
    if mode == "width_scaling":
        res = leveled.width_scaling_experiment(
            dist, dist.threshold,
            gammas=params.get("gammas", (0.2, 0.1, 0.05)),
            epsilons=params.get("epsilons", (0.1, 0.05, 0.025)),
            seed=cfg.seed, trials=params.get("trials", 200))
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
    tree = learning.learn_threshold(cfg.params["levels"],
                                    cfg.params["width"], x_bits, cfg.seed)
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
    frac = learning.evaluate_learned(tree, bits,
                                     sample=cfg.params.get("sample"))
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="amptree", usage=argparse.SUPPRESS,   # errors on one line
        description="Iterative AND/OR-tree threshold constructions.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--params", help="inline JSON parameter object")
    for name, (typ, _) in PARAMS.items():     # staircase scalars: no flag
        if not isinstance(typ, list) and name not in ("epsilon", "delta"):
            parser.add_argument("--" + name.replace("_", "-"), type=typ)
    args = parser.parse_args(argv)

    cfg = ExperimentConfig(command=args.command)
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = ExperimentConfig.from_json(fh.read())
        except (OSError, TypeError, ValueError) as exc:
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
    cfg.params.update({name: value for name, value in vars(args).items()
                       if name in PARAMS and value is not None})
    for name in ("seed", "out", "format"):
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))

    try:
        check_params(cfg.command, cfg.params)
        return COMMANDS[cfg.command](cfg)
    except AmptreeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except KeyError as exc:
        sys.stderr.write(f"missing required config field: {exc}\n")
        return 2
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"error: malformed JSON input: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
