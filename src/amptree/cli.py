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
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

from . import catalog, dynamics, leveled, learning, stream
from .blocks import check_bits
from .errors import (AmptreeError, DegenerateInputError, InputShapeError,
                     RangeError, load_json)
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
        """Parse a config; UsageError names what is wrong with it."""
        data = load_json(text, "bad config", UsageError)
        if not isinstance(data, dict):
            raise UsageError("bad config: expected a JSON object")
        try:
            cfg = cls(**data)
        except TypeError as exc:        # a key that is not a field
            raise UsageError(f"bad config: {exc}") from exc
        for name, ok, want in (
                ("command", isinstance(cfg.command, str), "a string"),
                ("params", isinstance(cfg.params, dict), "an object"),
                ("seed", type(cfg.seed) is int, "an integer"),
                ("out", cfg.out is None or isinstance(cfg.out, str),
                 "a string or null"),
                ("format", cfg.format in ("csv", "json"), "csv or json")):
            if not ok:
                raise UsageError(f"bad config: {name} must be {want}: "
                                 f"{getattr(cfg, name)!r}")
        return cfg


#: Each construction's catalog builder; PARAMS names the keys it takes.
CONSTRUCTIONS = {
    "valiant": catalog.valiant, "linear": catalog.linear_threshold,
    "quad4": catalog.quad4, "quad5": catalog.quad5, "quad6": catalog.quad6,
    "quad7": catalog.quad7, "quad_k": catalog.quad_k,
    "one_step": catalog.one_step, "soft_threshold": catalog.soft_threshold,
    "staircase": lambda **kw: catalog.staircase(catalog.StaircaseSpec(**kw)),
}

#: What ``simulate`` runs; each mode reads its own parameters.
MODES = ("leveled", "stream", "exact", "width_scaling")

_BUILDS = ("analyze", "iterate") + MODES

#: Every parameter: its JSON type and what reads it, a command, a simulate
#: mode or a construction.  ``[T]`` is a JSON array of T; an int is a
#: float, a bool is not an int.
PARAMS = {
    "max_degree": (int, ("enumerate",)),
    "construction": (str, _BUILDS),
    "t": (float, ("linear", "quad4", "quad5", "quad6", "quad7", "quad_k")),
    "alpha": (float, ("one_step", "stream")),
    "k": (int, ("soft_threshold", "stream")),
    "p": (float, ("iterate", "leveled", "stream", "exact")),
    "levels": (int, ("iterate", "leveled", "exact", "learn")),
    "m": (int, ("leveled", "exact")),
    "n": (int, ("leveled", "stream")),
    "width": (int, ("learn",)),
    "trials": (int, ("leveled", "stream")),
    "mode": (str, MODES),
    "u": (float, ("analyze",)), "v": (float, ("analyze",)),
    "sample": (int, ("eval",)),
    "x_file": (str, ("learn",)),
    "learned_file": (str, ("eval",)), "input_file": (str, ("eval",)),
    "breakpoints": ([float], ("staircase",)),
    "heights": ([float], ("staircase",)),
    "epsilon": (float, ("staircase",)), "delta": (float, ("staircase",)),
    "widths": ([int], ("leveled",)),
    "bits": ([int], ("leveled", "stream")),
    "gammas": ([float], ("width_scaling",)),
    "epsilons": ([float], ("width_scaling",)),
}

#: The commands and simulate modes that can write CSV; the rest write JSON.
_CSV = ("enumerate", "iterate", "leveled", "stream")


class UsageError(Exception):
    """Input the command cannot use; reported on one line with exit code 2."""


def _has_type(value, typ) -> bool:
    if isinstance(typ, list):
        return isinstance(value, list) and all(_has_type(v, typ[0])
                                               for v in value)
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if typ is float else typ)


def readers_of(command: str, params: dict) -> tuple:
    """What reads ``params`` in PARAMS: the command or simulate's mode, then
    the construction if the command builds one."""
    what = params.get("mode", "leveled") if command == "simulate" else command
    if command == "simulate" and what not in MODES:
        raise UsageError(f"mode must be one of {', '.join(MODES)}: {what!r}")
    if what not in PARAMS["construction"][1]:
        return (what,)
    name = params.get("construction")
    if name not in CONSTRUCTIONS:
        raise UsageError(f"construction must be one of "
                         f"{', '.join(CONSTRUCTIONS)}: {name!r}")
    return what, name


def check_params(cfg: ExperimentConfig) -> None:
    """Raise UsageError for a value not of its PARAMS type, a key that
    nothing reads, a key that would set two things at once, or csv output
    where there is only JSON."""
    command, params = cfg.command, cfg.params
    for name, value in params.items():
        typ = PARAMS.get(name, (None,))[0]
        if typ is not None and not _has_type(value, typ):
            want = (f"a list of {typ[0].__name__}" if isinstance(typ, list)
                    else typ.__name__)
            raise UsageError(f"{name} must be {want}: {value!r}")
    who = readers_of(command, params)
    label = command if who[0] == command else f"simulate --mode {who[0]}"
    for name in params:
        readers = PARAMS.get(name, (None, ()))[1]
        read = [r for r in who if r in readers]
        if not read:
            by = who[-1] if set(readers) & set(CONSTRUCTIONS) else label
            raise UsageError(f"{by} does not read parameter {name!r}")
        if len(read) > 1:
            raise UsageError(f"{who[1]} cannot run in {label}: {name} would "
                             f"set both it and the {who[0]}")
    if "widths" in params and ("m" in params or "levels" in params):
        raise UsageError("widths sets every level's width; give it without "
                         "m and levels")
    if ("u" in params) != ("v" in params):
        raise UsageError("u and v bound one corridor; give both or neither")
    if cfg.format == "csv" and who[0] not in _CSV:
        raise UsageError(f"{label} writes JSON only, not csv")


def build_construction(params: dict) -> catalog.TreeDistribution:
    name = params["construction"]
    return CONSTRUCTIONS[name](**{key: params[key] for key, (_, readers)
                                  in PARAMS.items() if name in readers})


def _threshold(dist: catalog.TreeDistribution) -> float:
    """``dist.unique_threshold()``, else exit 2: unusable input."""
    try:
        return dist.unique_threshold()
    except DegenerateInputError as exc:
        raise UsageError(str(exc)) from None


def _output(cfg: ExperimentConfig):
    """A context manager for ``--out``'s file, else for ``sys.stdout`` as
    it is at this call, so that a caller's redirection of stdout holds."""
    return open(cfg.out, "w") if cfg.out else nullcontext(sys.stdout)


def _emit(cfg: ExperimentConfig, text: str) -> None:
    with _output(cfg) as out:
        out.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_enumerate(cfg: ExperimentConfig) -> int:
    max_degree = cfg.params.get("max_degree", 5)
    table = achievable_by_degree(max_degree)
    if cfg.format == "csv":
        with _output(cfg) as out:
            out.write("degree,coefficients\n")
            for d in sorted(table):
                for poly in sorted(table[d], key=lambda q: q.coeffs):
                    out.write(f"{d},\"{json.dumps(list(poly.coeffs))}\"\n")
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
        report["fixed_points"] = fp_report.as_dicts()
        interior = [f.location for f in fp_report.interior_points()]
    except AmptreeError:
        interior = dist.interior_fixed_points()        # all in (0, 1)
        report["fixed_points"] = [{"location": r} for r in interior]
    if dist.threshold is not None and not any(
            abs(r - dist.threshold) < 1e-6 for r in interior):
        failures.append({"check": "threshold-fixed-point",
                         "expected": dist.threshold, "found": interior})
    if "u" in cfg.params:
        cond = dynamics.verify_conditions(dist, _threshold(dist),
                                          cfg.params["u"], cfg.params["v"])
        report["conditions"] = {
            "c1": cond.c1, "c2": cond.c2, "c3": cond.c3, "c4": cond.c4,
            "passed": cond.passed}
        for f in cond.failures:
            failures.append({"check": "condition", "condition": f.condition,
                             "interval": list(f.interval),
                             "witness": f.witness, "value": f.value})
    if failures:
        report["failures"] = failures
    report["status"] = "fail" if failures else "ok"
    _emit(cfg, json.dumps(report, sort_keys=True) + "\n")
    return 1 if failures else 0


def cmd_iterate(cfg: ExperimentConfig) -> int:
    dist = build_construction(cfg.params)
    _threshold(dist)
    prof = dynamics.profile(dist, cfg.params["p"],
                            max_levels=cfg.params.get("levels", 200))
    if cfg.format == "csv":
        with _output(cfg) as out:
            prof.write_csv(out)
    else:
        _emit(cfg, json.dumps({
            "p": prof.p, "threshold": prof.threshold, "limit": prof.limit,
            "order": prof.order, "errors": list(prof.errors)}) + "\n")
    return 0


def cmd_simulate(cfg: ExperimentConfig) -> int:
    dist = build_construction(cfg.params)
    params = cfg.params
    mode = readers_of("simulate", params)[0]
    inputs = dict(seed=cfg.seed, trials=params.get("trials", 1),
                  input_p=params.get("p"), input_bits=params.get("bits"))
    if mode == "leveled":
        widths = params.get("widths")
        if widths is None:
            widths = [params["m"]] * params["levels"]
        config = leveled.LevelConfig(widths=widths, n=params["n"], **inputs)
        trace = leveled.simulate_leveled(dist, config)
        if cfg.format == "csv":
            with _output(cfg) as out:
                trace.write_csv(out)
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
            with _output(cfg) as out:
                trace.write_csv(out)
        else:
            summary = {"mean_final_x": float(trace.x[:, -1].mean())}
            if trace.final_bits is not None:
                summary["final_item_rate"] = float(trace.final_bits.mean())
            if dist.threshold is not None:
                summary["phases"] = stream.phase_progress_report(
                    trace, dist.threshold).as_dicts()
            _emit(cfg, json.dumps(summary, sort_keys=True) + "\n")
        return 0
    if mode == "exact":
        firing, _ = leveled.exact_level_distribution(
            dist, params["m"], params["p"], params["levels"])
        _emit(cfg, json.dumps({"firing_probability": firing}) + "\n")
        return 0
    _threshold(dist)                                    # width_scaling
    res = leveled.width_scaling_experiment(
        dist, gammas=params.get("gammas", (0.2, 0.1, 0.05)),
        epsilons=params.get("epsilons", (0.1, 0.05, 0.025)))
    _emit(cfg, res.to_json() + "\n")
    return 0 if res.verdict == "OK" else 1


def _read_bits(path: str):
    with open(path) as fh:
        bits = load_json(fh.read(), f"malformed JSON input {path}",
                         UsageError)
    try:
        return check_bits(bits if isinstance(bits, list) else None)
    except RangeError:
        raise UsageError(
            f"{path} must hold a JSON list of 0/1 bits") from None


def cmd_learn(cfg: ExperimentConfig) -> int:
    x_bits = _read_bits(cfg.params["x_file"])
    tree = learning.learn_threshold(cfg.params["levels"],
                                    cfg.params["width"], x_bits, cfg.seed)
    with _output(cfg) as out:
        out.writelines(tree.json_pieces())
        out.write("\n")
    return 0


def cmd_eval(cfg: ExperimentConfig) -> int:
    path = cfg.params["learned_file"]
    with open(path, "rb") as fh:
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


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag on one ``error:`` line, as every failure is."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _make_parser() -> _Parser:
    parser = _Parser(
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
    return parser


#: Built once per process: each ``parse_args`` returns a fresh namespace
#: and every default is None, so no call sees another's flags.
_PARSER = _make_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        cfg = ExperimentConfig(command=args.command)
        if args.config:
            with open(args.config) as fh:
                cfg = ExperimentConfig.from_json(fh.read())
            cfg.command = args.command
        if args.params:
            params = load_json(args.params, "bad --params", UsageError)
            if not isinstance(params, dict):
                raise UsageError("bad --params: expected a JSON object")
            cfg.params.update(params)
        cfg.params.update({name: value for name, value in vars(args).items()
                           if name in PARAMS and value is not None})
        for name in ("seed", "out", "format"):
            if getattr(args, name) is not None:
                setattr(cfg, name, getattr(args, name))
        check_params(cfg)
        return COMMANDS[cfg.command](cfg)
    except AmptreeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (UsageError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except KeyError as exc:
        sys.stderr.write(f"error: missing required config field: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
