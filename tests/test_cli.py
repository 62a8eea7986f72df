"""Command-line interface: subcommands, config round-trip, determinism."""
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from amptree import catalog, cli, learning, leveled
from amptree.cli import ExperimentConfig, main


def run_cli(args, tmp_path=None):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_experiment_config_roundtrip():
    cfg = ExperimentConfig(command="simulate",
                           params={"construction": "quad4", "t": 0.5,
                                   "m": 10, "levels": 3, "n": 8, "p": 0.4},
                           seed=42, out=None, format="csv")
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg


def test_enumerate_counts(tmp_path):
    out = tmp_path / "table.json"
    code, _ = run_cli(["enumerate", "--max-degree", "5", "--out", str(out)])
    assert code == 0
    table = json.loads(out.read_text())
    assert [len(table[str(d)]) for d in range(1, 6)] == [1, 2, 4, 10, 24]
    assert [0, 1] in table["1"]


def test_enumerate_csv_golden_degree_3():
    code, text = run_cli(["enumerate", "--max-degree", "3", "--format", "csv"])
    assert code == 0
    assert text.splitlines()[0] == "degree,coefficients"
    assert len(text.splitlines()) == 1 + 1 + 2 + 4


def test_analyze_valiant():
    code, text = run_cli(["analyze", "--construction", "valiant"])
    assert code == 0
    report = json.loads(text)
    interior = [f for f in report["fixed_points"] if 0 < f["location"] < 1]
    assert abs(interior[0]["location"] - 0.3819660113) < 1e-9
    assert report["status"] == "ok"


def test_analyze_with_conditions_exit_codes():
    code, text = run_cli(["analyze", "--construction", "quad4", "--t", "0.5",
                          "--u", "0.2", "--v", "0.8"])
    assert code == 0
    assert json.loads(text)["conditions"]["passed"] is True
    code, text = run_cli(["analyze", "--construction", "linear", "--t", "0.5",
                          "--u", "0.2", "--v", "0.8"])
    assert code == 1
    report = json.loads(text)
    assert report["status"] == "fail"
    assert any(f["check"] == "condition" for f in report["failures"])


def test_analyze_rejects_out_of_range():
    code, _ = run_cli(["analyze", "--construction", "quad4", "--t", "0.1"])
    assert code == 1


def test_iterate_csv():
    code, text = run_cli(["iterate", "--construction", "linear", "--t", "0.5",
                          "--p", "0.4", "--levels", "6", "--format", "csv"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "level,iterate,error"
    assert lines[1].startswith("0,0.4,")


def test_simulate_leveled_deterministic_output(tmp_path):
    args = ["simulate", "--construction", "valiant", "--mode", "leveled",
            "--m", "25", "--levels", "5", "--n", "16", "--p", "0.7",
            "--trials", "4", "--seed", "99", "--format", "csv"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)])[0] == 0
    assert run_cli(args + ["--out", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_stream_json():
    code, text = run_cli(["simulate", "--construction", "linear", "--t",
                          "0.5", "--mode", "stream", "--n", "16", "--k",
                          "200", "--p", "0.3", "--trials", "5", "--seed",
                          "7"])
    assert code == 0
    summary = json.loads(text)
    assert 0.0 <= summary["mean_final_x"] <= 1.0
    assert "final_item_rate" in summary


def test_simulate_exact_mode():
    code, text = run_cli(["simulate", "--construction", "valiant", "--mode",
                          "exact", "--m", "40", "--levels", "6", "--p",
                          "0.5"])
    assert code == 0
    assert 0.0 <= json.loads(text)["firing_probability"] <= 1.0


def test_learn_eval_roundtrip(tmp_path):
    x_file = tmp_path / "x.json"
    x_file.write_text(json.dumps([1, 1, 1, 0, 0, 0]))
    learned = tmp_path / "learned.json"
    code, _ = run_cli(["learn", "--x-file", str(x_file), "--levels", "3",
                       "--width", "20", "--seed", "5", "--out", str(learned)])
    assert code == 0
    input_file = tmp_path / "input.json"
    input_file.write_text(json.dumps([1, 1, 1, 1, 0, 0]))
    code, text = run_cli(["eval", "--learned-file", str(learned),
                          "--input-file", str(input_file)])
    assert code == 0
    assert 0.0 <= json.loads(text)["firing_fraction"] <= 1.0


def _refuse_long_json(loads):
    """json.loads that fails on any text over 1 KB."""
    def short_only(text, *args, **kwargs):
        assert len(text) <= 1024, "json.loads was handed a long text"
        return loads(text, *args, **kwargs)
    return short_only


def test_eval_reads_learn_out_files_without_json_loads(tmp_path, monkeypatch):
    x_file = tmp_path / "x.json"
    x_file.write_text(json.dumps([int(i % 5 < 2) for i in range(200)]))
    learned, spaced = tmp_path / "learned.json", tmp_path / "spaced.json"
    assert run_cli(["learn", "--x-file", str(x_file), "--levels", "3",
                    "--width", "2000", "--seed", "5",
                    "--out", str(learned)])[0] == 0
    spaced.write_text(json.dumps(json.loads(learned.read_text())))
    argv = ["eval", "--input-file", str(x_file), "--learned-file"]
    code, general = run_cli(argv + [str(spaced)])
    assert code == 0
    monkeypatch.setattr(json, "loads", _refuse_long_json(json.loads))
    with pytest.raises(AssertionError, match="long text"):
        run_cli(argv + [str(spaced)])
    assert run_cli(argv + [str(learned)]) == (0, general)


def test_eval_refuses_a_sample_past_the_top_level(tmp_path):
    x_file = tmp_path / "x.json"
    x_file.write_text(json.dumps([1, 0, 1, 1, 0]))
    learned = tmp_path / "learned.json"
    assert run_cli(["learn", "--x-file", str(x_file), "--levels", "2",
                    "--width", "200", "--out", str(learned)])[0] == 0
    argv = ["eval", "--learned-file", str(learned), "--input-file",
            str(x_file), "--sample"]
    assert run_cli_err(argv + ["200"])[0] == 0
    for sample in ("201", "0"):
        code, out, err = run_cli_err(argv + [sample])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: sample")


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg = ExperimentConfig(command="iterate",
                           params={"construction": "linear", "t": 0.5,
                                   "p": 0.4, "levels": 5},
                           seed=1, format="json")
    cfg_file.write_text(cfg.to_json())
    code, text = run_cli(["iterate", "--config", str(cfg_file)])
    assert code == 0
    base = json.loads(text)
    code, text = run_cli(["iterate", "--config", str(cfg_file),
                          "--p", "0.6"])
    override = json.loads(text)
    assert base["p"] == 0.4 and override["p"] == 0.6


def run_cli_err(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_analyze_conditions_without_threshold_is_a_usage_error():
    code, out, err = run_cli_err(["analyze", "--construction",
                                  "soft_threshold", "--k", "5", "--u", "0.1",
                                  "--v", "0.9"])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "no threshold" in err


#: Constructions with no threshold hint and three interior fixed points,
#: so none is the threshold: soft_threshold(6) and a two-step staircase.
NO_THRESHOLD = {
    "soft_threshold": ["--k", "6"],
    "staircase": ["--params", '{"breakpoints": [0.3, 0.7], "heights": [0.5],'
                              ' "epsilon": 0.1, "delta": 0.1}'],
}

#: The commands that read a construction's threshold.
NEEDS_THRESHOLD = {
    "analyze": ["analyze", "--u", "0.1", "--v", "0.9"],
    "iterate": ["iterate", "--p", "0.3"],
    "width_scaling": ["simulate", "--mode", "width_scaling"],
}


@pytest.mark.parametrize("command", sorted(NEEDS_THRESHOLD))
@pytest.mark.parametrize("construction", sorted(NO_THRESHOLD))
def test_a_construction_without_a_threshold_is_a_usage_error(construction,
                                                             command):
    code, out, err = run_cli_err(NEEDS_THRESHOLD[command] + [
        "--construction", construction] + NO_THRESHOLD[construction])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "no threshold" in err


def test_width_scaling_prints_the_library_result():
    code, out, err = run_cli_err([
        "simulate", "--construction", "quad4", "--t", "0.5", "--mode",
        "width_scaling", "--params",
        '{"gammas": [0.2, 0.1], "epsilons": [0.1]}'])
    res = leveled.width_scaling_experiment(catalog.quad4(0.5), (0.2, 0.1),
                                           (0.1,))
    assert (out, err) == (res.to_json() + "\n", "")
    assert (code == 0) == (res.verdict == "OK")


def test_learn_and_eval_with_missing_files_exit_2(tmp_path):
    missing = str(tmp_path / "missing.json")
    x_file = tmp_path / "x.json"
    x_file.write_text(json.dumps([1, 0, 1, 0]))
    learned = tmp_path / "learned.json"
    assert run_cli(["learn", "--x-file", str(x_file), "--levels", "2",
                    "--width", "5", "--out", str(learned)])[0] == 0
    cases = [
        ["learn", "--x-file", missing, "--levels", "2", "--width", "5"],
        ["learn", "--x-file", str(tmp_path), "--levels", "2", "--width",
         "5"],
        ["eval", "--learned-file", missing, "--input-file", str(x_file)],
        ["eval", "--learned-file", str(learned), "--input-file", missing],
    ]
    for args in cases:
        code, out, err = run_cli_err(args)
        assert code == 2, args
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: [Errno")


def test_learn_with_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 0,")
    code, _, err = run_cli_err(["learn", "--x-file", str(bad), "--levels",
                                "2", "--width", "5"])
    assert code == 2
    assert err.count("\n") == 1 and "malformed JSON" in err


def test_bad_params_exit_2():
    for params in ("{bad", "[1]", "3"):
        code, out, err = run_cli_err(["analyze", "--construction", "valiant",
                                      "--params", params])
        assert code == 2, params
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: bad --params")


def test_wrong_shape_input_files_exit_2(tmp_path):
    bits = tmp_path / "bits.json"
    bits.write_text("[1, 0, 1]")
    learned = tmp_path / "learned.json"
    assert run_cli(["learn", "--x-file", str(bits), "--levels", "2",
                    "--width", "5", "--out", str(learned)])[0] == 0
    good = json.loads(learned.read_text())
    out_of_range = dict(good, levels=[dict(good["levels"][0],
                                           wiring=[[0, 0, 3]] * 5)])
    float_block = dict(good, levels=[dict(good["levels"][0],
                                          blocks=[0.7, 1, 1, 0, 1])])
    float_index = dict(good, levels=[dict(good["levels"][0],
                                          wiring=[[1.9, 0, 2]] * 5)])
    bool_index = dict(good, levels=[dict(good["levels"][0],
                                         wiring=[[True, 0, 2]] * 5)])
    bad = {}
    for name, value in (("list", [1, 0, 1]), ("levels", {"levels": 4}),
                        ("wiring", out_of_range), ("object", {"a": 1}),
                        ("float_block", float_block),
                        ("float_index", float_index),
                        ("bool_index", bool_index),
                        ("float_n", dict(good, n=3.9)),
                        ("string_n", dict(good, n="3")),
                        ("string_seed", dict(good, seed="7")),
                        ("number", 5), ("strings", [1, "x"]),
                        ("twos", [1, 2, 0]),
                        ("float_bits", [1.0, 0.0, 1]),
                        ("bool_bits", [True, 0, 1]),
                        ("no_inputs", {"n": 0, "seed": 0, "example_ones": 0,
                                       "levels": []}),
                        ("no_levels", dict(good, levels=[])),
                        ("many_ones", dict(good, example_ones=9))):
        bad[name] = tmp_path / f"{name}.json"
        bad[name].write_text(json.dumps(value))
    cases = [["eval", "--learned-file", str(bad[name]), "--input-file",
              str(bits)] for name in ("list", "levels", "wiring",
                                      "no_inputs", "no_levels",
                                      "many_ones", "float_block",
                                      "float_index", "bool_index",
                                      "float_n", "string_n", "string_seed")]
    cases += [["eval", "--learned-file", str(learned), "--input-file",
               str(bad[name])] for name in ("object", "number", "strings",
                                            "float_bits", "bool_bits")]
    cases += [["learn", "--x-file", str(bad[name]), "--levels", "2",
               "--width", "5"] for name in ("object", "number", "twos",
                                            "float_bits", "bool_bits")]
    for args in cases:
        code, out, err = run_cli_err(args)
        assert code == 2, args
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("content", [b"[" * 100_000, b"\xff[1]"],
                         ids=["deep", "not UTF-8"])
@pytest.mark.parametrize("flag", ["--config", "--x-file", "--input-file",
                                  "--learned-file", "--params"])
def test_unusable_json_text_exits_2(tmp_path, flag, content):
    # RFC 8259 lets a parser bound the nesting depth; text nested past it
    # is unusable input on every path that reads JSON, as are bytes that
    # are not UTF-8.  --params takes 5,000 brackets, within argv's limit.
    bits = tmp_path / "bits.json"
    bits.write_text("[1, 0, 1]")
    learned = tmp_path / "learned.json"
    learned.write_text(learning.learn_threshold(2, 4, [1, 0, 1], 0).to_json())
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    args = {
        "--config": ["analyze", "--config", str(bad)],
        "--x-file": ["learn", "--x-file", str(bad), "--levels", "2",
                     "--width", "5"],
        "--input-file": ["eval", "--learned-file", str(learned),
                         "--input-file", str(bad)],
        "--learned-file": ["eval", "--learned-file", str(bad),
                           "--input-file", str(bits)],
        "--params": ["analyze", "--params", os.fsdecode(content[:5000])],
    }[flag]
    code, out, err = run_cli_err(args)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_non_finite_alpha_is_one_error_line(alpha):
    code, out, err = run_cli_err(["simulate", "--construction", "linear",
                                  "--t", "0.5", "--mode", "stream",
                                  "--n", "8", "--k", "20", "--p", "0.5",
                                  "--alpha", alpha])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("name, fields", [
    ("params", {"command": "analyze", "params": [1]}),
    ("seed", {"command": "simulate", "seed": "x"}),
    ("out", {"command": "analyze", "out": 5}),
    ("format", {"command": "analyze", "format": "xml"}),
])
def test_bad_config_field_exits_2(tmp_path, name, fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    code, out, err = run_cli_err(["simulate", "--config", str(path),
                                  "--construction", "valiant",
                                  "--mode", "leveled", "--m", "10",
                                  "--levels", "2", "--n", "8", "--p", "0.4"])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: bad config"), err
    assert f"{name} must be" in err


def test_threads_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        run_cli_err(["enumerate", "--threads", "2"])
    assert exc.value.code == 2


def test_unknown_construction_fails_cleanly():
    code, _ = run_cli(["analyze", "--construction", "nonsense"])
    assert code == 2


#: One value for every construction key, and what each construction is
#: with them.
KEYS = {"t": 0.5, "alpha": 0.5, "k": 5, "breakpoints": [0.5], "heights": [],
        "epsilon": 0.2, "delta": 0.2}
BUILT = {
    "valiant": catalog.valiant,
    "linear": lambda: catalog.linear_threshold(0.5),
    "quad4": lambda: catalog.quad4(0.5), "quad5": lambda: catalog.quad5(0.5),
    "quad6": lambda: catalog.quad6(0.5), "quad7": lambda: catalog.quad7(0.5),
    "quad_k": lambda: catalog.quad_k(0.5),
    "one_step": lambda: catalog.one_step(0.5),
    "soft_threshold": lambda: catalog.soft_threshold(5),
    "staircase": lambda: catalog.staircase(
        catalog.StaircaseSpec((0.5,), (), 0.2, 0.2)),
}


@pytest.mark.parametrize("name", sorted(cli.CONSTRUCTIONS))
def test_each_construction_reads_the_keys_params_names(name):
    keys = {key: value for key, value in KEYS.items()
            if name in cli.PARAMS[key][1]}
    params = dict(keys, construction=name)
    built = cli.build_construction(params)
    assert built.to_json() == BUILT[name]().to_json()
    code, out, err = run_cli_err(["analyze", "--params", json.dumps(params)])
    assert code == 0, err
    assert json.loads(out)["label"] == built.label
    for key in keys:
        code, out, err = run_cli_err(["analyze", "--params", json.dumps(
            {k: v for k, v in params.items() if k != key})])
        assert (code, out) == (2, ""), key
        assert err == f"error: missing required config field: {key!r}\n"
    for key in sorted(set(KEYS) - set(keys)):
        code, out, err = run_cli_err(["analyze", "--params", json.dumps(
            dict(params, **{key: KEYS[key]}))])
        assert (code, out) == (2, ""), key
        assert err == f"error: {name} does not read parameter {key!r}\n"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "amptree.cli", "enumerate", "--max-degree",
         "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["2"] == [[0, 0, 1], [0, 2, -1]]


SIMULATE = {"construction": "valiant", "mode": "leveled", "m": 5,
            "levels": 2, "n": 4, "p": 0.5}


@pytest.mark.parametrize("command, params, message", [
    ("simulate", dict(SIMULATE, trials=2.7), "trials must be int"),
    ("simulate", dict(SIMULATE, n=True), "n must be int"),
    ("simulate", dict(SIMULATE, p=None), "p must be float"),
    ("simulate", {"construction": "valiant", "m": 5, "levels": 2, "n": 2,
                  "bits": [1, "a"]}, "bits must be a list of int"),
    ("simulate", dict(SIMULATE, widths=[1e400]),
     "widths must be a list of int"),
    ("analyze", {"construction": "linear", "t": "x"}, "t must be float"),
    ("analyze", {"construction": "linear", "t": None}, "t must be float"),
    ("analyze", {"construction": ["x"]}, "construction must be str"),
    ("analyze", {"construction": "staircase", "heights": "ab"},
     "heights must be a list of float"),
    ("learn", {"x_file": 5, "levels": 2, "width": 3}, "x_file must be str"),
    ("analyze", {"construction": "valiant", "p": 0.5},
     "analyze does not read parameter 'p'"),
    ("enumerate", {"bogus": 1}, "enumerate does not read parameter 'bogus'"),
])
def test_mistyped_or_unread_params_exit_2(tmp_path, command, params,
                                          message):
    config = tmp_path / "config.json"
    config.write_text(ExperimentConfig(command=command,
                                       params=params).to_json())
    for source in (["--params", json.dumps(params)],
                   ["--config", str(config)]):
        code, out, err = run_cli_err([command] + source)
        assert code == 2, source
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {message}")


@pytest.mark.parametrize("args", [
    ["simulate", "--construction", "valiant", "--m", "5", "--levels", "2",
     "--n", "2", "--params", '{"bits": [2, 3]}'],
    ["simulate", "--construction", "valiant", "--mode", "stream", "--k", "4",
     "--n", "2", "--params", '{"bits": [2, 3]}'],
    ["iterate", "--construction", "linear", "--t", "0.5", "--p", "0.4",
     "--levels", "-1"],
    ["simulate", "--construction", "linear", "--t", "0.5", "--mode",
     "width_scaling", "--params", '{"gammas": []}'],
    ["simulate", "--construction", "linear", "--t", "0.5", "--mode",
     "width_scaling", "--params", '{"gammas": [0.3], "epsilons": [0.2]}'],
    ["simulate", "--construction", "linear", "--t", "0.5", "--mode",
     "width_scaling", "--params",
     '{"gammas": [0.3, 0.3], "epsilons": [0.2]}'],
    ["simulate", "--construction", "linear", "--t", "0.5", "--mode",
     "width_scaling", "--params",
     '{"gammas": [0.1, 0.2], "epsilons": [1e-200]}'],
    ["simulate", "--construction", "linear", "--t", "0.5", "--mode",
     "width_scaling", "--params",
     '{"gammas": [5e-324, 0.2], "epsilons": [0.1]}'],
])
def test_out_of_range_values_are_one_error_line(args):
    code, out, err = run_cli_err(args)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: "), err


def test_flags_and_params_take_one_check():
    code, _, flag_err = run_cli_err(["analyze", "--construction", "valiant",
                                     "--p", "0.5"])
    assert code == 2
    code, _, params_err = run_cli_err(["analyze", "--params",
                                       '{"construction": "valiant", '
                                       '"p": 0.5}'])
    assert code == 2 and flag_err == params_err


def test_flags_are_the_scalar_params():
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit):
        main(["-h"])
    flags = set(re.findall(r"--[a-z-]+", out.getvalue()))
    scalars = {"--" + name.replace("_", "-")
               for name, (typ, _) in cli.PARAMS.items()
               if not isinstance(typ, list)} - {"--epsilon", "--delta"}
    assert len(scalars) == 18
    assert flags == scalars | {"--help", "--config", "--out", "--format",
                               "--seed", "--params"}


STREAM = ["simulate", "--construction", "linear", "--t", "0.5", "--mode",
          "stream", "--n", "8", "--k", "20", "--p", "0.3"]


@pytest.mark.parametrize("args, message", [
    (STREAM + ["--m", "99", "--levels", "4"],
     "simulate --mode stream does not read parameter 'levels'"),
    (["simulate", "--construction", "valiant", "--mode", "exact", "--m",
      "5", "--levels", "2", "--p", "0.5", "--trials", "7", "--n", "5"],
     "simulate --mode exact does not read parameter 'n'"),
    (["simulate", "--construction", "linear", "--t", "0.5", "--mode",
      "width_scaling", "--n", "5", "--m", "3", "--p", "0.3"],
     "simulate --mode width_scaling does not read parameter 'p'"),
    (["simulate", "--construction", "valiant", "--mode", "leveled", "--m",
      "5", "--levels", "2", "--n", "4", "--p", "0.5", "--params",
      '{"widths": [3]}'], "widths sets every level's width"),
    (["simulate", "--construction", "valiant", "--mode", "bogus"],
     "mode must be one of leveled, stream, exact, width_scaling: 'bogus'"),
    (["analyze", "--construction", "valiant", "--format", "csv"],
     "analyze writes JSON only"),
    (["learn", "--x-file", "x.json", "--levels", "2", "--width", "4",
      "--format", "csv"], "learn writes JSON only"),
    (["eval", "--learned-file", "l.json", "--input-file", "x.json",
      "--format", "csv"], "eval writes JSON only"),
    (["simulate", "--construction", "valiant", "--mode", "exact", "--m",
      "5", "--levels", "2", "--p", "0.5", "--format", "csv"],
     "simulate --mode exact writes JSON only"),
    (["simulate", "--construction", "linear", "--t", "0.5", "--mode",
      "width_scaling", "--format", "csv"],
     "simulate --mode width_scaling writes JSON only"),
    (["analyze", "--construction", "valiant", "--t", "0.3", "--alpha", "0.2",
      "--k", "4"], "valiant does not read parameter 't'"),
    (["simulate", "--construction", "quad4", "--t", "0.5", "--mode", "exact",
      "--m", "5", "--levels", "2", "--p", "0.5", "--params",
      '{"breakpoints": [0.5]}'],
     "quad4 does not read parameter 'breakpoints'"),
    (["simulate", "--construction", "linear", "--t", "0.5", "--m", "5",
      "--levels", "2", "--n", "4", "--p", "0.5", "--alpha", "0.1"],
     "linear does not read parameter 'alpha'"),
    (["analyze", "--construction", "nonsense"],
     "construction must be one of valiant, linear, "),
    (["simulate", "--mode", "exact", "--m", "5", "--levels", "2", "--p",
      "0.5"], "construction must be one of valiant, linear, "),
    (["analyze", "--construction", "quad4", "--t", "0.5", "--u", "0.2"],
     "u and v bound one corridor; give both or neither"),
    (["analyze", "--construction", "quad4", "--t", "0.5", "--v", "0.8"],
     "u and v bound one corridor; give both or neither"),
    (["simulate", "--construction", "quad4", "--t", "0.5", "--mode",
      "width_scaling", "--trials", "10"],
     "simulate --mode width_scaling does not read parameter 'trials'"),
])
def test_params_a_mode_does_not_read_exit_2(args, message):
    code, out, err = run_cli_err(args)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {message}"), err


def test_int_params_pass_as_floats():
    code, text = run_cli(["simulate", "--params", json.dumps(
        {"construction": "valiant", "mode": "exact", "m": 5, "levels": 2,
         "p": 1})])
    assert code == 0
    assert json.loads(text)["firing_probability"] == 1.0


@pytest.mark.parametrize("construction, flags, key", [
    ("one_step", ["--alpha", "0.5"], "alpha"),
    ("soft_threshold", ["--k", "6"], "k"),
])
def test_shared_keys_in_stream_mode_exit_2(construction, flags, key):
    code, out, err = run_cli_err(["simulate", "--construction", construction,
                                  "--mode", "stream", "--n", "4", "--p",
                                  "0.5"] + flags)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and f"{key} would set both" in err


def test_subnormal_alpha_runs():
    code, out, err = run_cli_err(["simulate", "--construction", "linear",
                                  "--t", "0.5", "--mode", "stream", "--n",
                                  "8", "--k", "20", "--p", "0.5", "--alpha",
                                  "5e-324"])
    assert code == 0, err
    assert json.loads(out)["phases"] == []


# ---------------------------------------------------------------------------
# Fuzzing the parameter table
# ---------------------------------------------------------------------------

#: Values of the wrong type for every parameter, or of the right type at
#: an extreme.
WRONG = st.one_of(
    st.text(max_size=4), st.lists(st.integers(-1, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.none(), st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e400]))

MODES = st.one_of(st.sampled_from(list(cli.MODES)), st.text(max_size=5))

#: One call per command and simulate mode that exits 0; each fuzzed call
#: starts from one.  "bits" and "learned" name files of fuzz_files.
VALID = (
    ("enumerate", {"max_degree": 3}),
    ("analyze", {"construction": "quad4", "t": 0.5, "u": 0.2, "v": 0.8}),
    ("iterate", {"construction": "linear", "t": 0.5, "p": 0.4, "levels": 6}),
    ("simulate", {"construction": "valiant", "mode": "leveled", "m": 5,
                  "levels": 3, "n": 4, "p": 0.5, "trials": 2}),
    ("analyze", {"construction": "staircase", "breakpoints": [0.5],
                 "heights": [], "epsilon": 0.2, "delta": 0.2}),
    ("simulate", {"construction": "valiant", "widths": [6, 4], "n": 4,
                  "bits": [1, 0, 1, 1]}),
    ("simulate", {"construction": "linear", "t": 0.5, "mode": "stream",
                  "n": 4, "k": 8, "alpha": 0.5, "p": 0.5, "trials": 2}),
    ("simulate", {"construction": "quad4", "t": 0.5, "mode": "exact",
                  "m": 6, "levels": 3, "p": 0.4}),
    ("simulate", {"construction": "quad4", "t": 0.5,
                  "mode": "width_scaling", "gammas": [0.2, 0.1],
                  "epsilons": [0.1, 0.05]}),
    ("learn", {"x_file": "bits", "levels": 2, "width": 4}),
    ("eval", {"learned_file": "learned", "input_file": "bits",
              "sample": 3}),
)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """File parameters by name: valid, malformed, wrong shape, missing."""
    root = tmp_path_factory.mktemp("fuzz")
    bits = [1, 0, 1, 1]
    contents = {
        "bits": json.dumps(bits),
        "learned": learning.learn_threshold(2, 4, bits, 0).to_json(),
        "malformed": "[1, 0,", "object": '{"a": 1}', "twos": "[2, 3]"}
    for name, text in contents.items():
        (root / f"{name}.json").write_text(text)
    return {name: str(root / f"{name}.json")
            for name in list(contents) + ["missing", "config"]}


def _right(name, typ, files):
    """A small value of ``typ`` for parameter ``name``."""
    if isinstance(typ, list):
        return st.lists(_right(name, typ[0], files), max_size=8)
    if name.endswith("_file"):
        return st.sampled_from([files[f] for f in sorted(files)
                                if f != "config"])
    if name == "mode":
        return MODES
    if name == "construction":
        return st.one_of(st.sampled_from(sorted(cli.CONSTRUCTIONS)),
                         st.text(max_size=5))
    if typ is str:
        return st.text(max_size=5)
    if typ is int:
        top = 4 if name == "max_degree" else 8
        return st.one_of(st.integers(0, 1), st.integers(-1, top))
    return st.one_of(st.floats(0, 1), st.floats(-1, 8), st.integers(0, 1))


def _has_flag(name):
    return not isinstance(cli.PARAMS[name][0], list) and \
        name not in ("epsilon", "delta")


@st.composite
def cli_calls(draw, files):
    """argv for one CLI call: a VALID call with a few of its command's
    PARAMS redrawn (right-typed or wrong) or dropped, sometimes one key
    the command does not read, passed as flags, --params or --config."""
    command, base = draw(st.sampled_from(VALID))
    params = {name: files.get(value, value) if name.endswith("_file")
              else value for name, value in base.items()}
    who = set(cli.readers_of(command, base))
    read = [name for name, (_, readers) in cli.PARAMS.items()
            if who & set(readers)]
    names = draw(st.lists(st.sampled_from(read), max_size=3))
    if draw(st.integers(0, 9)) == 0:
        names.append(draw(st.sampled_from(sorted(cli.PARAMS) + ["bogus"])))
    for name in names:
        how = draw(st.sampled_from(["right", "right", "wrong", "drop"]))
        if how == "drop":
            params.pop(name, None)
        else:
            params[name] = draw(WRONG if how == "wrong" else _right(
                name, cli.PARAMS.get(name, (str,))[0], files))
    argv = [command]
    via = draw(st.sampled_from(["flags", "params", "config"]))
    if via == "flags":
        for name in [name for name in params if name in cli.PARAMS
                     and _has_flag(name)]:
            argv += ["--" + name.replace("_", "-"), str(params.pop(name))]
    if via == "config":
        with open(files["config"], "w") as fh:
            fh.write(ExperimentConfig(command=command, params=params)
                     .to_json())
        argv += ["--config", files["config"]]
    elif params:
        argv += ["--params", json.dumps(params)]
    fmt = draw(st.sampled_from([None, "csv", "json"]))
    return argv + (["--format", fmt] if fmt else [])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_params_exit_cleanly(fuzz_files, data):
    argv = data.draw(cli_calls(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code and out.getvalue():     # a failed check, reported on stdout
        assert (code, err.getvalue()) == (1, ""), argv
        json.loads(out.getvalue())
    elif code:      # one line, so a traceback or a second message shows
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
