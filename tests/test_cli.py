"""Command-line interface: subcommands, config round-trip, determinism."""
import json
import subprocess
import sys

from amptree.cli import ExperimentConfig, main


def run_cli(args, tmp_path=None):
    import io
    from contextlib import redirect_stdout
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
    import io
    from contextlib import redirect_stderr, redirect_stdout
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
        assert err.count("\n") == 1 and err.startswith("bad --params")


def test_wrong_shape_input_files_exit_2(tmp_path):
    bits = tmp_path / "bits.json"
    bits.write_text("[1, 0, 1]")
    learned = tmp_path / "learned.json"
    assert run_cli(["learn", "--x-file", str(bits), "--levels", "2",
                    "--width", "5", "--out", str(learned)])[0] == 0
    good = json.loads(learned.read_text())
    out_of_range = dict(good, levels=[dict(good["levels"][0],
                                           wiring=[[0, 0, 3]] * 5)])
    bad = {}
    for name, value in (("list", [1, 0, 1]), ("levels", {"levels": 4}),
                        ("wiring", out_of_range), ("object", {"a": 1}),
                        ("number", 5), ("strings", [1, "x"]),
                        ("twos", [1, 2, 0])):
        bad[name] = tmp_path / f"{name}.json"
        bad[name].write_text(json.dumps(value))
    cases = [["eval", "--learned-file", str(bad[name]), "--input-file",
              str(bits)] for name in ("list", "levels", "wiring")]
    cases += [["eval", "--learned-file", str(learned), "--input-file",
               str(bad[name])] for name in ("object", "number", "strings")]
    cases += [["learn", "--x-file", str(bad[name]), "--levels", "2",
               "--width", "5"] for name in ("object", "number", "twos")]
    for args in cases:
        code, out, err = run_cli_err(args)
        assert code == 2, args
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: "), err


def test_threads_flag_is_gone():
    import pytest
    with pytest.raises(SystemExit) as exc:
        run_cli_err(["enumerate", "--threads", "2"])
    assert exc.value.code == 2


def test_unknown_construction_fails_cleanly():
    code, _ = run_cli(["analyze", "--construction", "nonsense"])
    assert code == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "amptree.cli", "enumerate", "--max-degree",
         "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["2"] == [[0, 0, 1], [0, 2, -1]]
