"""Failure accounting: raised, check failed, and CLI uncaught."""
from types import SimpleNamespace

from ops import (CHECK_FAILED, CLI_UNCAUGHT, RAISED, Op, Tally, run_cli,
                 run_op)


def fake_cli(behaviour):
    def main(argv):
        return behaviour(argv)
    return SimpleNamespace(main=main)


def raise_(exc):
    raise exc


def run_all(ops):
    tally, results = Tally(), {}
    records = [run_op(op, results, tally) for op in ops]
    return tally, records


def test_each_kind_of_failure_is_counted_once():
    cli_ok = fake_cli(lambda argv: 0)
    cli_usage = fake_cli(lambda argv: raise_(SystemExit(2)))
    cli_crash = fake_cli(lambda argv: raise_(TypeError("bad")))
    ops = [
        Op("ok", lambda r: 1, check=lambda v, r: None),
        Op("raised", lambda r: raise_(ValueError("x"))),
        Op("wrong", lambda r: 2, check=lambda v, r: f"got {v}"),
        Op("cli.ok", lambda r: run_cli(cli_ok, [])),
        Op("cli.usage", lambda r: run_cli(cli_usage, []),
           check=lambda res, r: None if res.code == 2 else "code"),
        Op("cli.crash", lambda r: run_cli(cli_crash, []),
           known_defect="documented"),
    ]
    tally, records = run_all(ops)
    assert [r.outcome for r in records] == [
        "ok", RAISED, CHECK_FAILED, "ok", "ok", CLI_UNCAUGHT]
    assert (tally.attempted, tally.failed) == (6, 3)
    assert (tally.raised, tally.check_failed, tally.cli_uncaught) == (1, 1, 1)
    assert tally.failed_frac == 3 / 6
    assert tally.failures["cli.crash"]["known_defect"] == "documented"
    assert tally.failures["wrong"]["detail"] == "got 2"


def test_repeated_passes_accumulate():
    ops = [Op("ok", lambda r: 1), Op("bad", lambda r: raise_(KeyError("k")))]
    tally, results = Tally(), {}
    for _ in range(3):
        for op in ops:
            run_op(op, results, tally)
    assert (tally.attempted, tally.failed) == (6, 3)
    assert tally.failures["bad"]["count"] == 3


def test_a_check_that_raises_is_a_failed_check():
    tally, records = run_all([Op("x", lambda r: None,
                                 check=lambda v, r: v.missing)])
    assert records[0].outcome == CHECK_FAILED
    assert tally.check_failed == 1


def test_later_operations_see_earlier_results():
    ops = [Op("a", lambda r: 20), Op("b", lambda r: r["a"] + 1,
                                     check=lambda v, r: None if v == 21
                                     else "stale")]
    tally, _ = run_all(ops)
    assert tally.failed == 0


def test_output_that_changes_between_passes_fails_its_check():
    values = iter([b"same", b"same", b"other"])
    op = Op("sim", lambda r: next(values), digest=lambda v: v)
    tally, results = Tally(), {}
    outcomes = [run_op(op, results, tally).outcome for _ in range(3)]
    assert outcomes == ["ok", "ok", CHECK_FAILED]
    assert len(tally.digests["sim"]) == 64


def test_cli_output_is_captured():
    def main(argv):
        print("hello", " ".join(argv))
        return 0
    res = run_cli(SimpleNamespace(main=main), ["a", "b"])
    assert (res.code, res.out) == (0, "hello a b\n")
