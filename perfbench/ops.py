"""Benchmark operations, their correctness checks and failure accounting.

An operation is one call into amptree that a user would make, issued
after the previous one returns (a closed loop).  Only the call is timed;
its check runs afterwards.  An operation fails when it raises, when its
check fails, or, for a CLI call, when ``cli.main`` raises instead of
returning an exit code.  Exit through ``SystemExit`` (argparse usage
errors) is an exit code, not a failure.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Name of the root span a traced run records around each operation.
OP_SPAN = "op"

RAISED = "raised"
CHECK_FAILED = "check_failed"
CLI_UNCAUGHT = "cli_uncaught"


@dataclass
class Op:
    """One operation of a workload pass.

    ``call(results)`` makes the call; ``results`` maps the names of the
    operations already run in this pass to their values, so a call can use
    an earlier output and a check can compare against an earlier reference.
    ``check(value, results)`` returns a failure reason or None.
    ``digest(value)`` gives the bytes (CSV or JSON) whose sha256 is
    reported as determinism evidence.  ``items`` is the simulated work of
    the call; ``cli`` names the ``cli.<key>_ms`` metric of a CLI call.
    ``known_defect`` explains an expected failure that is left visible.
    """

    name: str
    call: Callable[[dict], Any]
    check: Callable[[Any, dict], str | None] | None = None
    digest: Callable[[Any], bytes] | None = None
    items: int = 0
    cli: str | None = None
    known_defect: str | None = None


@dataclass
class CliResult:
    code: int
    out: str
    err: str


class CliUncaught(Exception):
    """``cli.main`` raised instead of returning an exit code."""


def run_cli(module, argv: list[str]) -> CliResult:
    """Call ``module.main(argv)`` in-process with stdout/stderr captured.

    ``main`` is looked up at call time so that a traced run sees it.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = module.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else \
            (0 if exc.code is None else 1)
    except Exception as exc:
        raise CliUncaught(f"{type(exc).__name__}: {exc}") from exc
    return CliResult(code=code, out=out.getvalue(), err=err.getvalue())


@dataclass
class OpRecord:
    """The outcome of one executed operation."""

    name: str
    cli: str | None
    seconds: float = 0.0
    outcome: str = "ok"
    detail: str = ""


@dataclass
class Tally:
    """Attempted and failed operations, by kind of failure."""

    attempted: int = 0
    raised: int = 0
    check_failed: int = 0
    cli_uncaught: int = 0
    failures: dict[str, dict] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.raised + self.check_failed + self.cli_uncaught

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def count(self, op: Op, record: OpRecord) -> None:
        self.attempted += 1
        if record.outcome == "ok":
            return
        setattr(self, record.outcome, getattr(self, record.outcome) + 1)
        entry = self.failures.setdefault(
            op.name, {"kind": record.outcome, "detail": record.detail,
                      "known_defect": op.known_defect, "count": 0})
        entry["count"] += 1


def run_op(op: Op, results: dict, tally: Tally, recorder=None) -> OpRecord:
    """Time ``op.call(results)``, then check it and count the outcome."""
    record = OpRecord(name=op.name, cli=op.cli)
    span = None
    if recorder is not None:
        recorder.op_id += 1
        span = recorder.open(OP_SPAN, record)
    value = None
    t0 = time.perf_counter()
    try:
        value = op.call(results)
    except CliUncaught as exc:
        record.outcome, record.detail = CLI_UNCAUGHT, str(exc)
    except Exception as exc:
        record.outcome = RAISED
        record.detail = f"{type(exc).__name__}: {exc}"
    finally:
        record.seconds = time.perf_counter() - t0
        if span is not None:
            recorder.close(span)
    if record.outcome == "ok":
        results[op.name] = value
        record.detail = _checked(op, value, results, tally) or ""
        if record.detail:
            record.outcome = CHECK_FAILED
    tally.count(op, record)
    return record


def _checked(op: Op, value, results: dict, tally: Tally) -> str | None:
    try:
        if op.check is not None:
            reason = op.check(value, results)
            if reason:
                return reason
        if op.digest is not None:
            digest = hashlib.sha256(op.digest(value)).hexdigest()
            seen = tally.digests.setdefault(op.name, digest)
            if seen != digest:
                return f"output changed between passes: {seen} != {digest}"
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"
    return None
