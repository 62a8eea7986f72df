"""The amptree benchmark: one workload, one process, one closed loop.

Run from the root of an amptree checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of leveled-narrow, leveled-wide, stream, analysis.  The seed
makes every input; the run repeats whole passes over the workload's
operations while another pass fits in S seconds (at least three), checks
every output, and prints a human-readable report followed, as the last
line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation.  With ``--trace 1`` the run alternates untraced passes
with passes in which amptree's cross-module calls are rebound to span
recorders (see ``tracing.py``), and reports the per-layer metrics; the
spans are written to ``perfbench/out/``.  ``correct`` is false when any
output fails its check or any operation fails other than the known
defects the workload names; those still count in ``failed``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Fresh processes timed from start to ready; their median is setup_s.
SETUP_PROBES = 3

#: Fewest passes an untraced run makes, whatever --seconds says.
MIN_PASSES = 3

#: The bounded metrics of an untraced run.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

#: Printed by every untraced run but not bounded: on a shared 2-core
#: machine their run-to-run spread (interquartile range of 0.2 to 0.45 of
#: the median over ten seeds) exceeds any bound a regression gate can use,
#: because they follow millisecond operations that run at the speed of
#: whatever shares the core at that moment.
OP_LATENCY = (("op_p50_ms", "ms"), ("op_p90_ms", "ms"))


def load_library() -> None:
    """Import amptree from this checkout's ``src``, or exit nonzero."""
    src = ROOT / "src"
    if not (src / "amptree" / "__init__.py").is_file():
        sys.exit(f"error: no amptree sources at {src}; run the benchmark "
                 f"from the root of an amptree checkout")
    sys.path.insert(0, str(src))
    import amptree
    if Path(amptree.__file__).resolve().parent != src / "amptree":
        sys.exit(f"error: amptree was imported from {amptree.__file__}, "
                 f"not from {src}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def workdir_for(tag: str) -> Path:
    path = OUT_DIR / f"work-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_probe(args) -> None:
    """Child process: import, build the workload's inputs and temp files,
    report the monotonic clock at the moment it is ready, clean up."""
    load_library()
    import workloads
    workdir = workdir_for("probe")
    try:
        workloads.setup(args.workload, args.seed, workdir)
        print(json.dumps({"ready": time.monotonic()}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh process to its workload being ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - t0)
    return times


def run_passes(wl, tally, seconds: float, min_passes: int, recorder=None):
    """Closed loop: whole passes while another one fits in ``seconds``.
    Returns the time of each pass's operations and every latency of each
    operation."""
    from ops import run_op
    pass_times: list[float] = []
    op_times: dict[str, list[float]] = {op.name: [] for op in wl.ops}
    t0 = time.perf_counter()
    while len(pass_times) < min_passes or (
            time.perf_counter() - t0
            + statistics.median(pass_times) <= seconds):
        results: dict = {}
        records = [run_op(op, results, tally, recorder) for op in wl.ops]
        pass_times.append(sum(r.seconds for r in records))
        for r in records:
            op_times[r.name].append(r.seconds)
    return pass_times, op_times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: a measured value, never an interpolation
    between two different operations."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset (library default)")
                         for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")},
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    load_library()
    import workloads
    from ops import Tally
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")

    setup_times = [] if args.trace else measure_setup(args)
    workdir = workdir_for(args.workload)
    tally = Tally()
    try:
        wl = workloads.setup(args.workload, args.seed, workdir)
        if args.trace:
            metrics, units, detail = traced_run(args, wl, tally)
        else:
            pass_times, op_times = run_passes(wl, tally, args.seconds,
                                              MIN_PASSES)
            wall = statistics.median(pass_times)
            latencies = [t for v in op_times.values() for t in v]
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": wall,
                "items_per_s": wl.items / wall,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
            detail = {"setup_probes_s": setup_times, "pass_s": pass_times,
                      "op_s": op_times, "op_samples": len(latencies),
                      "op_p50_ms": percentile(latencies, 0.5) * 1e3,
                      "op_p90_ms": percentile(latencies, 0.9) * 1e3,
                      "ops_per_pass": len(wl.ops),
                      "items_per_pass": wl.items}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unexpected = [name for name, f in tally.failures.items()
                  if f["known_defect"] is None]
    detail.update({
        "workload": args.workload, "trace": args.trace,
        "failed_frac": tally.failed_frac,
        "failures": tally.failures,
        "sha256": tally.digests,
        "environment": environment(args.seed),
    })
    report(metrics, units, tally, detail)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def traced_run(args, wl, tally):
    """After one warm-up pass, alternate untraced and traced passes while
    another pair fits in the time.  Per-layer metrics come from the traced
    passes' spans; alternating keeps the overhead estimate fair when the
    machine's speed drifts."""
    import tracing
    rec = tracing.Recorder()
    t0 = time.perf_counter()
    run_passes(wl, tally, 0, 1)
    untraced: list[float] = []
    traced: list[float] = []
    while not traced or (time.perf_counter() - t0 + untraced[-1]
                         + traced[-1] <= args.seconds):
        untraced += run_passes(wl, tally, 0, 1)[0]
        restore = tracing.instrument(rec)
        try:
            traced += run_passes(wl, tally, 0, 1, recorder=rec)[0]
        finally:
            restore()
    metrics = tracing.layer_metrics(rec, len(traced), traced,
                                    statistics.median(untraced))
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    rec.save(spans)
    detail = {"untraced_pass_s": untraced, "traced_pass_s": traced,
              "spans": len(rec.names),
              "spans_file": str(spans.relative_to(ROOT))}
    return metrics, dict(tracing.PER_LAYER), detail


def report(metrics, units, tally, detail) -> None:
    """Human-readable lines; the machine-readable result follows them."""
    print(f"workload {detail['workload']}  seed "
          f"{detail['environment']['seed']}  trace {detail['trace']}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':28s} {tally.failed_frac:14.6g} ratio  "
          f"({tally.failed} of {tally.attempted} operations)")
    if "op_samples" in detail:
        for name, unit in OP_LATENCY:
            print(f"  {name:28s} {detail[name]:14.6g} {unit}  (over "
                  f"{detail['op_samples']} operations, "
                  f"{detail['ops_per_pass']} per pass; not bounded)")
    for name, f in tally.failures.items():
        why = f"known defect: {f['known_defect']}" if f["known_defect"] \
            else "UNEXPECTED"
        print(f"  failed {f['count']}x {name} [{f['kind']}] {f['detail']}"
              f"  ({why})")
    print("detail " + json.dumps(detail, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
