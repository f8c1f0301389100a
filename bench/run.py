"""Benchmark of qgame, run in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root: qgame is imported from ./src.  One process,
one thread, a closed loop with one client: each operation starts when the
previous one and its check have finished.  The run repeats whole rounds of
the workload's operations until S seconds have passed, checks every
output, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones, taken
with wrappers around qgame's functions (see tracing.py), and the spans are
written to bench/out/.  `--workload all` runs every workload in a fresh
process, one after another, and prints one result line for each.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_REPEATS = 5        # fresh processes whose set-up time is measured per run
SETUP_TIMEOUT_S = 60
MAX_ERRORS_SHOWN = 5

# One working thread: keep numpy's BLAS from starting a pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the monotonic clock when ready, and exit (used to time set-up)")
    return parser.parse_args(argv)


def import_program():
    """Put ./src first on the path and import the benchmark's modules."""
    if not os.path.isfile(os.path.join(SRC, "qgame", "__init__.py")):
        raise SystemExit(f"error: no qgame package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    import workloads  # imports numpy and qgame

    return workloads


def set_up(name: str, seed: int, workdir: str):
    workloads = import_program()
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.warm_up()
    return workload


def timed_set_ups(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first op being ready."""
    samples = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only"]
        spawned = time.monotonic()
        child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if child.returncode != 0:
            raise SystemExit(f"error: set-up process failed:\n{child.stderr}")
        samples.append(float(child.stdout.split()[-1]) - spawned)
    return samples


def measure(workload, seconds: float, tracer=None):
    """Whole rounds of timed ops, as many as come closest to `seconds`; every output checked.

    Returns per-round arrays of op latencies in ns, the failed op count and
    the messages of wrong outputs.  An op that raises counts as failed.  Each round's array is allocated once at
    its final size, so the samples cost 8 bytes an op and peak RSS hardly
    depends on how many ops a run completes.
    """
    from checks import CheckError

    rounds: list[array.array] = []
    failed = crashes = 0
    errors: list[str] = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        latencies_ns = array.array("q", bytes(8 * len(workload.round)))
        rounds.append(latencies_ns)
        for k, item in enumerate(workload.round):
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter_ns()
            try:
                out, crash = workload.op(item), None
            except Exception as exc:  # a crash inside qgame fails the op; the run goes on
                out, crash = None, exc
            latencies_ns[k] = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.end_op()
            if crash is not None:
                failed += 1
                crashes += 1
                if crashes <= MAX_ERRORS_SHOWN:
                    print("op raised:", "".join(traceback.format_exception(crash)), file=sys.stderr)
                continue
            try:
                failed += bool(workload.check(item, out))
            except CheckError as exc:
                errors.append(f"wrong output: {exc}")
        now = time.monotonic()
        if now + (now - round_start) / 2 >= start + seconds:
            break
    return rounds, failed, errors


def end_to_end(rounds: list[array.array], peak_rss_mb: float, set_ups: list[float]) -> dict:
    latencies_ns = [ns for r in rounds for ns in r]
    return {
        "ops_per_s": {"value": len(latencies_ns) / (sum(latencies_ns) * 1e-9), "unit": "1/s"},
        "p50_ms": {"value": statistics.median(latencies_ns) * 1e-6, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(set_ups), "unit": "s"},
    }


def run_all(args) -> int:
    """Every workload in its own fresh process; prints `name result` for each."""
    for name in import_program().WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if child.returncode != 0:
            return child.returncode
        print(name, child.stdout.splitlines()[-1], flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, workdir)
            print(time.monotonic())
            return 0
        set_ups = [] if args.trace else timed_set_ups(args)
        workload = set_up(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        rounds, failed, errors = measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in errors[:MAX_ERRORS_SHOWN]:
        print(message, file=sys.stderr)
    attempted = sum(len(r) for r in rounds)
    p50_ms = statistics.median(ns for r in rounds for ns in r) * 1e-6
    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed, "
          f"{len(errors)} wrong, p50 {p50_ms:.4f} ms{' (traced)' if tracer else ''}", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end(rounds, peak_rss_mb, set_ups)
    else:
        metrics = tracer.metrics()
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                       "spans": [dict(zip(("name", "op", "start_ns", "end_ns", "depth"), s)) for s in tracer.spans]},
                      fh)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
