"""mnarfuse benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload bootstrap-n2k --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ./src.  With
--trace 0 the run measures the end-to-end metrics for --seconds seconds; with
--trace 1 it runs a fixed amount of the workload's calls untraced and then
traced, and reports the per-layer metrics.  Human-readable lines come first
(machine, seed, every metric by name with its unit, failed checks); the last
line is one JSON object.  The exit code is 1 when an output check or a CLI
call fails, 2 when the package source is missing.

BLAS is pinned to one thread here, before numpy loads, so that the
2-worker replicate calls stay within two cores.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, BENCH_DIR]

from speed import REFERENCE_S  # noqa: E402
from tracing import PER_LAYER, Tracer, instrument, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Calls, Context  # noqa: E402


def _machine() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    if libs:
        try:
            get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            threads = get()
        except (OSError, AttributeError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": threads,
    }


def _setup(workload, ctx: Context) -> float:
    t0 = time.perf_counter()
    workload.setup(ctx)
    return time.perf_counter() - t0


def _setup_sample(args) -> float:
    """Set-up time of a fresh process, which imports mnarfuse cold."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(args, workload, ctx: Context) -> tuple[dict, list[str]]:
    # This process sets up first, so that it imports numpy and mnarfuse cold.
    calls = Calls()
    setups = [_setup(workload, ctx)]
    scaled = [setups[0] * calls.local_scale(setups[0])]
    for _ in range(workload.setup_samples - 1):
        setups.append(_setup_sample(args))
        scaled.append(setups[-1] * calls.local_scale(setups[-1]))
    named = workload.timed(ctx, calls, args.seconds)
    workload.verify(ctx)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "work_per_s": _metric(calls.rate(), "1/s"),
        "setup_s": _metric(statistics.median(scaled), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in named.items()]
    lines += [
        f"timed rounds = {calls.rounds}",
        f"reference kernel = {1000 * statistics.median(calls.kernel):.4g} ms median of "
        f"{len(calls.kernel)} (times scaled to {1000 * REFERENCE_S:g} ms)",
        f"unscaled: work_per_s = {calls.rate(raw=True):.6g} 1/s, "
        f"setup_s = {statistics.median(setups):.6g} s (samples "
        + ", ".join(f"{t:.4f}" for t in setups) + ")",
    ]
    return metrics, lines


def _traced(args, workload, ctx: Context) -> tuple[dict, list[str]]:
    tracer = Tracer()
    with instrument(tracer):
        _setup(workload, ctx)
    untraced, traced = Calls(), Calls()
    workload.fixed(ctx, untraced)
    with instrument(tracer):
        workload.fixed(ctx, traced)
    workload.verify(ctx)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    tracer.write(spans_path)
    values = layer_metrics(tracer.spans, traced.total() / untraced.total() - 1.0)
    metrics = {name: _metric(values[name], unit) for name, (unit, _) in PER_LAYER.items()}
    lines = [f"spans = {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}",
             f"fixed pass = {untraced.total():.4f} s untraced, {traced.total():.4f} s traced "
             "(scaled)"]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(SRC, "mnarfuse", "cli.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        workload = WORKLOADS[args.workload]()
        ctx = Context(seed=args.seed, workdir=workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": _setup(workload, ctx)}))
            return 0
        run = _traced if args.trace else _end_to_end
        metrics, lines = run(args, workload, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload = {args.workload}  seed = {args.seed}  seconds = {args.seconds:g}  "
          f"trace = {args.trace}")
    print("machine = " + json.dumps(_machine()))
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {ctx.failed / ctx.attempted:.6g} frac "
          f"({ctx.failed} failed of {ctx.attempted} units)")
    print(f"checks = {ctx.checks.passed} passed, {len(ctx.checks.failures)} failed")
    for what in ctx.checks.failures[:10] + ctx.bad_calls[:10]:
        print(f"FAILED: {what}")
    print(json.dumps({
        "correct": ctx.correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 0 if ctx.correct else 1


if __name__ == "__main__":
    sys.exit(main())
