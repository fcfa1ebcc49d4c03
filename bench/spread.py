"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 bench/spread.py --seeds 1-10 --out runs.json [--workload NAME ...]

The spread of a metric is (Q3 - Q1) / median over the runs of one workload,
with quartiles from statistics.quantiles(values, n=4).  The raw result line
of every run is kept in --out, so two sets can be compared afterwards with
--compare A.json B.json (median shift of B against A, per metric).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def _metrics_by_workload(runs: list[dict]) -> dict:
    out: dict = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            out.setdefault(run["workload"], {}).setdefault(name, []).append(m["value"])
    return out


def report(runs: list[dict], spec: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload, metrics in _metrics_by_workload(runs).items():
        for name, values in metrics.items():
            s = summarize(values)
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  WIDE"
            ok = ok and not flag
            print(f"{workload:15s} {name:12s} n={len(values):2d} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f} "
                  f"bound={bounds[name]}{flag}")
    return ok


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> bool:
    better = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    a, b = _metrics_by_workload(a_runs), _metrics_by_workload(b_runs)
    ok = True
    for workload in a:
        for name, values in a[workload].items():
            ma, mb = statistics.median(values), statistics.median(b[workload][name])
            direction, bound = better[name]
            worse = (mb - ma) / ma if direction == "lower" else (ma - mb) / ma
            flag = "  WORSE" if worse > bound else ""
            ok = ok and not flag
            print(f"{workload:15s} {name:12s} A={ma:.6g} B={mb:.6g} "
                  f"worse_by={worse:+.4f} bound={bound}{flag}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    spec = _spec()
    if args.compare:
        runs = []
        for path in args.compare:
            with open(path) as fh:
                runs.append(json.load(fh)["runs"])
        return 0 if compare(*runs, spec) else 1

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs = []
    for workload in workloads:
        for seed in _seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            runs.append({"workload": workload, "seed": seed,
                         "result": json.loads(proc.stdout.strip().splitlines()[-1])})
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={m['value']:.6g}"
                              for k, m in runs[-1]["result"]["metrics"].items()),
                  flush=True)
            if args.out:
                with open(args.out, "w") as fh:
                    json.dump({"runs": runs}, fh, indent=1)
    return 0 if report(runs, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
