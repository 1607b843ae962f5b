"""Run the benchmark once per seed and summarise every metric.

    python3 perfbench/spread.py --workloads verify-cli,group-ops,rep-conj \
        --seeds 1-10 --seconds 18 [--trace 0|1] [--out FILE]

Runs are sequential, one process at a time.  For each workload it prints
every metric by name with its unit, its median over the runs and its
spread, (q3 - q1) / median with the quartiles from
statistics.quantiles(values, n=4), beside the metric's bound from
BENCHMARK.json, and the fail ratio with its base.  With
--out the summary, the raw values and the environment are written as
JSON; perfbench/baseline.json was made this way.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, environment

RUN = str(Path(__file__).resolve().parent / "run.py")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = ROOT / "BENCHMARK.json"
    bounds = {}
    if bench.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(bench.read_text())["end_to_end"]}
    summary, ok = {}, True
    for workload in args.workloads.split(","):
        values, units, run_walls, results = {}, {}, [], []
        for seed in _seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                  cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - start
            run_walls.append(wall)
            result = json.loads(proc.stdout.splitlines()[-1])
            results.append(result)
            ok &= proc.returncode == 0 and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: rc {proc.returncode}, failed {result['failed']} of "
                  f"{result['attempted']}, run took {wall:.1f} s", flush=True)
        metrics = {name: summarise(v) for name, v in values.items()}
        summary[workload] = {"metrics": metrics, "run_walls": run_walls}
        for name, s in metrics.items():
            bound = bounds.get(name)
            third = "under" if bound is not None and s["spread"] <= bound / 3 else "over"
            flag = "" if bound is None else f"  bound {bound}, {third} a third of it"
            print(f"  {workload:10} {name:34} median {s['median']:<12.6g} {units[name]:6} "
                  f"spread {s['spread']:.4f}{flag}")
        attempted = sum(run["attempted"] for run in results)
        failures = sum(run["failed"] for run in results)
        print(f"  {workload}: fail_ratio {failures / attempted} ({failures} failed of {attempted} "
              f"attempted)", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seconds": args.seconds, "seeds": args.seeds, "trace": args.trace,
            "environment": environment(), "workloads": summary}, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
