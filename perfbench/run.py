"""gspin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads:
  verify-cli  cold `gspin verify --suites all --n 3` child processes
              (see verifycli.py): the gate users and the test suite run.
  group-ops   warm in-process torus points, theta, GPin products and
              inverses at n = 5, 6: dominated by the Clifford product.
  rep-conj    warm in-process fingerprints, conjugacy tests and spin
              matrices at n = 5, 6 on prebuilt elements: no Clifford
              product in its timed spans, so it is the control for
              `clifford` work.

With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer ones (spans recorded from this directory's tracing.py).  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it name every
metric with its unit, the sample counts and the environment.  The full
record is also written to perfbench/out/.  Exit status is 0 whenever a
result was printed, including when checks failed (`correct` is false).
"""

import argparse
import importlib
import random
import resource
import sys
from time import perf_counter, process_time

from common import (END_TO_END, OUT, SETUP_REPS, SRC, emit, layer_metrics, layer_units, median,
                    p90, ratio, suite_metric)


def _clear_memo_tables():
    """Empty every functools cache in gspin, so that each set-up starts cold."""
    for name, mod in list(sys.modules.items()):
        if name == "gspin" or name.startswith("gspin."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _push_info():
    memo = getattr(sys.modules["gspin.clifford"], "_push_generator", None)
    info = memo.cache_info() if hasattr(memo, "cache_info") else None
    return (info.hits, info.misses) if info else None


class _Pass:
    def __init__(self):
        self.walls, self.cpus, self.failed = [], [], 0
        self.push = [0, 0]  # memo hits and misses inside traced calls


def _run_pass(ops, tracer=None):
    """Run one pass in a closed loop; time each call, then check it untimed."""
    out = _Pass()
    for op in ops:
        if tracer is not None:
            before = _push_info()
            tracer.enabled = True
        c0, t0 = process_time(), perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failed call is counted, not raised
            result, error = None, exc
        t1, c1 = perf_counter(), process_time()
        if tracer is not None:
            tracer.enabled = False
            after = _push_info()
            if before and after:
                out.push = [out.push[0] + after[0] - before[0], out.push[1] + after[1] - before[1]]
        out.walls.append(t1 - t0)
        out.cpus.append(c1 - c0)
        try:
            ok = error is None and op.check(result) is True
        except Exception:  # a check that raises is a failed operation
            ok = False
        out.failed += not ok
    return out


def run_library(workload, seed, seconds, trace):
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    importlib.import_module("gspin")
    import library
    import_s = perf_counter() - t0
    build, between = library.WORKLOADS[workload]

    attempted = failed = 0
    setup = []
    for rep in range(SETUP_REPS):
        t = perf_counter()
        _clear_memo_tables()
        warm = _run_pass(build(random.Random(f"{seed}:setup:{rep}"), rep))
        setup.append(perf_counter() - t)
        attempted += len(warm.walls)
        failed += warm.failed

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    rng = random.Random(f"{seed}:run")
    passes, traced = [], []
    start = perf_counter()
    while True:
        ops = build(rng, len(passes) + len(traced))
        between()
        # a traced run alternates untraced and traced passes
        traced_pass = trace and (len(passes) + len(traced)) % 2 == 1
        p = _run_pass(ops, tracer if traced_pass else None)
        (traced if traced_pass else passes).append(p)
        attempted += len(p.walls)
        failed += p.failed
        # stop after whole cycles of TORUS_K, so that every run averages
        # the same mix of pass costs
        whole = (len(passes) + len(traced)) % len(library.TORUS_K) == 0
        if perf_counter() - start >= seconds and whole and (not trace or traced):
            break

    walls = [w for p in passes for w in p.walls]
    params = {"n": list(library.NS), "torus_k": library.TORUS_K, "ops_per_pass": len(ops),
              "setup_reps": SETUP_REPS, "loop": "closed, 1 caller thread"}
    notes = [f"{len(passes)} passes, {len(walls)} timed ops; setup = import "
             f"{import_s:.4f} s + median of {SETUP_REPS} cold set-ups"]
    if not trace:
        metrics = {
            "setup_s": import_s + median(setup),
            "pass_s": sum(walls) / len(passes),
            "cpu_s": sum(c for p in passes for c in p.cpus) / len(passes),
            "ops_per_s": len(walls) / sum(walls),
            "op_ms_p50": median(walls) * 1000,
            "op_ms_p90": p90(walls) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        agg, counts = tracer.totals()
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")
        # per pass, so that the numbers do not grow with the number of passes
        k = len(traced)
        agg = {name: [v / k for v in vals] for name, vals in agg.items()}
        counts = {name: v / k for name, v in counts.items()}
        push = [sum(p.push[0] for p in traced), sum(p.push[1] for p in traced)]
        metrics = layer_metrics(agg, counts, push if _push_info() else None)
        metrics["cli.startup_s"] = 0.0
        metrics["cli.pool_inflation"] = 0.0
        metrics["trace.overhead_ratio"] = ratio(sum(w for p in traced for w in p.walls) / k,
                                                sum(walls) / len(passes))
        keys = list(importlib.import_module("gspin.cli").SUITES)
        for key in keys:
            metrics[suite_metric(key)] = 0.0
        units = layer_units(keys)
        notes.append(f"per-layer values are per pass, averaged over {len(traced)} traced passes "
                     f"({sum(len(p.walls) for p in traced)} ops, {tracer.span_count()} spans "
                     f"kept); the cli layer is not exercised here and reads 0")
    emit(workload, seed, seconds, trace, params, metrics, units, attempted, failed, notes,
         [sum(p.walls) for p in passes])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify-cli", "group-ops", "rep-conj"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gspin" / "__init__.py").is_file():
        print(f"gspin sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "verify-cli":
        import verifycli

        verifycli.run(args.seed, args.seconds, args.trace)
    else:
        run_library(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
