"""The verify-cli workload: cold `python -m gspin.cli verify` child processes.

One pass, and one operation, is one cold child process running
`python -m gspin.cli verify --suites all --n 3 --seed S --format json`
with the default 12 trials: the gate users and the test suite run.  It
pays imports and cold memo tables and runs the shipped 4-thread pool, so
work moved into warm-up or a change to the pool shows here and nowhere
else.  Set-up is a cold `python -m gspin.cli verify --list`.

n = 3 keeps a pass near 12 s on 2 CPUs; with n = 3..4 one pass alone
takes about 70 s, longer than a whole run may last.  Each pass uses its
own verify seed derived from the run's seed, so that a run averages over
several: the cost of one verify run varies by up to a factor of two with
its seed.  A run makes PASSES passes, since the latency percentiles are
taken over passes and a p90 of four passes is little more than their
maximum; on a slow host it stops after MIN_PASSES once another pass
would end past PASS_BUDGET_S, so that the run keeps within its share of
the time all runs of the benchmark may take.

The traced run measures one untraced pass, one cold sequential child per
suite for `cli.suite.<key>_s` (child.py, imports excluded), and one
traced child that gives the per-layer totals.  Each lone suite's record
must equal its record in the full report, and the traced report must be
byte-identical to the untraced one.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
from time import perf_counter

from common import (END_TO_END, OUT, ROOT, SRC, emit, layer_metrics, layer_units, median, p90,
                    ratio, suite_metric)

N = 3
TRIALS_DEFAULT = 12
PASSES = 6
MIN_PASSES = 4
PASS_BUDGET_S = 84
# A cold `--list` takes a fifth of a second, so set-up is sampled more often.
LIST_REPS = 7
# Every child is killed once the run has lasted this long, so that the run
# ends within its time limit even if a child hangs.
RUN_LIMIT_S = 170
ENV = dict(os.environ, PYTHONPATH=str(SRC))
CHILD = str(ROOT / "perfbench" / "child.py")


def verify_seed(seed, k):
    return seed * 100 + k


def _child(argv, deadline):
    """Run a child to completion, or kill it at `deadline` (a perf_counter time).

    Returns (stdout bytes, exit code, wall s, CPU s).
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True,
                              timeout=max(1.0, deadline - start))
        out, rc = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired:
        out, rc = b"", -1
    wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return out, rc, wall, cpu


def _child_result(argv, deadline):
    """Run child.py; return its JSON result and the child process's wall time."""
    out, rc, wall, _ = _child([sys.executable, CHILD, *argv], deadline)
    try:
        res = json.loads(out.decode().splitlines()[-1])
    except (ValueError, IndexError):
        res = {"rc": rc, "report": "", "wall": wall, "agg": {}, "counts": {}, "push": None,
               "spans": 0}
    return res, wall


def _cold_pass(v, seed, deadline):
    """One cold `verify` pass, checked; returns (wall s, CPU s)."""
    out, rc, wall, cpu = _child(_cli("verify", "--suites", "all", "--n", str(N), "--seed",
                                     str(seed), "--format", "json"), deadline)
    return v.check(seed, out.decode(), rc), wall, cpu


def _cli(*args):
    return [sys.executable, "-m", "gspin.cli", *args]


def report_failures(text, rc, expected):
    """Failed records in a verify report; every expected record fails if the run did."""
    try:
        report = json.loads(text)
        results = report["results"]
    except (ValueError, KeyError, TypeError):
        return expected, None
    bad = sum(1 for r in results if r.get("status") != "pass")
    bad += max(0, expected - len(results))
    if bad == 0 and (rc != 0 or report.get("status") != "pass" or len(results) != expected):
        bad = 1
    return min(bad, expected), report


class _Verifier:
    """Checks verify reports, keeping the report digest of each seed."""

    def __init__(self, expected):
        self.expected = expected
        self.digests = {}
        self.attempted = self.failed = 0

    def check(self, seed, text, rc, expected=None):
        """Count the report's failed records; a digest differing from the first
        report of the same seed fails every record."""
        expected = self.expected if expected is None else expected
        bad, report = report_failures(text, rc, expected)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(seed, digest) != digest:
            bad = expected
        self.attempted += expected
        self.failed += bad
        return report


def _setup(deadline):
    """Cold `verify --list` runs: (median wall, suite keys)."""
    walls, keys = [], []
    for _ in range(LIST_REPS):
        out, rc, wall, _ = _child(_cli("verify", "--list", "--format", "json"), deadline)
        walls.append(wall)
        if rc == 0:
            keys = [s["id"] for s in json.loads(out)["suites"]]
    return median(walls), keys


def _another_pass(walls, elapsed, seconds):
    """Whether to start another pass: at least MIN_PASSES and `seconds` of
    passes, then up to PASSES while one more of the mean length ends within
    PASS_BUDGET_S."""
    if len(walls) < MIN_PASSES or elapsed < seconds:
        return True
    return len(walls) < PASSES and elapsed + sum(walls) / len(walls) <= PASS_BUDGET_S


def run(seed, seconds, trace):
    deadline = perf_counter() + RUN_LIMIT_S
    setup_s, keys = _setup(deadline)
    if not keys:
        raise SystemExit("verify --list failed; no suites to run")
    v = _Verifier(len(keys))
    params = {"n": N, "trials": TRIALS_DEFAULT, "suites": len(keys),
              "records_per_pass": len(keys), "list_reps": LIST_REPS, "passes": PASSES,
              "min_passes": MIN_PASSES, "pass_budget_s": PASS_BUDGET_S,
              "loop": "closed, one cold child at a time"}
    if not trace:
        walls, cpus = [], []
        start = perf_counter()
        while _another_pass(walls, perf_counter() - start, seconds):
            _, wall, cpu = _cold_pass(v, verify_seed(seed, len(walls)), deadline)
            walls.append(wall)
            cpus.append(cpu)
        metrics = {
            "setup_s": setup_s,
            "pass_s": sum(walls) / len(walls),
            "cpu_s": sum(cpus) / len(cpus),
            "ops_per_s": len(walls) / sum(walls),
            "op_ms_p50": median(walls) * 1000,
            "op_ms_p90": p90(walls) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        notes = [f"{len(walls)} cold verify passes, each one operation; "
                 f"setup = median of {LIST_REPS} cold `verify --list`"]
        emit("verify-cli", seed, seconds, trace, params, metrics, END_TO_END,
             v.attempted, v.failed, notes, walls)
        return

    vseed = verify_seed(seed, 0)
    full, verify_s, _ = _cold_pass(v, vseed, deadline)
    records = {(r["suite"], r["n"]): r for r in (full or {}).get("results", [])}
    suite_s = {}
    for key in keys:
        res, _ = _child_result(["verify", str(vseed), str(N), key], deadline)
        report = v.check(f"{vseed}:{key}", res["report"], res["rc"], expected=1)
        # the record of a lone suite must equal its record in the full run
        if (report or {}).get("results", [None])[0] != records.get((key, N)):
            v.failed += 1
        suite_s[key] = res["wall"]

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-verify-cli-seed{seed}.jsonl"
    res, traced_s = _child_result(["traced", str(vseed), str(N), str(spans)], deadline)
    v.check(vseed, res["report"], res["rc"])
    metrics = layer_metrics(res["agg"], res["counts"], res["push"])
    metrics["cli.startup_s"] = setup_s
    metrics["cli.pool_inflation"] = ratio(verify_s, sum(suite_s.values()))
    metrics["trace.overhead_ratio"] = ratio(traced_s, verify_s)
    for key in keys:
        metrics[suite_metric(key)] = suite_s[key]
    units = layer_units(keys)
    notes = [f"untraced cold pass {verify_s:.3f} s; traced cold pass {traced_s:.3f} s "
             f"({res['spans']} spans kept); {len(keys)} cold per-suite children summing to "
             f"{sum(suite_s.values()):.3f} s"]
    emit("verify-cli", seed, seconds, trace, params, metrics, units, v.attempted, v.failed, notes,
         [verify_s])
