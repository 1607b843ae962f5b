"""Shared pieces of the benchmark: paths, statistics, metric names and the result line."""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics other than the per-suite `cli.suite.<key>_s` ones.  A
# `_ms` metric is the self time of the layer's spans: their duration minus
# the part their child spans cover.
LAYER_UNITS = {
    "exact.gaussrat_mul_calls": "count",
    "exact.charpoly_calls": "count",
    "exact.charpoly_ms": "ms",
    "exact.mat_mul_calls": "count",
    "exact.mat_mul_ms": "ms",
    "clifford.product_calls": "count",
    "clifford.product_term_pairs": "count",
    "clifford.product_ms": "ms",
    "clifford.beta_calls": "count",
    "clifford.beta_ms": "ms",
    "clifford.gpin_constructions": "count",
    "clifford.gpin_construct_ms": "ms",
    "clifford.gpin_rejected": "count",
    "clifford.push_generator_hit_ratio": "ratio",
    "rootdata.torus_point_calls": "count",
    "rootdata.torus_point_ms": "ms",
    "rootdata.coords_of_ms": "ms",
    "spinrep.act_calls": "count",
    "spinrep.act_ms": "ms",
    "spinrep.spin_matrix_ms": "ms",
    "spinrep.half_spin_matrix_ms": "ms",
    "spinrep.matrix_cache_hit_ratio": "ratio",
    "conjugacy.fingerprint_calls": "count",
    "conjugacy.fingerprint_ms": "ms",
    "cocycle.ms": "ms",
    "hodge.ms": "ms",
    "cli.startup_s": "s",
    "cli.pool_inflation": "ratio",
    "trace.overhead_ratio": "ratio",
}


def suite_metric(key):
    return "cli.suite." + key.replace(":", ".") + "_s"


def layer_units(suite_keys):
    """Units of every per-layer metric, given the verify suite keys."""
    units = dict(LAYER_UNITS)
    for key in suite_keys:
        units[suite_metric(key)] = "s"
    return units


def p90(xs):
    if len(xs) < 2:
        return xs[0]
    return quantiles(xs, n=10, method="inclusive")[8]


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(agg, counts, push):
    """Per-layer metrics from merged span totals {name: [calls, total s, self s]}."""
    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def self_ms(name):
        return agg.get(name, (0, 0.0, 0.0))[2] * 1000

    def layer_ms(layer):
        return sum((v[2] for k, v in agg.items() if k.startswith(layer + ".")), 0.0) * 1000

    matrix_calls = calls("spinrep.spin_matrix") + calls("spinrep.half_spin_matrix")
    return {
        "exact.gaussrat_mul_calls": counts.get("exact.gaussrat_mul", 0),
        "exact.charpoly_calls": calls("exact.charpoly"),
        "exact.charpoly_ms": self_ms("exact.charpoly"),
        "exact.mat_mul_calls": calls("exact.mat_mul"),
        "exact.mat_mul_ms": self_ms("exact.mat_mul"),
        "clifford.product_calls": calls("clifford.product"),
        "clifford.product_term_pairs": counts.get("clifford.product_term_pairs", 0),
        "clifford.product_ms": self_ms("clifford.product"),
        "clifford.beta_calls": calls("clifford.beta"),
        "clifford.beta_ms": self_ms("clifford.beta"),
        "clifford.gpin_constructions": calls("clifford.gpin_construct"),
        "clifford.gpin_construct_ms": self_ms("clifford.gpin_construct"),
        "clifford.gpin_rejected": counts.get("clifford.gpin_rejected", 0),
        "clifford.push_generator_hit_ratio": ratio(push[0], push[0] + push[1]) if push else 0.0,
        "rootdata.torus_point_calls": calls("rootdata.torus_point"),
        "rootdata.torus_point_ms": self_ms("rootdata.torus_point"),
        "rootdata.coords_of_ms": self_ms("rootdata.coords_of"),
        "spinrep.act_calls": calls("spinrep.act"),
        "spinrep.act_ms": self_ms("spinrep.act"),
        "spinrep.spin_matrix_ms": self_ms("spinrep.spin_matrix"),
        "spinrep.half_spin_matrix_ms": self_ms("spinrep.half_spin_matrix"),
        "spinrep.matrix_cache_hit_ratio": ratio(counts.get("spinrep.matrix_cache_hits", 0),
                                                matrix_calls),
        "conjugacy.fingerprint_calls": calls("conjugacy.fingerprint"),
        "conjugacy.fingerprint_ms": self_ms("conjugacy.fingerprint"),
        "cocycle.ms": layer_ms("cocycle"),
        "hodge.ms": layer_ms("hodge"),
    }


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "gspin").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def emit(workload, seed, seconds, trace, params, metrics, units, attempted, failed, notes,
         pass_walls):
    """Write the full record under perfbench/out and print the summary and result line."""
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "params": params, "environment": environment(), "attempted": attempted,
        "failed": failed, "metrics": metrics, "notes": notes, "pass_walls": pass_walls,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=2))
    print(f"# {workload} seed={seed} seconds={seconds} trace={trace} {json.dumps(params)}")
    print(f"# environment {json.dumps(record['environment'])}")
    for note in notes:
        print(f"# {note}")
    print(f"# fail_ratio = {ratio(failed, attempted)} ({failed} failed of {attempted} attempted)")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
