"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Shows the checks are not vacuous: every operation of one group-ops and
one rep-conj pass is fed a deliberately wrong result (another operation's
result of the same kind, or the negated verdict) and must be counted as
failed, while the real results pass; a real cold verify report passes,
and the same report with one record turned to "fail", with other bytes
for the same seed, or with a nonzero exit code is counted as failed.
Exits 0 when every case is classified as expected.
"""

import json
import random
import sys
from time import perf_counter

from common import SRC

sys.path.insert(0, str(SRC))

import library  # noqa: E402
import verifycli  # noqa: E402
from run import _run_pass  # noqa: E402


def wrong_results(ops, results):
    """For each op, a result that its check must reject."""
    wrong = []
    for i, (op, res) in enumerate(zip(ops, results)):
        if isinstance(res, bool):
            wrong.append(not res)
            continue
        others = [results[j] for j in range(len(ops)) if j != i and ops[j].kind == op.kind]
        wrong.append(others[0])
    return wrong


def _recording(op, results):
    def call():
        results.append(op.call())
        return results[-1]
    return library.Op(op.kind, op.n, call, op.check)


def check_library(name, build):
    ops = build(random.Random(f"selftest:{name}"), 0)
    results = []
    good = _run_pass([_recording(op, results) for op in ops])
    bad = _run_pass([library.Op(op.kind, op.n, lambda w=w: w, op.check)
                     for op, w in zip(ops, wrong_results(ops, results))])
    ok = good.failed == 0 and bad.failed == len(ops)
    print(f"{name}: real results {good.failed} failed of {len(ops)}; "
          f"wrong results {bad.failed} failed of {len(ops)} -> {'ok' if ok else 'BROKEN'}")
    return ok


def check_verify():
    key, seed = "eq:StdQuadSpace", 7
    deadline = perf_counter() + verifycli.RUN_LIMIT_S
    out, rc, _, _ = verifycli._child(verifycli._cli(
        "verify", "--suites", key, "--n", "3", "--seed", str(seed), "--format", "json"), deadline)
    text = out.decode()
    report = json.loads(text)
    report["results"][0]["status"] = "fail"
    flipped = json.dumps(report, sort_keys=True, indent=2) + "\n"
    cases = [
        ("real report", text, rc, 0),
        ("a record turned to fail", flipped, rc, 1),
        ("other bytes for the same seed", text.replace("\n", "\n "), rc, 1),
        ("nonzero exit code", text, 1, 1),
    ]
    ok = True
    for label, body, code, want in cases:
        v = verifycli._Verifier(1)
        v.check(seed, text, 0)  # the first report of this seed
        v.failed = v.attempted = 0
        v.check(seed, body, code)
        good = (v.failed >= 1) == bool(want)
        ok &= good
        print(f"verify, {label}: {v.failed} failed of {v.attempted} -> {'ok' if good else 'BROKEN'}")
    return ok


def main():
    ok = all([check_library(name, build) for name, (build, _) in library.WORKLOADS.items()]
             + [check_verify()])
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
