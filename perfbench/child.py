"""Cold child processes of the verify-cli workload's traced run.

    python3 perfbench/child.py verify SEED N SUITES
        In a fresh process (memo tables cold), call `gspin.cli.main` with
        the argv of `gspin verify --suites SUITES --n N --seed SEED
        --format json` and print the report, the exit code and the wall
        time of `main`, imports excluded.
    python3 perfbench/child.py traced SEED N SPANS_PATH
        The same for every suite with every layer traced; writes the spans
        to SPANS_PATH and prints the per-layer totals as well.

Each prints one JSON object as the last line of standard output.
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _verify(seed, n, suites):
    from gspin import cli

    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["verify", "--suites", suites, "--n", n, "--seed", seed, "--format", "json"])
    return {"rc": rc, "wall": perf_counter() - start, "report": out.getvalue()}


def main(argv):
    mode, seed, n = argv[0], argv[1], argv[2]
    if mode == "verify":
        result = _verify(seed, n, argv[3])
    elif mode == "traced":
        from tracing import Tracer

        from gspin import clifford

        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
        result = _verify(seed, n, "all")
        tracer.enabled = False
        agg, counts = tracer.totals()
        memo = getattr(clifford, "_push_generator", None)
        info = memo.cache_info() if hasattr(memo, "cache_info") else None
        result.update(agg=agg, counts=dict(counts), spans=tracer.span_count(),
                      push=[info.hits, info.misses] if info else None)
        tracer.write_spans(argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
