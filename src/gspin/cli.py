"""Deterministic command-line verifier and table generator.

Two subcommands:

``gspin verify``
    Runs the keyed identity suites of ``gspin.suites``.  Every suite
    re-checks a family of exact algebraic facts (Clifford relations,
    projection homomorphisms, torus and Weyl formulas, spin-matrix
    identities, conjugacy invariants, cocycle tables, weight multisets)
    with a PRNG derived from ``--seed``, the suite key, and ``n``, so
    equal seeds give byte-identical JSON reports.  Exit codes: 0 all
    pass, 1 at least one failure, 2 usage or parse error.

``gspin table``
    Emits JSON tables: half-spin weights, center structure, roots and
    Cartan data, weight multisets of dominant parameters, spin matrices
    with their basis manifest, conjugacy verdicts for two serialized
    elements, and first-cohomology tables of the order-two twist.

The report schema is documented in README.md.  Wall-clock timings appear
only in the text format; the JSON report is timing-free so that reruns
with the same seed compare equal byte for byte.
"""

import argparse
import json
import random
import sys
import time

from .clifford import CliffordElement, GPinElement, theta
from .cocycle import involution_module, norm_map_image, z1_b1_h1
from .conjugacy import fingerprint
from .hodge import b_shift, ht_multiset, is_spin_regular, is_std_regular
from .rootdata import (
    _eps_value,
    center,
    coroots,
    mu_eps,
    pairing,
    roots,
    simple_coroots,
    simple_roots,
    spin_weights,
)
from .spinrep import half_spin_matrix, spin_basis, spin_matrix
from .suites import SUITES, SuiteFailure, _Checker


class _UsageError(Exception):
    """Bad flags, unknown suite keys, or malformed input payloads."""


# ---------------------------------------------------------------------------
# verify command

# Largest accepted n.  Spin weights, spin matrices and the verify suites do
# 2^n work or more, so an unbounded n would hang instead of failing.
_MAX_N = 8


def _check_n(n):
    if n > _MAX_N:
        raise _UsageError(f"n must be at most {_MAX_N}")


def _parse_n_range(text):
    s = text.strip()
    try:
        if ".." in s:
            lo_text, hi_text = s.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(s)
    except ValueError:
        raise _UsageError(f"cannot parse --n value {text!r} (use '4' or '3..6')")
    if lo < 3:
        raise _UsageError("n must be at least 3")
    if hi < lo:
        raise _UsageError("empty n range")
    _check_n(hi)
    return list(range(lo, hi + 1))


def _resolve_suites(text):
    if text.strip() == "all":
        return list(SUITES)
    keys = []
    for part in text.split(","):
        key = part.strip()
        if not key:
            continue
        if key not in SUITES:
            raise _UsageError(f"unknown suite key {key!r} (see verify --list)")
        if key not in keys:
            keys.append(key)
    if not keys:
        raise _UsageError("no suite keys given")
    return keys


def _run_one(key, n, trials, seed):
    child = f"{seed}:{key}:{n}"
    rng = random.Random(child)
    chk = _Checker()
    start = time.perf_counter()
    try:
        SUITES[key][0](n, trials, rng, chk)
        status, counterexample = "pass", None
    except SuiteFailure as exc:
        status, counterexample = "fail", exc.payload
    except Exception as exc:  # a crash counts as a failure, not an abort
        status = "fail"
        counterexample = {"error": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - start
    record = {
        "suite": key,
        "n": n,
        "trials": trials,
        "seed": child,
        "status": status,
        "checks": chk.count,
        "counterexample": counterexample,
    }
    return record, wall


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _render_text(records, walls, seed, trials, ns):
    lines = [
        f"verify seed={seed} trials={trials} "
        f"n={ns[0]}..{ns[-1]}" if len(ns) > 1 else
        f"verify seed={seed} trials={trials} n={ns[0]}"
    ]
    failed = 0
    for rec in records:
        wall = walls[(rec["suite"], rec["n"])]
        lines.append(
            f"{rec['status'].upper():4} {rec['suite']} n={rec['n']} "
            f"checks={rec['checks']} ({wall:.2f}s)"
        )
        if rec["status"] == "fail":
            failed += 1
            lines.append(
                "     counterexample: "
                + json.dumps(rec["counterexample"], sort_keys=True)
            )
    lines.append(f"summary: {len(records)} run, {len(records) - failed} passed, {failed} failed")
    return "\n".join(lines) + "\n"


def _cmd_verify(args):
    if args.list:
        if args.format == "json":
            payload = {
                "command": "verify",
                "suites": [
                    {"id": key, "description": desc} for key, (_, desc) in SUITES.items()
                ],
            }
            out = _canonical_json(payload)
        else:
            width = max(len(k) for k in SUITES) + 2
            out = "".join(f"{key:<{width}}{desc}\n" for key, (_, desc) in SUITES.items())
        _emit(out, args.out)
        return 0
    ns = _parse_n_range(args.n)
    if args.trials < 1:
        raise _UsageError("--trials must be a positive integer")
    keys = _resolve_suites(args.suites)
    outcomes = [_run_one(key, n, args.trials, args.seed) for key in keys for n in ns]
    records = sorted((rec for rec, _ in outcomes), key=lambda r: (r["suite"], r["n"]))
    walls = {(rec["suite"], rec["n"]): wall for rec, wall in outcomes}
    status = "pass" if all(r["status"] == "pass" for r in records) else "fail"
    if args.format == "json":
        report = {
            "command": "verify",
            "schema": "gspin-verify/1",
            "seed": args.seed,
            "trials": args.trials,
            "n_values": ns,
            "suites": keys,
            "results": records,
            "status": status,
        }
        out = _canonical_json(report)
    else:
        out = _render_text(records, walls, args.seed, args.trials, ns)
    _emit(out, args.out)
    return 0 if status == "pass" else 1


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write --out {out_path}: {exc}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# table command


def _load_json(text, what):
    # ValueError covers JSONDecodeError and the int digit limit; RecursionError
    # is what the decoder raises on deeply nested arrays or objects.
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise _UsageError(f"malformed JSON for {what}: {exc}")


def _parse_element(text, what):
    data = _load_json(text, what)
    try:
        # cap n before the space is built: QuadSpace._interned keeps every
        # space for the life of the process, so no input may add one past it
        space = data["space"]
        if isinstance(space, dict) and space.get("kind") in ("even", "odd") \
                and type(space.get("n")) is int:
            _check_n(space["n"])
        return GPinElement(CliffordElement.from_json(data))
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"bad element for {what}: {exc}")


def _table_weights(args):
    eps = _eps_value(args.eps)
    ws = spin_weights(args.n, eps)
    return {
        "kind": "weights",
        "n": args.n,
        "epsilon": args.eps,
        "mu": list(mu_eps(args.n, eps).coords),
        "weights": [list(w.coords) for w in ws],
    }


def _table_center(args):
    desc = center(args.group, args.n)
    payload = {"kind": "center"}
    payload.update(desc.to_json())
    payload["torsion"] = [p.to_json() for p in desc.torsion()]
    return payload


def _table_roots(args):
    simple = simple_roots(args.n)
    cosimple = simple_coroots(args.n)
    return {
        "kind": "roots",
        "n": args.n,
        "roots": [list(r.coords) for r in roots(args.n)],
        "coroots": [list(r.coords) for r in coroots(args.n)],
        "simple_roots": [list(r.coords) for r in simple],
        "simple_coroots": [list(r.coords) for r in cosimple],
        "cartan_matrix": [[pairing(a, b) for a in simple] for b in cosimple],
    }


def _table_ht_weights(args):
    lam = _load_json(args.lam, "--lam")
    if not isinstance(lam, list):
        raise _UsageError("--lam must be a JSON list of integers")
    eps = _eps_value(args.eps)
    try:
        multiset = ht_multiset(args.n, eps, tuple(lam), args.mult)
        shifted = b_shift(tuple(lam))
        std_reg = is_std_regular(tuple(lam))
        spin_reg = is_spin_regular(tuple(lam))
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad highest weight: {exc}")
    return {
        "kind": "ht-weights",
        "n": args.n,
        "epsilon": args.eps,
        "lam": lam,
        "multiplicity": args.mult,
        "b_shift": list(shifted),
        "std_regular": std_reg,
        "spin_regular": spin_reg,
        "multiset": multiset.to_json(),
    }


def _table_spin_matrix(args):
    g = _parse_element(args.element, "--element")
    sm = spin_matrix(g) if args.eps == "full" else half_spin_matrix(g, args.eps)
    return {
        "kind": "spin-matrix",
        "space": g.space.to_json(),
        "epsilon": sm.epsilon,
        "matrix": sm.mat.to_json(),
        "basis": [list(u) for u in spin_basis(g.space, sm.epsilon)],
    }


def _table_conj(args):
    g = _parse_element(args.g, "--g")
    h = _parse_element(args.h, "--h")
    if g.space != h.space:
        raise _UsageError("the two elements live in different spaces")
    # the verdicts of is_conjugate_gspin, is_outer_conjugate and
    # is_conjugate_gpin, read off the fingerprints of g, h and theta(h)
    fg, fh = fingerprint(g), fingerprint(h)
    both_even = fg.is_even and fh.is_even
    inner = fg == fh if both_even else None
    outer = fg == fingerprint(theta(h)) if both_even else None
    gpin = (fg.norm, fg.cp_std, fg.full_spin_poly()) == (fh.norm, fh.cp_std, fh.full_spin_poly())
    return {
        "kind": "conj",
        "g": fg.to_json(),
        "h": fh.to_json(),
        "inner": inner,
        "outer": outer,
        "gpin": gpin,
    }


def _table_h1(args):
    mod = involution_module(args.group, args.n)
    res = z1_b1_h1(mod)
    payload = {"kind": "h1", "group": args.group, "n": args.n}
    payload.update(res.to_json())
    payload["norm_image"] = [p.to_json() for p in norm_map_image(mod)]
    return payload


_TABLE_HANDLERS = {
    "weights": _table_weights,
    "center": _table_center,
    "roots": _table_roots,
    "ht-weights": _table_ht_weights,
    "spin-matrix": _table_spin_matrix,
    "conj": _table_conj,
    "h1": _table_h1,
}


def _cmd_table(args):
    if getattr(args, "n", None) is not None:
        _check_n(args.n)
    try:
        payload = _TABLE_HANDLERS[args.kind](args)
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc))
    _emit(_canonical_json(payload), getattr(args, "out", None))
    return 0


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gspin",
        description="Exact verifier and table generator for the split even "
        "spin similitude groups and their representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run keyed verification suites")
    verify.add_argument(
        "--suites",
        default="all",
        help="comma-separated suite keys, or 'all' (default)",
    )
    verify.add_argument("--n", default="3..5", help="single value or inclusive range a..b")
    verify.add_argument("--trials", type=int, default=12, help="random trials per suite")
    verify.add_argument("--seed", type=int, default=0, help="root seed")
    verify.add_argument("--out", default=None, help="write the report to a file")
    verify.add_argument(
        "--list", action="store_true", help="print the suite registry and exit"
    )
    verify.add_argument("--format", choices=("json", "text"), default="json")

    table = sub.add_parser("table", help="emit a JSON table")
    kinds = table.add_subparsers(dest="kind", required=True)

    weights = kinds.add_parser("weights", help="half-spin weight vectors")
    weights.add_argument("--n", type=int, required=True)
    weights.add_argument("--eps", required=True, choices=("+", "-"))
    weights.add_argument("--out", default=None)

    center_p = kinds.add_parser("center", help="center structure and torsion")
    center_p.add_argument("--group", required=True, choices=("gspin", "spin", "so", "gso"))
    center_p.add_argument("--n", type=int, required=True)
    center_p.add_argument("--out", default=None)

    roots_p = kinds.add_parser("roots", help="roots, coroots, and the Cartan matrix")
    roots_p.add_argument("--n", type=int, required=True)
    roots_p.add_argument("--out", default=None)

    ht = kinds.add_parser("ht-weights", help="integer weight multiset of a dominant weight")
    ht.add_argument("--n", type=int, required=True)
    ht.add_argument("--eps", required=True, choices=("+", "-"))
    ht.add_argument("--lam", required=True, help="JSON list [a0, a1, ..., an]")
    ht.add_argument("--mult", type=int, default=1)
    ht.add_argument("--out", default=None)

    sm = kinds.add_parser("spin-matrix", help="spin matrix with its basis manifest")
    sm.add_argument("--element", required=True, help="serialized element JSON")
    sm.add_argument("--eps", default="full", choices=("+", "-", "full"))
    sm.add_argument("--out", default=None)

    conj = kinds.add_parser("conj", help="conjugacy verdicts for two elements")
    conj.add_argument("--g", required=True, help="serialized element JSON")
    conj.add_argument("--h", required=True, help="serialized element JSON")
    conj.add_argument("--out", default=None)

    h1 = kinds.add_parser("h1", help="cocycle/coboundary/cohomology table")
    h1.add_argument("--group", required=True, choices=("so", "spin", "gspin"))
    h1.add_argument("--n", type=int, required=True)
    h1.add_argument("--out", default=None)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_table(args)
    except _UsageError as exc:
        print(f"gspin: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
