"""Tests for the command-line verifier and table generator."""

import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gspin import cli, suites
from gspin.cli import SUITES, main
from gspin.clifford import CliffordElement, GPinElement, QuadSpace, even_space, odd_space, theta
from gspin.exact import GaussRat
from gspin.rootdata import torus_point


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def run_json(argv):
    rc, out = run_cli(argv)
    return rc, json.loads(out)


# ---------------------------------------------------------------------------
# verify: registry and report shape


def test_registry_has_44_keys():
    assert len(SUITES) == 44
    assert all(desc for _, desc in SUITES.values())


def test_list_covers_registry():
    rc, payload = run_json(["verify", "--list"])
    assert rc == 0
    assert [row["id"] for row in payload["suites"]] == list(SUITES)
    assert all(row["description"] for row in payload["suites"])


def test_list_text_format():
    rc, out = run_cli(["verify", "--list", "--format", "text"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(SUITES)
    assert lines[0].startswith("eq:StdQuadSpace")


def test_report_schema():
    rc, rep = run_json(
        ["verify", "--suites", "lem:spin7,std-reg", "--n", "3..4", "--seed", "9"]
    )
    assert rc == 0
    assert rep["command"] == "verify"
    assert rep["schema"] == "gspin-verify/1"
    assert rep["seed"] == 9
    assert rep["trials"] == 12
    assert rep["n_values"] == [3, 4]
    assert rep["suites"] == ["lem:spin7", "std-reg"]
    assert rep["status"] == "pass"
    assert len(rep["results"]) == 4
    for rec in rep["results"]:
        assert rec["status"] == "pass"
        assert rec["counterexample"] is None
        assert rec["checks"] > 0
        assert rec["seed"] == f"9:{rec['suite']}:{rec['n']}"
    # records are sorted by (suite, n)
    keys = [(r["suite"], r["n"]) for r in rep["results"]]
    assert keys == sorted(keys)


def test_single_suite_over_a_range():
    rc, rep = run_json(["verify", "--suites", "lem:spin-inv-pairing", "--n", "3..6"])
    assert rc == 0
    assert [(r["suite"], r["n"]) for r in rep["results"]] == [
        ("lem:spin-inv-pairing", n) for n in (3, 4, 5, 6)
    ]
    assert all(r["status"] == "pass" for r in rep["results"])


def test_same_seed_gives_identical_bytes(tmp_path):
    argv = ["verify", "--suites", "eq:HTweights,lem:GSORoots,lem:spin7", "--n", "3..5", "--seed", "3"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    rc1, out1 = run_cli(argv + ["--out", str(first)])
    rc2, out2 = run_cli(argv + ["--out", str(second)])
    assert rc1 == rc2 == 0
    assert out1 == out2 == ""  # --out suppresses stdout
    assert first.read_bytes() == second.read_bytes()
    # and the same report goes to stdout without --out
    rc3, out3 = run_cli(argv)
    assert rc3 == 0
    assert out3.encode() == first.read_bytes()


def test_seed_7_report_is_pinned():
    # The report of the full registry at n = 3 for seed 7; refactors must
    # leave it byte for byte as it is.
    rc, out = run_cli(["verify", "--suites", "all", "--n", "3", "--seed", "7", "--format", "json"])
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "42db201b1b38f321957a6b5e6dc9ff4241015ffdfc44681ee30b99790e8c52a2"
    )


def test_extension_and_pairing_report_at_n6_is_pinned():
    # The extension-criterion, torsor and pairing suites at n = 6 for seed
    # 0, the only tier-1 pin that reaches these suites beyond n = 3.
    rc, out = run_cli(["verify", "--suites",
                       "lem:extend,lem:uniquely-extend,ex:SO2n-extend,ex:GSpin2n-extend,"
                       "lem:spin-inv-pairing,lem:Duality-Eq1",
                       "--n", "6", "--seed", "0", "--format", "json"])
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "db90c4b530fa92be45a606b79f3a3034aabb21092e9c8147fd5903fee4fdce20"
    )


def test_conjugacy_and_spin_report_at_n6_n7_is_pinned():
    # The conjugacy, restriction and half-spin suites at n = 6 and 7 for
    # seed 7: charpoly on spin and half-spin matrices of 32 to 128 rows,
    # and conjugacy verdicts on dense elements.
    rc, out = run_cli(["verify", "--suites",
                       "lem:GPin-conjugacy,prop:res-of-spin,eq:CliffordHalfSpinDef",
                       "--n", "6..7", "--seed", "7", "--format", "json"])
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "1b77b9e391fc3d88240c58c2d63a0452589db2df47dbea37837266fd4369d693"
    )


def test_list_is_pinned():
    # Keys, descriptions and order of the registry as `verify --list` prints
    # them; the report's "suites" list follows the same order.
    rc, out = run_cli(["verify", "--list", "--format", "json"])
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "c4be7360e0de0fac5f320a2c1d3470660c54b54627285af01f8f0fcd8e7df9d8"
    )
    assert cli.SUITES is suites.SUITES


def test_different_seed_changes_inputs_not_status():
    _, rep5 = run_json(["verify", "--suites", "eq:betaInvolution", "--n", "3", "--seed", "5"])
    _, rep6 = run_json(["verify", "--suites", "eq:betaInvolution", "--n", "3", "--seed", "6"])
    assert rep5["results"][0]["seed"] != rep6["results"][0]["seed"]
    assert rep5["results"][0]["status"] == rep6["results"][0]["status"] == "pass"


def test_text_format_mentions_every_suite():
    rc, out = run_cli(
        ["verify", "--suites", "lem:spin7,spin-reg", "--n", "3", "--format", "text"]
    )
    assert rc == 0
    assert "PASS lem:spin7 n=3" in out
    assert "PASS spin-reg n=3" in out
    assert out.strip().endswith("summary: 2 run, 2 passed, 0 failed")


def test_failing_suite_sets_exit_code_and_counterexample():
    def forced(n, trials, rng, chk):
        chk.ok(rng.randint(0, 10) > 99, "forced failure", n=n)

    SUITES["tmp:forced"] = (forced, "always fails (test hook)")
    try:
        rc, rep = run_json(["verify", "--suites", "tmp:forced", "--n", "3"])
    finally:
        del SUITES["tmp:forced"]
    assert rc == 1
    assert rep["status"] == "fail"
    rec = rep["results"][0]
    assert rec["status"] == "fail"
    assert rec["counterexample"]["check"] == "forced failure"
    assert rec["counterexample"]["inputs"] == {"n": 3}


def test_crashing_suite_reports_error_payload():
    def crash(n, trials, rng, chk):
        raise RuntimeError("boom")

    SUITES["tmp:crash"] = (crash, "always crashes (test hook)")
    try:
        rc, rep = run_json(["verify", "--suites", "tmp:crash", "--n", "3"])
    finally:
        del SUITES["tmp:crash"]
    assert rc == 1
    assert rep["results"][0]["counterexample"] == {"error": "RuntimeError: boom"}


# ---------------------------------------------------------------------------
# verify: usage errors


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suites", "lem:no-such-suite", "--n", "3"],
        ["verify", "--suites", "", "--n", "3"],
        ["verify", "--n", "2"],
        ["verify", "--n", "5..3"],
        ["verify", "--n", "abc"],
        ["verify", "--n", "3", "--trials", "0"],
    ],
)
def test_usage_errors_exit_2(argv):
    rc, out = run_cli(argv)
    assert rc == 2
    assert out == ""


def _scalar_element_json(coeff, kind="even", n=3):
    return json.dumps({"space": {"kind": kind, "n": n},
                       "terms": [{"indices": [], "coeff": coeff}]})


_CAP = "n must be at most 8"
# Nested deeper than the JSON decoder's recursion limit.
_NESTED = "[" * 50000


@pytest.mark.parametrize(
    "argv, error",
    [
        (["table", "spin-matrix", "--element", _scalar_element_json("1/0")], ""),
        (["table", "conj", "--g", _scalar_element_json(5), "--h", _scalar_element_json("1")], ""),
        (["table", "roots", "--n", "3", "--out", "{tmp}/missing/roots.json"], ""),
        (["verify", "--n", "3..40"], _CAP),
        (["verify", "--n", "9"], _CAP),
        (["table", "weights", "--n", "40", "--eps", "+"], _CAP),
        (["table", "center", "--group", "gspin", "--n", "9"], _CAP),
        (["table", "roots", "--n", "3000"], _CAP),
        (["table", "ht-weights", "--n", "40", "--eps", "+", "--lam", json.dumps([0] * 41)], _CAP),
        (["table", "h1", "--group", "gspin", "--n", "9"], _CAP),
        (["table", "spin-matrix", "--element", _scalar_element_json("1", n=40)], _CAP),
        (["table", "spin-matrix", "--element", _scalar_element_json("1", kind="odd", n=9)], _CAP),
        (["table", "conj", "--g", _scalar_element_json("1", n=9),
          "--h", _scalar_element_json("1", n=9)], _CAP),
        (["table", "spin-matrix", "--element", _scalar_element_json("1", n=True)],
         "bad element for --element: even space needs n >= 1"),
        (["table", "spin-matrix", "--element", json.dumps(
            {"space": {"kind": "even", "n": 2}, "terms": [{"indices": [1.0], "coeff": "1"}]})],
         "bad element for --element: monomial (1.0,) out of range"),
        (["table", "weights", "--n", "2", "--eps", "+"], "n >= 3 required"),
        (["table", "weights", "--n", "-2", "--eps", "+"], "n >= 3 required"),
        (["table", "spin-matrix", "--element", _scalar_element_json("1e1000000")],
         "bad element for --element: exponent literals are not accepted"),
        (["table", "conj", "--g", _scalar_element_json("1e1000000"),
          "--h", _scalar_element_json("1")], "bad element for --g"),
        (["table", "conj", "--g", _scalar_element_json("1"),
          "--h", _scalar_element_json("1+1E1000000i")], "bad element for --h"),
        (["table", "spin-matrix", "--element", _NESTED], "malformed JSON for --element"),
        (["table", "conj", "--g", _NESTED, "--h", _scalar_element_json("1")],
         "malformed JSON for --g"),
        (["table", "conj", "--g", _scalar_element_json("1"), "--h", _NESTED],
         "malformed JSON for --h"),
        (["table", "ht-weights", "--n", "3", "--eps", "+", "--lam", _NESTED],
         "malformed JSON for --lam"),
    ],
    ids=["zero-denominator", "non-string-coeff", "unwritable-out",
         "n-cap-verify-range", "n-cap-verify", "n-cap-weights", "n-cap-center", "n-cap-roots",
         "n-cap-ht-weights", "n-cap-h1", "n-cap-spin-matrix", "n-cap-spin-matrix-odd",
         "n-cap-conj", "bool-n", "float-index", "weights-n-2", "weights-n-negative",
         "exponent-element", "exponent-g", "exponent-h",
         "nested-element", "nested-g", "nested-h", "nested-lam"],
)
def test_bad_input_exits_2_without_traceback(argv, error, tmp_path):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "gspin.cli", *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2
    assert f"gspin: error: {error}" in proc.stderr
    assert "Traceback" not in proc.stderr


# Malformed element payloads for the fuzz test below.  Each mutation of a
# valid element makes it invalid, so no payload reaches 2^n work.
_WRONG = [True, False, 1.0, "3", None, [], [3], {}]
_BAD_VALUES = {
    "n": st.sampled_from(_WRONG) | st.integers(-3, 0) | st.integers(9, 10 ** 6),
    "kind": st.sampled_from([True, 1.0, "3", None, [], ["even"], "EVEN", "line"]),
    "q": st.sampled_from([True, 1.0, 3, None, [], "3x", "1/0", ""]),
    "indices": st.sampled_from([True, 1.0, "3", None, 7, [True], [1.0], ["1"], [None],
                                [0], [99], [2, 1], [1, 1], [[1]]]),
    "coeff": st.sampled_from([True, 1.0, 3, None, [], {}, "abc", "1/0", "", "0",
                              "1e1000000", "2-1E1000000i"]),
    "space": st.sampled_from(_WRONG),
    "terms": st.sampled_from([True, 1.0, "3", None, 7, [True], [None], ["x"]]),
}


@st.composite
def _malformed_elements(draw):
    kind = draw(st.sampled_from(["even", "odd", "line"]))
    n = draw(st.integers(2, 3))
    space = {"kind": kind, "q": "2"} if kind == "line" else {"kind": kind, "n": n}
    term = {"indices": [], "coeff": "1"}
    data = {"space": space, "terms": [term]}
    owners = {"kind": space, "n": space, "q": space, "indices": term, "coeff": term,
              "space": data, "terms": data}
    key = draw(st.sampled_from([k for k in owners if k != ("n" if kind == "line" else "q")]))
    how = draw(st.sampled_from(["wrong", "missing", "payload", "truncated"]))
    if how == "wrong":
        owners[key][key] = draw(_BAD_VALUES[key])
    elif how == "missing":
        del owners[key][key]
    elif how == "payload":
        data = draw(st.sampled_from(_WRONG + [[data]]))
    text = json.dumps(data)
    return text[:draw(st.integers(1, len(text) - 1))] if how == "truncated" else text


@settings(max_examples=200, deadline=None)
@given(_malformed_elements(), st.sampled_from(["--element", "--g", "--h"]))
@example(_scalar_element_json("1", n=True), "--element")
@example(json.dumps({"space": {"kind": "line", "q": "2"},
                     "terms": [{"indices": [True], "coeff": "1"}]}), "--g")
def test_malformed_element_json_exits_2(text, flag):
    scalar = _scalar_element_json("1", n=2)
    argv = {"--element": ["table", "spin-matrix", "--element", text],
            "--g": ["table", "conj", "--g", text, "--h", scalar],
            "--h": ["table", "conj", "--g", scalar, "--h", text]}[flag]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("gspin: error: ")


def test_large_n_element_is_rejected_before_its_space_is_built():
    # QuadSpace._interned keeps every space for the life of the process, so
    # an element with a huge n must be turned away before its space is built
    for kind in ("even", "odd"):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(["table", "spin-matrix", "--element", _scalar_element_json("1", kind, 2000)])
        assert rc == 2
        assert err.getvalue() == f"gspin: error: {_CAP}\n"
        assert (kind, 2000, None) not in QuadSpace._interned


def test_argparse_errors_exit_2():
    assert main(["verify", "--format", "yaml"]) == 2
    assert main(["table", "weights", "--n", "four", "--eps", "+"]) == 2
    assert main(["no-such-command"]) == 2
    lam = json.dumps([0, 0, 0, 0])
    for eps in ("1", "+1", "-1", "x"):
        assert main(["table", "weights", "--n", "3", "--eps", eps]) == 2
        assert main(["table", "ht-weights", "--n", "3", "--eps", eps, "--lam", lam]) == 2


# ---------------------------------------------------------------------------
# table: weights, center, roots, h1


def test_table_weights():
    rc, t = run_json(["table", "weights", "--n", "4", "--eps", "+"])
    assert rc == 0
    assert t["kind"] == "weights"
    assert t["n"] == 4
    assert t["epsilon"] == "+"
    assert t["mu"] == [1, 1, 1, 1, 1]
    assert len(t["weights"]) == 8
    assert all(w[0] == 1 and len(w) == 5 for w in t["weights"])
    assert t["mu"] in t["weights"]
    rc, tm = run_json(["table", "weights", "--n", "4", "--eps", "-"])
    assert tm["mu"] == [1, 1, 1, 1, 0]
    assert len(tm["weights"]) == 8
    overlap = [w for w in tm["weights"] if w in t["weights"]]
    assert overlap == []


def test_table_center():
    rc, c = run_json(["table", "center", "--group", "spin", "--n", "6"])
    assert rc == 0
    assert c["kind"] == "center"
    assert c["group"] == "spin"
    assert c["structure"] == "Z/2 x Z/2"
    assert c["orders"] == [2, 2]
    assert len(c["torsion"]) == 4
    assert len(c["generators"]) == 2
    rc, c5 = run_json(["table", "center", "--group", "spin", "--n", "5"])
    assert c5["structure"] == "Z/4"
    assert c5["generators"] == [["0+1*i"] + ["-1+0*i"] * 5]
    rc, g = run_json(["table", "center", "--group", "gspin", "--n", "4"])
    assert g["structure"] == "Gm x Z/2"
    assert g["has_gm"] is True
    assert len(g["torsion"]) == 8


def test_table_roots():
    rc, r = run_json(["table", "roots", "--n", "3"])
    assert rc == 0
    assert len(r["roots"]) == 12
    assert len(r["coroots"]) == 12
    assert len(r["simple_roots"]) == 3
    assert r["cartan_matrix"] == [[2, -1, -1], [-1, 2, 0], [-1, 0, 2]]
    rc, r4 = run_json(["table", "roots", "--n", "4"])
    assert len(r4["roots"]) == 24
    assert r4["cartan_matrix"] == [
        [2, -1, 0, 0],
        [-1, 2, -1, -1],
        [0, -1, 2, 0],
        [0, -1, 0, 2],
    ]


def test_table_h1():
    rc, h = run_json(["table", "h1", "--group", "gspin", "--n", "5"])
    assert rc == 0
    assert h["kind"] == "h1"
    assert h["h1"]["structure"] == "Z/2"
    assert len(h["z1"]) == 4
    assert len(h["b1"]) == 2
    reps = h["h1"]["representatives"]
    assert reps[0] == ["1+0*i"] * 6
    assert reps[1] == ["0+1*i"] + ["-1+0*i"] * 5
    assert len(h["norm_image"]) == 2
    rc, hso = run_json(["table", "h1", "--group", "so", "--n", "3"])
    assert hso["h1"]["structure"] == "Z/2"
    assert len(hso["z1"]) == 2
    assert hso["b1"] == [["1+0*i"] * 4]
    rc, hs4 = run_json(["table", "h1", "--group", "spin", "--n", "4"])
    assert hs4["h1"]["structure"] == "1"
    assert len(hs4["h1"]["representatives"]) == 1


# ---------------------------------------------------------------------------
# table: spin-matrix and conj


def element_json(g):
    return json.dumps(g.elt.to_json())


def test_table_spin_matrix_full_and_halves():
    g = torus_point((1, 2, 3, 5))
    rc, full = run_json(["table", "spin-matrix", "--element", element_json(g)])
    assert rc == 0
    assert full["kind"] == "spin-matrix"
    assert full["space"] == {"kind": "even", "n": 3}
    assert full["epsilon"] == "full"
    assert len(full["matrix"]) == 8
    assert len(full["basis"]) == 8
    assert full["basis"][0] == []
    rc, plus = run_json(
        ["table", "spin-matrix", "--element", element_json(g), "--eps", "+"]
    )
    assert plus["epsilon"] == "+"
    assert len(plus["matrix"]) == 4
    assert all(len(u) % 2 == 0 for u in plus["basis"])
    rc, minus = run_json(
        ["table", "spin-matrix", "--element", element_json(g), "--eps", "-"]
    )
    assert minus["epsilon"] == "-"
    assert all(len(u) % 2 == 1 for u in minus["basis"])
    # the torus point is diagonal, so the full diagonal is the two half diagonals
    diag = [full["matrix"][i][i] for i in range(8)]
    assert diag == [plus["matrix"][i][i] for i in range(4)] + [
        minus["matrix"][i][i] for i in range(4)
    ]


def test_table_spin_matrix_odd_space():
    sp = odd_space(3)
    v = CliffordElement.generator(sp, 5)  # Q = 1, so an invertible vector
    g = json.dumps((v).to_json())
    rc, t = run_json(["table", "spin-matrix", "--element", g])
    assert rc == 0
    assert t["space"] == {"kind": "odd", "n": 3}
    assert len(t["matrix"]) == 4
    assert t["basis"] == [[], [1], [2], [1, 2]]


def _vector_product(space, *vectors):
    out = CliffordElement.one(space)
    for coords in vectors:
        out = out * CliffordElement.vector(space, coords)
    return json.dumps(out.to_json())


_HALF, _THIRD, _I = Fraction(1, 2), Fraction(1, 3), GaussRat(0, 1)
# An even n = 3 element and an odd n = 4 one (through f_7) with
# fractional and imaginary coefficients, each a product of vectors.
_EVEN_3 = _vector_product(even_space(3), [1, 0, 0, _HALF, 0, 0],
                          [0, _I, 1, 0, 2 * _THIRD, GaussRat(1, -1)])
_ODD_4 = _vector_product(odd_space(4), [1, 0, 0, 0, 0, 0, _I], [0, _THIRD, 0, 0, 2, 1, 0],
                         [0, 0, 1, 0, 0, -_HALF, 3])


@pytest.mark.parametrize("element, eps, digest", [
    (_EVEN_3, "full", "c264217bb408befb6b8b089796f16c236820e11585b04c60ce9c5828531da58d"),
    (_EVEN_3, "+", "edda71ca8e0f38ed9e43ebd8e6a9883a04447d0a89b5d7d864d25fa9c49317aa"),
    (_EVEN_3, "-", "299d8f469155f7e3cdc4a0576ae727b4169afde3a0d15b73849efded155ae50f"),
    (_ODD_4, "full", "25c976eda4db1c353bcee54b20ea3c8aeabd608e7e82e7ba3a17a947412d752f"),
], ids=["even-full", "even-plus", "even-minus", "odd-full"])
def test_table_spin_matrix_is_pinned(element, eps, digest):
    # The bytes of `table spin-matrix` for fixed elements with fractional
    # and imaginary coefficients; a change to the module walk or the basis
    # order must leave them as they are.
    rc, out = run_cli(["table", "spin-matrix", "--element", element, "--eps", eps])
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_table_spin_matrix_usage_errors():
    rc, out = run_cli(["table", "spin-matrix", "--element", "{not json"])
    assert rc == 2 and out == ""
    # odd-parity elements have no half-spin blocks
    sp = even_space(3)
    v = CliffordElement(sp, {(1,): 1, (4,): 1})
    rc, out = run_cli(
        ["table", "spin-matrix", "--element", json.dumps(v.to_json()), "--eps", "+"]
    )
    assert rc == 2 and out == ""
    # non-invertible element is rejected at parse time
    w = CliffordElement.generator(sp, 1)
    rc, out = run_cli(["table", "spin-matrix", "--element", json.dumps(w.to_json())])
    assert rc == 2 and out == ""


def test_table_conj_inner_outer_verdicts():
    g = torus_point((1, 2, 3, 5))
    h = theta(g)
    rc, v = run_json(["table", "conj", "--g", element_json(g), "--h", element_json(h)])
    assert rc == 0
    assert v["kind"] == "conj"
    assert v["inner"] is False
    assert v["outer"] is True
    assert v["gpin"] is True
    assert v["g"]["norm"] == v["h"]["norm"]
    assert v["g"]["cp_std"] == v["h"]["cp_std"]
    assert v["g"]["cp_spin_plus"] == v["h"]["cp_spin_minus"]
    rc, same = run_json(["table", "conj", "--g", element_json(g), "--h", element_json(g)])
    assert same["inner"] is True and same["outer"] is False


def _n5_conj_pairs():
    """(g, h) element texts at n = 5: g a torus point with fractional and
    imaginary coordinates, first against a conjugate u g u^-1 (u a product
    of two vectors), then against its outer twist theta(g), which is not
    conjugate to it."""
    sp = even_space(5)
    g = torus_point((2, 3, _HALF, -5, GaussRat(1, 1), 7 * _THIRD))
    u = CliffordElement.one(sp)
    for coords in ([0, 1, 0, 0, 0, 0, 2, 0, 0, 0], [0, 0, 0, 1, _I, 0, 0, 0, 1, 1]):
        u = u * CliffordElement.vector(sp, coords)
    u = GPinElement(u)
    texts = [json.dumps(x.elt.to_json()) for x in (g, u * g * u.inverse(), theta(g))]
    return [(texts[0], texts[1]), (texts[0], texts[2])]


@pytest.mark.parametrize("pair, digest", zip(_n5_conj_pairs(), [
    "328f4bbb5ecb37fac8fb0db3b9ba05d8b76caafe8b0bad483f7dc6e818a226b4",
    "a09b2ec5316a07fe85732bed8a94ee65c568e045c18067e600896c0e54bb9755",
]), ids=["conjugate", "outer-twist"])
def test_table_conj_is_pinned(pair, digest):
    # The bytes of `table conj` for an n = 5 element against a conjugate and
    # against its outer twist: the fingerprints and the three verdicts.
    g, h = pair
    rc, out = run_cli(["table", "conj", "--g", g, "--h", h])
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_table_conj_mixed_parity_gives_nulls():
    g = torus_point((1, 2, 3, 5))
    sp = even_space(3)
    x = CliffordElement(sp, {(1,): 1, (4,): 1})  # odd parity, Q = 1
    rc, v = run_json(["table", "conj", "--g", element_json(g), "--h", json.dumps(x.to_json())])
    assert rc == 0
    assert v["inner"] is None
    assert v["outer"] is None
    assert v["gpin"] is False
    assert "cp_spin_full" in v["h"]


def test_table_conj_space_mismatch_exits_2():
    g = torus_point((1, 2, 3, 5))
    h = torus_point((1, 2, 3, 5, 7))
    rc, out = run_cli(["table", "conj", "--g", element_json(g), "--h", element_json(h)])
    assert rc == 2 and out == ""


def test_table_ht_weights():
    rc, t = run_json(
        ["table", "ht-weights", "--n", "3", "--eps", "+", "--lam", "[0,0,0,0]"]
    )
    assert rc == 0
    assert t["b_shift"] == [-3, 2, 1, 0]
    assert t["std_regular"] is False
    assert t["spin_regular"] is False
    assert t["multiset"] == {"multiplicity": 1, "values": [[0, 1], [1, 1], [2, 1], [3, 1]]}
    rc, t2 = run_json(
        ["table", "ht-weights", "--n", "3", "--eps", "-", "--lam", "[0, 16, 4, 1]", "--mult", "2"]
    )
    assert t2["std_regular"] is True
    assert t2["spin_regular"] is True
    assert t2["multiset"]["multiplicity"] == 2
    assert sum(c for _, c in t2["multiset"]["values"]) == 8
    rc, out = run_cli(["table", "ht-weights", "--n", "3", "--eps", "+", "--lam", "[0,1,2,3]"])
    assert rc == 2 and out == ""  # not dominant
    rc, out = run_cli(["table", "ht-weights", "--n", "3", "--eps", "+", "--lam", "nope"])
    assert rc == 2 and out == ""


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_table_ht_weights_huge_mult_scales_counts():
    argv = ["table", "ht-weights", "--n", "8", "--eps", "+", "--lam", json.dumps([0] * 9)]
    rc, once = run_json(argv)
    assert rc == 0
    # a 1 GiB address-space cap makes a version that materializes every
    # copy fail fast instead of exhausting the host
    proc = subprocess.run(
        [sys.executable, "-m", "gspin.cli", *argv, "--mult", "1000000000"],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    many = json.loads(proc.stdout)["multiset"]
    assert many["multiplicity"] == 10 ** 9
    assert many["values"] == [[v, c * 10 ** 9] for v, c in once["multiset"]["values"]]


def test_table_out_flag(tmp_path):
    path = tmp_path / "weights.json"
    rc, out = run_cli(["table", "weights", "--n", "3", "--eps", "-", "--out", str(path)])
    assert rc == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["kind"] == "weights"
    assert len(payload["weights"]) == 4


# ---------------------------------------------------------------------------
# installed entry points


def test_python_m_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "gspin.cli", "verify", "--suites", "lem:spin7", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["status"] == "pass"


def test_console_script():
    exe = shutil.which("gspin")
    assert exe is not None, "console script should be installed"
    proc = subprocess.run(
        [exe, "table", "roots", "--n", "3"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "roots"
    usage = subprocess.run(
        [exe, "verify", "--suites", "nope", "--n", "3"], capture_output=True, text=True
    )
    assert usage.returncode == 2
    assert "unknown suite key" in usage.stderr
