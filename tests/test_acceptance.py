"""Acceptance gate: the fourteen release criteria, one test each.

Every check is exact (no tolerances).  Each test prints a single
``ACCEPTANCE k PASS`` line on success so a verbose run doubles as the
sign-off checklist; any assertion failure keeps the line unprinted.
"""

import io
import json
import random
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction

from gspin.cli import SUITES, main
from gspin.clifford import (
    CliffordElement,
    GPinElement,
    beta,
    even_space,
    i_std,
    odd_space,
    random_gpin,
    random_gspin,
    random_vector,
    theta,
    theta_circ_matrix,
    theta_element,
)
from gspin.cocycle import (
    check_extension_criterion,
    extension_classes,
    involution_module,
    z1_b1_h1,
)
from gspin.conjugacy import (
    fingerprint,
    principal_nilpotent,
    spin7_orbit_discriminator,
    spin_minus_irreducibility_weight_check,
)
from gspin.exact import GaussRat, Mat, exp_nilpotent, inverse, jordan_partition, rank
from gspin.hodge import ht_multiset, ht_via_spin_weights, is_spin_regular, is_std_regular
from gspin.rootdata import (
    TorusCoordinates,
    center,
    coords_of,
    mu_eps,
    pairing,
    scalar_in_coords,
    simple_roots,
    spin_weights,
    theta_on_coords,
    torus_point,
    weyl_act_spinor,
    weyl_group,
    z_eps,
)
from gspin.spinrep import half_spin_matrix, pairing_gram, psi_matrix, spin_matrix

ONE = GaussRat(1)
SQRT_M1 = GaussRat(0, 1)


def report(num, label):
    print(f"ACCEPTANCE {num:02d} PASS {label}")


def twisted(g):
    """Matrix of v -> x v beta(x), computed from the element."""
    x, bx = g.elt, beta(g.elt)
    return Mat.from_cols([(x * CliffordElement.generator(g.space, j) * bx).as_vector()
                          for j in range(1, g.space.dim + 1)])


def rand_coords(n, rng):
    return TorusCoordinates(
        tuple(GaussRat(Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9)))
              for _ in range(n + 1))
    )


def test_criterion_01_clifford_soundness():
    rng = random.Random(101)
    for n in (3, 4, 5, 6):
        sp = even_space(n)
        for k in range(100):
            v = random_vector(sp, rng, anisotropic=False, span=9, nnz=sp.dim)
            w = random_vector(sp, rng, anisotropic=False, span=9, nnz=sp.dim)
            ip = sp.bilinear(v.as_vector(), w.as_vector())
            assert v * w + w * v == CliffordElement.scalar(sp, ip)
            assert beta(v) == v and beta(w) == w
            assert beta(v * w) == w * v
            if k % 4 == 0:
                u = random_vector(sp, rng, anisotropic=False, span=6)
                x, y = v * w, u + v * w * u
                assert beta(x * y) == beta(y) * beta(x)
                assert beta(beta(y)) == y
    report(1, "Clifford relation and the anti-involution, n = 3..6, 100 pairs each")


def test_criterion_02_group_law_transport():
    rng = random.Random(102)
    pairs = 0
    for n, count in ((3, 25), (4, 25)):
        sp = even_space(n)
        gram = sp.gram()
        for _ in range(count):
            g = random_gspin(sp, rng, span=4)
            h = random_gspin(sp, rng, span=4)
            # fully checked: g * h composes its data from those of g and h
            gh = GPinElement(g.elt * h.elt)
            assert gh.pr_circ() == g.pr_circ() * h.pr_circ()
            tw_g, tw_h, tw_gh = (x.pr_circ() * x.spinor_norm() for x in (g, h, gh))
            assert tw_gh == tw_g * tw_h
            assert gh.spinor_norm() == g.spinor_norm() * h.spinor_norm()
            m = twisted(g)
            assert m == tw_g
            assert m.transpose() * gram * m == gram * g.spinor_norm() ** 2
            pairs += 1
    assert pairs == 50
    report(2, "pr, pr_circ, norm homomorphisms and sim = norm^2 on 50 pairs")


def test_criterion_03_theta_element_facts():
    for n in (3, 4, 5, 6):
        sp = even_space(n)
        th = GPinElement(theta_element(sp))
        assert th * th == GPinElement(CliffordElement.one(sp))
        assert th.pr_circ() == theta_circ_matrix(n)
    rng = random.Random(103)
    centralized = 0
    for n, count in ((3, 30), (4, 20)):
        sp = even_space(n)
        th = GPinElement(theta_element(sp))
        for _ in range(count):
            g = random_gspin(odd_space(n), rng, span=4)
            ig = i_std(g)
            assert th * ig * th.inverse() == ig
            centralized += 1
    assert centralized == 50
    report(3, "theta element squares to 1, projects to theta_circ, centralizes i_std")


def test_criterion_04_torus_theta_and_norm():
    rng = random.Random(104)
    for n in (3, 4, 5, 6):
        for k in range(100):
            s = rand_coords(n, rng)
            t = torus_point(s)
            ts = theta_on_coords(s)
            assert theta(t) == torus_point(ts)
            want = s[0] * s[0]
            for j in range(1, n + 1):
                want = want * s[j]
            assert t.spinor_norm() == want
            if k % 10 == 0:
                assert coords_of(theta(t)) == ts
    report(4, "theta and norm on 100 random torus points for each n = 3..6")


def test_criterion_05_half_spin_weights():
    rng = random.Random(105)
    for n in (3, 4, 5, 6):
        simple = simple_roots(n)
        for eps in (1, -1):
            ws = spin_weights(n, eps)
            assert len(ws) == 2 ** (n - 1)
            dominant = [w for w in ws if all(pairing(w, a) >= 0 for a in simple)]
            assert dominant == [mu_eps(n, eps)]
            for _ in range(10):
                s = rand_coords(n, rng)
                m = half_spin_matrix(torus_point(s), eps).mat
                assert m.nrows == 2 ** (n - 1)
                assert m.is_diagonal()
                diag = Counter(m.rows[i][i] for i in range(m.nrows))
                assert diag == Counter(w.evaluate(s) for w in ws)
    report(5, "half-spin torus diagonal equals the weight multiset; mu_eps is the top weight")


def test_criterion_06_kernel_and_center():
    for n in (3, 4, 5, 6):
        ident = TorusCoordinates.identity(n)
        for z in center("gspin", n).torsion():
            t = torus_point(z)
            for eps in (1, -1):
                trivial = half_spin_matrix(t, eps).mat == Mat.identity(2 ** (n - 1))
                assert trivial == (z in (ident, z_eps(n, eps)))
        spin_center = center("spin", n)
        torsion = spin_center.torsion()
        assert len(torsion) == 4
        orders = sorted(
            next(k for k in (1, 2, 4) if z ** k == ident) for z in torsion
        )
        if n % 2 == 0:
            assert spin_center.structure == "Z/2 x Z/2"
            assert orders == [1, 2, 2, 2]
        else:
            assert spin_center.structure == "Z/4"
            assert orders == [1, 2, 4, 4]
    report(6, "kernel of spin^eps is {1, z_eps}; Spin center is (Z/2)^2 or Z/4 by order count")


def test_criterion_07_duality_pairing():
    rng = random.Random(107)
    checked = 0
    for n, count in ((3, 25), (4, 15), (5, 7), (6, 3)):
        j = pairing_gram(n)
        dim = 2 ** n
        half = dim // 2
        assert (j.transpose() == j * -ONE) == (n in (3, 6))
        assert (j.transpose() == j) == (n in (4, 5))
        assert rank(j) == dim
        for rows in (range(half), range(half, dim)):
            restriction = Mat([[j.rows[a][b] for b in rows] for a in rows])
            if n % 2:
                assert restriction.is_zero()
            else:
                assert rank(restriction) == half
        sp = even_space(n)
        for _ in range(count):
            g = random_gpin(sp, rng, span=3)
            s = spin_matrix(g).mat
            assert s.transpose() * j * s == j * g.spinor_norm()
            checked += 1
    assert checked == 50
    report(7, "gram equivariance on 50 GPin elements; symmetry type and half-blocks by n")


def test_criterion_08_restriction_diagram():
    rng = random.Random(108)
    checked = 0
    for n, count in ((3, 25), (4, 15), (5, 10)):
        psi = psi_matrix(n)
        psi_inv = inverse(psi)
        to_minus = Mat.identity(psi.ncols) * SQRT_M1 * psi
        back = inverse(to_minus)
        for _ in range(count):
            g = random_gspin(odd_space(n), rng, span=3)
            odd_mat = spin_matrix(g).mat
            ig = i_std(g)
            assert half_spin_matrix(ig, 1).mat == psi * odd_mat * psi_inv
            assert half_spin_matrix(ig, -1).mat == to_minus * odd_mat * back
            checked += 1
    assert checked == 50
    report(8, "both half-spin restrictions intertwine with the odd spin on 50 elements")


def test_criterion_09_regular_unipotent():
    for n in (3, 4, 5, 6):
        u = exp_nilpotent(principal_nilpotent(n))
        assert jordan_partition(u) == [2 * n - 1, 1]
    report(9, "exp of the principal nilpotent has Jordan type [2n-1, 1] for n = 3..6")


def test_criterion_10_spin7_discriminator():
    assert spin7_orbit_discriminator(6, 4, 2) is False
    assert spin7_orbit_discriminator(2, 0, 0) is True
    assert spin7_orbit_discriminator(0, 0, 0) is True
    out = spin_minus_irreducibility_weight_check(4, (8, 4, 2))
    assert out["+"] == ("std+1",)
    assert out["-"] == ("spin",)
    report(10, "orbit discriminator verdicts and the weight-multiset identification at n = 4")


def test_criterion_11_fingerprint_conjugacy():
    n = 3
    grid_values = (GaussRat(1), GaussRat(2), GaussRat(3))
    points = [
        TorusCoordinates((a, b, c, d))
        for a in grid_values
        for b in grid_values
        for c in grid_values
        for d in grid_values
    ]
    group = list(weyl_group(n))
    orbits = [frozenset(weyl_act_spinor(w, s) for w in group) for s in points]
    prints = [fingerprint(torus_point(s)) for s in points]
    for i in range(len(points)):
        for k in range(i + 1, len(points)):
            assert (prints[i] == prints[k]) == (points[k] in orbits[i])
    rng = random.Random(111)
    for m, count in ((4, 3), (5, 2), (6, 2)):
        for _ in range(count):
            g = torus_point(rand_coords(m, rng))
            h = random_gpin(even_space(m), rng, factors=2, span=3)
            assert fingerprint(h * g * h.inverse()) == fingerprint(g)
    report(11, "fingerprints match Weyl-orbit equality on the n = 3 grid; conjugation-invariant")


def test_criterion_12_h1_and_extensions():
    n = 3
    so_res = z1_b1_h1(involution_module("so", n))
    minus_id = TorusCoordinates((ONE,) + (-ONE,) * n)
    assert set(so_res.z1) == {TorusCoordinates.identity(n), minus_id}
    assert so_res.b1 == (TorusCoordinates.identity(n),)
    assert so_res.h1_structure == "Z/2"
    assert so_res.h1_reps[1] == minus_id
    zeta = TorusCoordinates((SQRT_M1,) + (-ONE,) * n)
    for m in (3, 4, 5):
        zm = TorusCoordinates((SQRT_M1,) + (-ONE,) * m)
        gs = z1_b1_h1(involution_module("gspin", m))
        assert set(gs.z1) == {
            TorusCoordinates((s0,) + (s0 * s0,) * m)
            for s0 in (ONE, -ONE, SQRT_M1, -SQRT_M1)
        }
        assert gs.h1_structure == "Z/2"
        assert gs.h1_reps == (TorusCoordinates.identity(m), zm)
    rng = random.Random(112)
    sp = even_space(n)
    h = random_gspin(sp, rng, span=4)
    g0 = h * theta(h).inverse()
    vals = [torus_point(rand_coords(n, rng)), random_gspin(sp, rng, span=4)]
    table = [(v, g0 * theta(v) * g0.inverse()) for v in vals]
    assert check_extension_criterion(table, g0) is True
    classes = extension_classes(table, g0)
    assert classes == [g0, torus_point(zeta) * g0]
    assert all(check_extension_criterion(table, c) for c in classes)
    assert check_extension_criterion(table, torus_point(scalar_in_coords(n, -ONE)) * g0)
    assert not check_extension_criterion(table, torus_point(z_eps(n, 1)) * g0)
    try:
        extension_classes(table, torus_point(z_eps(n, 1)) * g0)
        raise AssertionError("failing candidate must be rejected")
    except ValueError:
        pass
    report(12, "SO and GSpin H^1 are Z/2 with the stated representatives; torsor of extensions")


def test_criterion_13_ht_cross_check():
    rng = random.Random(113)

    def rand_dominant(n):
        body = sorted((rng.randint(0, 9) for _ in range(n - 1)), reverse=True)
        return (rng.randint(-9, 9), *body, rng.randint(-body[-1], body[-1]))

    for n in (3, 4, 5, 6):
        for eps in (1, -1):
            for _ in range(200):
                lam = rand_dominant(n)
                assert ht_multiset(n, eps, lam) == ht_via_spin_weights(n, eps, lam)
    for eps in (1, -1):
        assert ht_multiset(3, eps, (0, 0, 0, 0)).values == Counter({0: 1, 1: 1, 2: 1, 3: 1})
    implications = 0
    for _ in range(500):
        n = rng.choice((3, 4, 5, 6))
        lam = rand_dominant(n)
        if is_spin_regular(lam):
            assert is_std_regular(lam)
            implications += 1
    assert implications > 0
    report(13, "two multiset routes agree on 1600 draws; spin-regular implies std-regular")


def test_criterion_14_cli_determinism(tmp_path):
    first = tmp_path / "report1.json"
    second = tmp_path / "report2.json"
    argv = ["verify", "--suites", "all", "--n", "3..5", "--seed", "7"]
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc1 = main(argv + ["--out", str(first)])
        rc2 = main(argv + ["--out", str(second)])
    assert rc1 == 0 and rc2 == 0
    assert buf.getvalue() == ""
    assert first.read_bytes() == second.read_bytes()
    report_json = json.loads(first.read_text())
    assert report_json["status"] == "pass"
    assert len(report_json["results"]) == 44 * 3
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["verify", "--list"])
    assert rc == 0
    listed = {row["id"] for row in json.loads(buf.getvalue())["suites"]}
    in_scope = {
        "eq:StdQuadSpace", "eq:betaInvolution", "lem:SurjectionOntoGSO",
        "lem:CliffordMapping", "lem:CliffordMapping2", "eq:std_emb_def",
        "eq:Elementw", "eq:Elementw_spin", "lem:conjugation-by-w",
        "lem:dualizing-spinor-norm-and-similitude", "eq:TGSpin-to-Gm",
        "eq:ThetaActionTGSpin", "lem:Elem_w", "lem:ThetaGSpin", "lem:GSORoots",
        "eq:WeylGroupAction", "eq:Spin-eps-def", "eq:spin-highest-weights",
        "def:HalfSpinDef", "lem:spin-kernel", "eq:CentralChar", "lem:spin-center2",
        "lem:ComputeCenter", "eq:daction", "eq:CliffordHalfSpinDef",
        "lem:half-spin-highest-weight", "lem:spin-inv-pairing", "lem:Duality-Eq1",
        "lem:CliffordSpinRestrict", "lem:CliffordSpinThetaAction",
        "eq:CliffordExplicitBasis", "prop:res-of-spin", "lem:GPin-conjugacy",
        "prop:containingRegularUnipotent", "lem:spin7", "lem:IrreducibilityOfSpin-",
        "prop:HT-weights", "eq:HTweights", "std-reg", "spin-reg", "lem:extend",
        "lem:uniquely-extend", "ex:SO2n-extend", "ex:GSpin2n-extend",
    }
    assert listed == in_scope == set(SUITES)
    report(14, "double run of the full verifier is byte-identical; registry covers all keys")
