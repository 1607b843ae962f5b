"""Tests for the root datum, Weyl/theta actions, centers, and the torus bridge."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from gspin.clifford import GPinElement, CliffordElement, even_space, random_gspin, theta
from gspin.exact import GaussRat, Mat
from gspin.rootdata import (
    TorusCoordinates,
    WeightVector,
    WeylElement,
    center,
    central_char,
    coords_of,
    coroots,
    mu_eps,
    pairing,
    parity_subsets,
    roots,
    scalar_in_coords,
    simple_coroots,
    simple_roots,
    spin_weights,
    theta_on_coords,
    theta_on_weights,
    torus_clifford_element,
    torus_point,
    weyl_act,
    weyl_act_spinor,
    weyl_group,
    z_eps,
)
from gspin.spinrep import half_spin_matrix

ONE = GaussRat(1)
I = GaussRat(0, 1)


def rand_weyl(n, rng):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n - 1)]
    prod = 1
    for x in signs:
        prod *= x
    return WeylElement(tuple(perm), tuple(signs) + (prod,))


def rand_coords(n, rng):
    vals = []
    for _ in range(n + 1):
        num = rng.choice([x for x in range(-9, 10) if x])
        den = rng.choice([x for x in range(1, 10)])
        vals.append(GaussRat(Fraction(num, den)))
    return TorusCoordinates(vals)


# ---------------------------------------------------------------------------
# lattice types


def test_weight_vector_validation():
    with pytest.raises(TypeError):
        WeightVector((1, 2, 0.5))
    with pytest.raises(TypeError):
        WeightVector((True, 1, 1))
    v = WeightVector((1, 0, -2))
    with pytest.raises(AttributeError):
        v.coords = (0, 0, 0)


def test_weight_vector_arithmetic():
    a = WeightVector((1, 2, 3), dual=True)
    b = WeightVector((0, 1, -1), dual=True)
    assert (a + b).coords == (1, 3, 2)
    assert (a - b).coords == (1, 1, 4)
    assert (-a).coords == (-1, -2, -3)
    assert (2 * a).coords == (2, 4, 6)
    with pytest.raises(ValueError):
        a + WeightVector((0, 1, -1), dual=False)


def test_pairing_needs_opposite_lattices():
    a = WeightVector((1, 0, 1), dual=False)
    b = WeightVector((2, 1, 0), dual=True)
    assert pairing(a, b) == 2
    assert pairing(b, a) == 2
    with pytest.raises(ValueError):
        pairing(a, a)


def test_weight_evaluation():
    w = WeightVector((1, -1, 2), dual=True)
    s = TorusCoordinates((GaussRat(3), GaussRat(2), GaussRat(5)))
    assert w.evaluate(s) == GaussRat(3) / 2 * 25


def test_torus_coordinates_validation():
    with pytest.raises(ValueError):
        TorusCoordinates((1, 0, 1))
    with pytest.raises(TypeError):
        TorusCoordinates((1.5, 2))
    t = TorusCoordinates((2, 3))
    assert t[0] == GaussRat(2)
    assert len(t) == 2


def test_torus_coordinates_group_ops():
    t = TorusCoordinates((2, 3, -1))
    u = TorusCoordinates((GaussRat(Fraction(1, 2)), 1, 5))
    assert (t * u).s == (ONE, GaussRat(3), GaussRat(-5))
    assert (t * t.inverse()) == TorusCoordinates.identity(2)
    assert t**2 == t * t
    assert t**0 == TorusCoordinates.identity(2)


# ---------------------------------------------------------------------------
# roots and coroots


def test_simple_roots_n3():
    a1, a2, a3 = simple_roots(3)
    assert a1.coords == (0, 1, -1, 0)
    assert a2.coords == (0, 0, 1, -1)
    assert a3.coords == (-1, 0, 1, 1)
    assert not a3.dual


def test_simple_coroots_n3():
    c1, c2, c3 = simple_coroots(3)
    assert c1.coords == (0, 1, -1, 0)
    assert c2.coords == (0, 0, 1, -1)
    assert c3.coords == (0, 0, 1, 1)
    assert c3.dual


@pytest.mark.parametrize("n", [3, 4, 5])
def test_root_counts(n):
    assert len(roots(n)) == 2 * n * (n - 1)
    assert len(coroots(n)) == 2 * n * (n - 1)
    assert len(set(v.coords for v in roots(n))) == 2 * n * (n - 1)


def test_roots_rejects_small_n():
    with pytest.raises(ValueError):
        roots(2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cartan_pairings_diagonal(n):
    sr = simple_roots(n)
    sc = simple_coroots(n)
    for i in range(n):
        assert pairing(sr[i], sc[i]) == 2


def test_cartan_matrix_d4():
    sr = simple_roots(4)
    sc = simple_coroots(4)
    cartan = [[pairing(sr[i], sc[j]) for j in range(4)] for i in range(4)]
    assert cartan == [
        [2, -1, 0, 0],
        [-1, 2, -1, -1],
        [0, -1, 2, 0],
        [0, -1, 0, 2],
    ]


def test_simple_roots_are_roots():
    all_roots = {v.coords for v in roots(4)}
    for a in simple_roots(4):
        assert a.coords in all_roots


# ---------------------------------------------------------------------------
# Weyl group


def test_weyl_element_validation():
    with pytest.raises(ValueError):
        WeylElement((1, 1, 3), (1, 1, 1))
    with pytest.raises(ValueError):
        WeylElement((1, 2, 3), (-1, 1, 1))
    with pytest.raises(ValueError):
        WeylElement((1, 2, 3), (1, 1, 2))


def test_weyl_group_order():
    assert sum(1 for _ in weyl_group(3)) == 24
    assert sum(1 for _ in weyl_group(4)) == 192
    assert len({w for w in weyl_group(3)}) == 24


def test_weyl_group_law():
    rng = random.Random(7)
    n = 4
    e = WeylElement.identity(n)
    for _ in range(30):
        w1, w2, w3 = (rand_weyl(n, rng) for _ in range(3))
        assert (w1 * w2) * w3 == w1 * (w2 * w3)
        assert w1 * w1.inverse() == e
        assert w1.inverse() * w1 == e


def test_weyl_act_is_action():
    rng = random.Random(8)
    n = 4
    for _ in range(20):
        w1 = rand_weyl(n, rng)
        w2 = rand_weyl(n, rng)
        v = WeightVector(tuple(rng.randint(-4, 4) for _ in range(n + 1)), dual=rng.choice((True, False)))
        assert weyl_act(w1 * w2, v) == weyl_act(w1, weyl_act(w2, v))
        t = rand_coords(n, rng)
        assert weyl_act(w1 * w2, t) == weyl_act(w1, weyl_act(w2, t))
        assert weyl_act_spinor(w1 * w2, t) == weyl_act_spinor(w1, weyl_act_spinor(w2, t))


def test_weyl_identity_acts_trivially():
    e = WeylElement.identity(3)
    t = TorusCoordinates((2, 3, 5, 7))
    v = WeightVector((1, -1, 0, 2), dual=True)
    assert weyl_act(e, t) == t
    assert weyl_act(e, v) == v
    assert weyl_act_spinor(e, t) == t


def test_weyl_flip_example_on_similitude_coords():
    # a = (-1,-1,1): (t0, t1, t2, t3) -> (t0, t0/t1, t0/t2, t3)
    a = WeylElement((1, 2, 3), (-1, -1, 1))
    t = TorusCoordinates((GaussRat(5), GaussRat(2), GaussRat(3), GaussRat(7)))
    moved = weyl_act(a, t)
    assert moved.s == (GaussRat(5), GaussRat(Fraction(5, 2)), GaussRat(Fraction(5, 3)), GaussRat(7))


def test_weyl_flip_on_spinor_coords_preserves_norm():
    rng = random.Random(9)
    for n in (3, 4):
        for _ in range(10):
            w = rand_weyl(n, rng)
            s = rand_coords(n, rng)
            assert weyl_act_spinor(w, s).spinor_norm() == s.spinor_norm()


def test_weyl_preserves_roots_exhaustive_n3():
    root_set = {v.coords for v in roots(3)}
    coroot_set = {v.coords for v in coroots(3)}
    for w in weyl_group(3):
        for r in simple_roots(3):
            assert weyl_act(w, r).coords in root_set
        for c in simple_coroots(3):
            assert weyl_act(w, c).coords in coroot_set


def test_weyl_actions_are_contragredient():
    # (w . chi)(s) = chi(w^{-1} . s) pairing characters with the matching
    # point action on each side.
    rng = random.Random(10)
    n = 3
    for _ in range(20):
        w = rand_weyl(n, rng)
        s = rand_coords(n, rng)
        chi_dual = WeightVector(tuple(rng.randint(-3, 3) for _ in range(n + 1)), dual=True)
        chi_std = WeightVector(tuple(rng.randint(-3, 3) for _ in range(n + 1)), dual=False)
        assert weyl_act(w, chi_dual).evaluate(s) == chi_dual.evaluate(weyl_act_spinor(w.inverse(), s))
        assert weyl_act(w, chi_std).evaluate(s) == chi_std.evaluate(weyl_act(w.inverse(), s))


# ---------------------------------------------------------------------------
# theta


def test_theta_on_coords_formula_and_involution():
    s = TorusCoordinates((2, 3, 5, 7))
    moved = theta_on_coords(s)
    assert moved.s == (GaussRat(14), GaussRat(3), GaussRat(5), GaussRat(Fraction(1, 7)))
    assert theta_on_coords(moved) == s


def test_theta_swaps_last_two_coroots():
    for n in (3, 4, 5):
        sc = simple_coroots(n)
        assert theta_on_weights(sc[n - 2]) == sc[n - 1]
        assert theta_on_weights(sc[n - 1]) == sc[n - 2]
        for i in range(n - 2):
            assert theta_on_weights(sc[i]) == sc[i]


def test_theta_swaps_last_two_roots():
    for n in (3, 4):
        sr = simple_roots(n)
        assert theta_on_weights(sr[n - 2]) == sr[n - 1]
        assert theta_on_weights(sr[n - 1]) == sr[n - 2]


def test_theta_on_weights_involution():
    rng = random.Random(11)
    for _ in range(20):
        for dual in (True, False):
            v = WeightVector(tuple(rng.randint(-5, 5) for _ in range(5)), dual=dual)
            assert theta_on_weights(theta_on_weights(v)) == v


def test_theta_on_coords_center_pair():
    # On a central point (s_0, s_1, ..., s_1) with s_1 = +-1, theta sends s_0 to s_0 s_1.
    minus = TorusCoordinates((GaussRat(5),) + (GaussRat(-1),) * 3)
    assert theta_on_coords(minus) == TorusCoordinates((GaussRat(-5),) + (GaussRat(-1),) * 3)
    plus = TorusCoordinates((2, 1, 1, 1))
    assert theta_on_coords(plus) == TorusCoordinates((GaussRat(2), ONE, ONE, ONE))


def test_theta_swaps_mu():
    for n in (3, 4, 5):
        assert theta_on_weights(mu_eps(n, 1)) == mu_eps(n, -1)
        assert theta_on_weights(mu_eps(n, -1)) == mu_eps(n, 1)


# ---------------------------------------------------------------------------
# minuscule weights and spin weights


def test_mu_eps_examples():
    assert mu_eps(4, 1).coords == (1, 1, 1, 1, 1)
    assert mu_eps(3, 1).coords == (1, 1, 1, 0)
    assert mu_eps(3, -1).coords == (1, 1, 1, 1)
    assert mu_eps(4, "+") == mu_eps(4, 1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_mu_eps_simple_pairings(n):
    sr = simple_roots(n)
    mu_last = mu_eps(n, (-1) ** n)
    mu_other = mu_eps(n, -((-1) ** n))
    for i, alpha in enumerate(sr, start=1):
        assert pairing(alpha, mu_last) == (1 if i == n else 0)
        assert pairing(alpha, mu_other) == (1 if i == n - 1 else 0)


@pytest.mark.parametrize("n", [3, 4])
def test_mu_eps_minuscule(n):
    for eps in (1, -1):
        mu = mu_eps(n, eps)
        assert all(abs(pairing(r, mu)) <= 1 for r in roots(n))


def test_parity_subsets_n3():
    assert parity_subsets(3, 1) == ((), (1, 2), (1, 3), (2, 3))
    assert parity_subsets(3, -1) == ((1,), (2,), (3,), (1, 2, 3))


def test_spin_weights_n3_minus():
    got = [w.coords for w in spin_weights(3, -1)]
    assert got == [(1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, 1)]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("eps", [1, -1])
def test_spin_weights_count_and_duality(n, eps):
    ws = spin_weights(n, eps)
    assert len(ws) == 2 ** (n - 1)
    assert all(w.dual for w in ws)
    assert len({w.coords for w in ws}) == len(ws)


@pytest.mark.parametrize("eps", [1, -1])
def test_spin_weights_closed_under_weyl_exhaustive_n3(eps):
    coords = {w.coords for w in spin_weights(3, eps)}
    for w in weyl_group(3):
        for v in spin_weights(3, eps):
            assert weyl_act(w, v).coords in coords


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("eps", [1, -1])
def test_spin_weights_unique_dominant_is_mu(n, eps):
    sr = simple_roots(n)
    dominant = [w for w in spin_weights(n, eps) if all(pairing(a, w) >= 0 for a in sr)]
    assert dominant == [mu_eps(n, eps)]


@pytest.mark.parametrize("n", [3, 4])
def test_mu_orbit_is_spin_weights(n):
    for eps in (1, -1):
        mu = mu_eps(n, eps)
        orbit = {weyl_act(w, mu).coords for w in weyl_group(n)}
        assert len(orbit) == 2 ** (n - 1)
        assert orbit == {w.coords for w in spin_weights(n, eps)}


# ---------------------------------------------------------------------------
# central characters


def test_central_char_examples():
    a = GaussRat(3, 7)
    assert central_char(4, 1, a, -1) == a
    assert central_char(4, 1, 1, 1) == ONE
    assert central_char(3, -1, a, -1) == -a


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("eps", [1, -1])
def test_central_char_kills_z_eps(n, eps):
    assert central_char(n, eps, eps, -1) == ONE
    assert central_char(n, eps, -eps, -1) == GaussRat(-1)


def test_central_char_validates_b():
    with pytest.raises(ValueError):
        central_char(3, 1, 2, 3)


# ---------------------------------------------------------------------------
# centers


def test_center_gspin():
    c = center("gspin", 4)
    assert c.structure == "Gm x Z/2"
    assert c.has_gm
    assert [g.s for g in c.generators] == [(ONE, -ONE, -ONE, -ONE, -ONE)]
    assert c.orders == [2]
    assert c.theta_images[0].s == (-ONE, -ONE, -ONE, -ONE, -ONE)
    assert len(c.torsion()) == 8


def test_center_spin_even():
    c = center("spin", 4)
    assert c.structure == "Z/2 x Z/2"
    assert not c.has_gm
    pts = c.torsion()
    assert len(pts) == 4
    ident = TorusCoordinates.identity(4)
    for p in pts:
        assert p * p == ident
    assert z_eps(4, 1) in pts
    assert z_eps(4, -1) in pts
    assert scalar_in_coords(4, -1) in pts


def test_center_spin_odd():
    c = center("spin", 3)
    assert c.structure == "Z/4"
    zeta = c.generators[0]
    assert zeta.s == (I, -ONE, -ONE, -ONE)
    assert zeta**2 == scalar_in_coords(3, -1)
    assert zeta**4 == TorusCoordinates.identity(3)
    assert len(c.torsion()) == 4
    assert c.theta_images[0] == zeta.inverse()


def test_center_so_and_gso():
    so = center("so", 3)
    assert so.structure == "Z/2"
    assert len(so.torsion()) == 2
    gso = center("gso", 3)
    assert gso.structure == "Gm"
    assert gso.generators == []
    assert len(gso.torsion()) == 4  # fourth roots of unity through z -> (z^2, z, ..., z)


def test_center_bad_tag():
    with pytest.raises(ValueError):
        center("sp", 4)


def test_center_theta_consistency():
    # theta on the stored generators agrees with the coordinate formula
    for tag, n in (("gspin", 3), ("gspin", 4), ("spin", 3), ("spin", 4)):
        c = center(tag, n)
        for g, img in zip(c.generators, c.theta_images):
            assert theta_on_coords(g) == img


# ---------------------------------------------------------------------------
# Clifford torus bridge


def test_torus_clifford_identity():
    t = torus_clifford_element(1, (1, 1, 1), (1, 1, 1))
    assert t.elt == CliffordElement.one(even_space(3))
    assert coords_of(t) == TorusCoordinates.identity(3)


def test_torus_clifford_validation():
    with pytest.raises(ValueError):
        torus_clifford_element(0, (1, 1), (1, 1))
    with pytest.raises(ValueError):
        torus_clifford_element(1, (1, 0), (1, 1))
    with pytest.raises(ValueError):
        torus_clifford_element(1, (1, 1), (1,))


def test_z_minus_via_torus_bridge_n4():
    t = torus_clifford_element(-1, (1, 1, 1, 1), (-1, -1, -1, -1))
    assert coords_of(t) == z_eps(4, -1)
    assert coords_of(t).s == (-ONE, -ONE, -ONE, -ONE, -ONE)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_coords_roundtrip(n):
    rng = random.Random(12)
    for _ in range(6):
        s = rand_coords(n, rng)
        assert coords_of(torus_point(s)) == s


def test_coords_of_products_and_norm():
    rng = random.Random(13)
    n = 3
    for _ in range(10):
        s1 = rand_coords(n, rng)
        s2 = rand_coords(n, rng)
        t1, t2 = torus_point(s1), torus_point(s2)
        assert coords_of(t1 * t2) == s1 * s2
        assert t1.spinor_norm() == s1.spinor_norm()
    assert coords_of(torus_point(rand_coords(4, rng))) is not None


def test_coords_of_rejects_non_torus():
    sp = even_space(3)
    v = GPinElement(CliffordElement.generator(sp, 1) + CliffordElement.generator(sp, 4))
    with pytest.raises(ValueError):
        coords_of(v)
    rng = random.Random(14)
    g = random_gspin(sp, rng)
    if g.pr_circ().is_diagonal():  # pragma: no cover - vanishingly unlikely
        pytest.skip("random element happened to be torus")
    with pytest.raises(ValueError):
        coords_of(g)


def test_theta_bridge_matches_coordinates():
    rng = random.Random(15)
    for n in (3, 4):
        for _ in range(8):
            s = rand_coords(n, rng)
            t = torus_point(s)
            assert coords_of(theta(t)) == theta_on_coords(s)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("eps", [1, -1])
def test_half_spin_diagonal_matches_spin_weights(n, eps):
    rng = random.Random(16)
    for _ in range(4):
        s = rand_coords(n, rng)
        t = torus_point(s)
        m = half_spin_matrix(t, eps).mat
        assert m.is_diagonal()
        diag = Counter(m[i, i] for i in range(2 ** (n - 1)))
        expected = Counter(w.evaluate(s) for w in spin_weights(n, eps))
        assert diag == expected


def test_kernel_elements_from_center_act_trivially():
    n = 3
    eye = Mat.identity(4)
    for eps in (1, -1):
        z = torus_point(z_eps(n, eps))
        assert half_spin_matrix(z, eps).mat == eye
        assert half_spin_matrix(z, -eps).mat == eye * GaussRat(-1)
    for p in center("spin", n).torsion():
        t = torus_point(p)
        for eps in (1, -1):
            trivial = half_spin_matrix(t, eps).mat == eye
            assert trivial == (p == TorusCoordinates.identity(n) or p == z_eps(n, eps))
