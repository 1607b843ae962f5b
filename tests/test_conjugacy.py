"""Tests for fingerprints, conjugacy verdicts, and the unipotent/orbit tools."""

import random
from fractions import Fraction

import pytest

from gspin import conjugacy
from gspin.clifford import (
    CliffordElement,
    GPinElement,
    even_space,
    odd_space,
    random_gpin,
    random_gspin,
    theta,
    theta_element,
)
from gspin.conjugacy import (
    Fingerprint,
    fingerprint,
    is_conjugate_gpin,
    is_conjugate_gspin,
    is_outer_conjugate,
    is_regular_unipotent_so,
    principal_nilpotent,
    spin7_orbit_discriminator,
    spin_minus_irreducibility_weight_check,
)
from gspin.exact import GaussRat, Mat, Poly, charpoly, exp_nilpotent, jordan_partition
from gspin.rootdata import (
    TorusCoordinates,
    parity_subsets,
    torus_point,
    weyl_act_spinor,
    weyl_group,
    z_eps,
)

ONE = GaussRat(1)


def linear(root):
    return Poly((-root, ONE))


def prod_linear(roots):
    acc = Poly((ONE,))
    for r in roots:
        acc = acc * linear(r)
    return acc


def rand_point(n, rng):
    pool = [GaussRat(1), GaussRat(-1), GaussRat(2), GaussRat(3), GaussRat(Fraction(1, 2))]
    return TorusCoordinates([rng.choice(pool) for _ in range(n + 1)])


def rand_weyl(n, rng):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n - 1)]
    prod = 1
    for x in signs:
        prod *= x
    from gspin.rootdata import WeylElement

    return WeylElement(tuple(perm), tuple(signs) + (prod,))


# ---------------------------------------------------------------------------
# fingerprint structure


def test_fingerprint_identity_n3():
    g = torus_point(TorusCoordinates.identity(3))
    fp = fingerprint(g)
    assert fp.norm == ONE
    assert fp.cp_std == prod_linear([ONE] * 6)
    assert fp.cp_spin_plus == prod_linear([ONE] * 4)
    assert fp.cp_spin_minus == prod_linear([ONE] * 4)
    assert fp.is_even
    assert fp.full_spin_poly() == prod_linear([ONE] * 8)


def test_fingerprint_z_plus_n4():
    fp = fingerprint(torus_point(z_eps(4, 1)))
    assert fp.norm == ONE
    assert fp.cp_spin_plus == prod_linear([ONE] * 8)
    assert fp.cp_spin_minus == prod_linear([-ONE] * 8)
    assert fp.cp_std == prod_linear([-ONE] * 8)


@pytest.mark.parametrize("n", [3, 4])
def test_fingerprint_torus_formula(n):
    rng = random.Random(20)
    for _ in range(5):
        s = rand_point(n, rng)
        fp = fingerprint(torus_point(s))
        std_roots = []
        for i in range(1, n + 1):
            std_roots.extend([s[i], ONE / s[i]])
        assert fp.cp_std == prod_linear(std_roots)
        for eps in (1, -1):
            roots = []
            for u in parity_subsets(n, eps):
                val = s[0]
                for i in u:
                    val = val * s[i]
                roots.append(val)
            want = prod_linear(roots)
            got = fp.cp_spin_plus if eps == 1 else fp.cp_spin_minus
            assert got == want
        assert fp.norm == s.spinor_norm()


def test_fingerprint_odd_parity_theta_element():
    n = 3
    th = GPinElement(theta_element(even_space(n)))
    fp = fingerprint(th)
    assert not fp.is_even
    assert fp.cp_spin_full == prod_linear([ONE, ONE, ONE, ONE, -ONE, -ONE, -ONE, -ONE])
    assert fp.cp_std == prod_linear([ONE] + [-ONE] * 5)
    assert fp.norm == ONE
    assert fp.to_json()["cp_spin_full"] == fp.cp_spin_full.to_json()


def test_fingerprint_validation():
    with pytest.raises(TypeError):
        fingerprint(Mat.identity(4))
    with pytest.raises(ValueError):
        Fingerprint(ONE, Poly((ONE,)))
    with pytest.raises(ValueError):
        Fingerprint(ONE, Poly((ONE,)), cp_spin_plus=Poly((ONE,)),
                    cp_spin_minus=Poly((ONE,)), cp_spin_full=Poly((ONE,)))
    fp = fingerprint(torus_point(TorusCoordinates.identity(3)))
    with pytest.raises(AttributeError):
        fp.norm = GaussRat(2)


# ---------------------------------------------------------------------------
# conjugacy verdicts


@pytest.mark.parametrize("n", [3, 4])
def test_inner_conjugation_invariance(n):
    rng = random.Random(21)
    sp = even_space(n)
    for _ in range(5):
        g = torus_point(rand_point(n, rng))
        p = random_gspin(sp, rng, span=3)
        h = p * g * p.inverse()
        assert fingerprint(h) == fingerprint(g)
        assert is_conjugate_gspin(g, h)
        assert is_conjugate_gpin(g, h)


def test_odd_conjugation_swaps_halves():
    rng = random.Random(22)
    n = 3
    sp = even_space(n)
    for _ in range(5):
        g = torus_point(rand_point(n, rng))
        p = random_gpin(sp, rng, factors=3, span=3)
        assert p.parity == 1
        h = p * g * p.inverse()
        fg, fh = fingerprint(g), fingerprint(h)
        assert fh.cp_spin_plus == fg.cp_spin_minus
        assert fh.cp_spin_minus == fg.cp_spin_plus
        assert fh.cp_std == fg.cp_std
        assert is_conjugate_gpin(g, h)


@pytest.mark.parametrize("n", [3, 4])
def test_weyl_related_points_are_conjugate(n):
    rng = random.Random(23)
    for _ in range(6):
        s = rand_point(n, rng)
        w = rand_weyl(n, rng)
        assert is_conjugate_gspin(torus_point(s), torus_point(weyl_act_spinor(w, s)))


def test_theta_twist_of_generic_point():
    s = TorusCoordinates((1, 2, 3, 5))
    g = torus_point(s)
    tg = theta(g)
    assert not is_conjugate_gspin(g, tg)
    assert is_conjugate_gpin(g, tg)
    assert is_outer_conjugate(g, tg)
    assert not is_outer_conjugate(g, g)


def test_outer_conjugate_unwinds_theta():
    rng = random.Random(24)
    for _ in range(4):
        s = rand_point(3, rng)
        g = torus_point(s)
        assert is_outer_conjugate(g, theta(g))


def test_parity_mismatch_is_never_conjugate():
    n = 3
    g = torus_point(TorusCoordinates.identity(n))
    th = GPinElement(theta_element(even_space(n)))
    assert not is_conjugate_gpin(g, th)
    with pytest.raises(ValueError):
        is_conjugate_gspin(g, th)


def _verdict_pairs():
    """(label, g, h, field) at n = 4 around a generic torus point t: pairs
    whose fingerprints first differ in the norm, in cp_std (same norm,
    other standard eigenvalues) or in the half-spin polynomials (t against
    theta(t)), conjugate pairs, and pairs of mixed parity.  field names the
    first of norm and cp_std that differs, or is None."""
    half, one_i = Fraction(1, 2), GaussRat(1, 1)
    t = torus_point(TorusCoordinates((2, 3, half, -5, one_i)))
    sp = even_space(4)
    rng = random.Random(26)
    p = random_gspin(sp, rng, span=3)
    q = random_gpin(sp, rng, factors=3, span=3)
    r = GPinElement(CliffordElement.vector(sp, [1, 0, 0, 0, 1, 0, 0, 0]))  # norm 1
    return [
        ("norm", t, torus_point(TorusCoordinates((4, 3, half, -5, one_i))), "norm"),
        ("cp_std", t, torus_point(TorusCoordinates((4, Fraction(3, 4), half, -5, one_i))),
         "cp_std"),
        ("spin", t, theta(t), None),
        ("conjugate", t, p * t * p.inverse(), None),
        ("mixed-norm", q * t, t, "norm"),
        ("mixed-cp_std", t, r * t, "cp_std"),
        ("odd-conjugate", q * t, p * q * t * p.inverse(), None),
    ]


@pytest.mark.parametrize("pair", _verdict_pairs(), ids=lambda pair: pair[0])
def test_early_exit_verdicts_match_fingerprints(pair, monkeypatch):
    # The verdicts compare the norm, then cp_std, then the spin
    # polynomials, and stop at the first difference; they must agree with
    # equality of the full fingerprints, which compute every polynomial.
    label, g, h, field = pair
    fg, fh = fingerprint(g), fingerprint(h)
    assert next((k for k in ("norm", "cp_std") if getattr(fg, k) != getattr(fh, k)), None) == field
    calls = []
    monkeypatch.setattr(conjugacy, "charpoly", lambda m: calls.append(m) or charpoly(m))
    # the standard polynomials are computed only when the norms agree
    std = 0 if field == "norm" else 2
    if fg.is_even and fh.is_even:
        assert is_conjugate_gspin(g, h) == (fg == fh) == (label == "conjugate")
        # the "+" polynomials differ for theta(t), so "-" is never computed
        assert len(calls) == std + {"spin": 2, "conjugate": 4}.get(label, 0)
        calls.clear()
    same = (fg.norm, fg.cp_std, fg.full_spin_poly()) == (fh.norm, fh.cp_std, fh.full_spin_poly())
    assert is_conjugate_gpin(g, h) == same == (field is None)
    assert len(calls) == std + (2 if field is None else 0)


def test_verdict_input_checks_come_before_any_work(monkeypatch):
    # each element is checked, g first, with the messages of the full
    # fingerprint comparison, before any polynomial is computed
    t = torus_point(TorusCoordinates.identity(3))
    odd = GPinElement(CliffordElement.one(odd_space(3)))
    odd_parity = GPinElement(theta_element(even_space(3)))
    monkeypatch.setattr(conjugacy, "charpoly", None)
    cases = [
        (is_conjugate_gpin, Mat.identity(4), odd, TypeError, "expects a GPinElement"),
        (is_conjugate_gpin, t, Mat.identity(4), TypeError, "expects a GPinElement"),
        (is_conjugate_gpin, odd, 1, ValueError, "defined on the even-space group"),
        (is_conjugate_gpin, t, odd, ValueError, "defined on the even-space group"),
        (is_conjugate_gspin, odd, 1, ValueError, "expects even-space GPin elements"),
        (is_conjugate_gspin, t, odd_parity, ValueError, "expects even-parity elements"),
    ]
    for verdict, g, h, exc, message in cases:
        with pytest.raises(exc, match=message):
            verdict(g, h)


def test_fingerprint_agrees_with_weyl_orbits_on_grid():
    # every pair from a small rational grid: fingerprint equality must
    # match spinor-coordinate Weyl-orbit equality exactly
    n = 3
    pool = (GaussRat(1), GaussRat(-1), GaussRat(2))
    points = []
    for s0 in pool:
        for s1 in pool:
            for s2 in pool:
                for s3 in pool:
                    points.append(TorusCoordinates((s0, s1, s2, s3)))
    weyl = list(weyl_group(n))
    keys = []
    orbits = []
    for s in points:
        fp = fingerprint(torus_point(s))
        keys.append((fp.norm, fp.cp_std, fp.cp_spin_plus, fp.cp_spin_minus))
        orbits.append(frozenset(weyl_act_spinor(w, s).s for w in weyl))
    for i in range(len(points)):
        for j in range(i, len(points)):
            assert (keys[i] == keys[j]) == (orbits[i] == orbits[j])


# ---------------------------------------------------------------------------
# principal nilpotents and regular unipotents


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_principal_nilpotent_properties(n):
    e = principal_nilpotent(n)
    assert not (e ** (2 * n - 2)).is_zero()
    assert (e ** (2 * n - 1)).is_zero()
    gram = even_space(n).gram()
    assert (e.transpose() * gram + gram * e).is_zero()
    u = exp_nilpotent(e)
    assert jordan_partition(u) == [2 * n - 1, 1]
    assert is_regular_unipotent_so(u)


def test_principal_nilpotent_validation():
    with pytest.raises(ValueError):
        principal_nilpotent(2)


def test_identity_is_not_regular_unipotent():
    assert not is_regular_unipotent_so(Mat.identity(6))


def test_root_unipotent_is_not_regular():
    n = 3
    rows = [[GaussRat(int(i == j)) for j in range(2 * n)] for i in range(2 * n)]
    rows[0][1] = ONE
    rows[n + 1][n] = -ONE
    u = Mat(rows)
    assert jordan_partition(u) == [2, 2, 1, 1]
    assert not is_regular_unipotent_so(u)


def test_regular_unipotent_rejects_bad_input():
    with pytest.raises(TypeError):
        is_regular_unipotent_so("nope")
    with pytest.raises(ValueError):
        is_regular_unipotent_so(Mat.identity(4))
    with pytest.raises(ValueError):
        is_regular_unipotent_so(Mat.identity(7))
    shear = [[GaussRat(int(i == j)) for j in range(6)] for i in range(6)]
    shear[0][1] = ONE
    with pytest.raises(ValueError):
        is_regular_unipotent_so(Mat(shear))
    s = TorusCoordinates((1, 2, 3, 5))
    with pytest.raises(ValueError):
        is_regular_unipotent_so(torus_point(s).pr_circ())


# ---------------------------------------------------------------------------
# the n = 4 weight computations


def test_spin7_discriminator_frozen_cases():
    assert spin7_orbit_discriminator(6, 4, 2) is False
    assert spin7_orbit_discriminator(2, 0, 0) is True
    assert spin7_orbit_discriminator(0, 0, 0) is True
    assert spin7_orbit_discriminator(8, 4, 2) is False


def test_spin7_discriminator_validation():
    with pytest.raises(ValueError):
        spin7_orbit_discriminator(1, 0, 0)
    with pytest.raises(TypeError):
        spin7_orbit_discriminator(True, 1, 0)


def test_spin7_discriminator_zero_coordinate_merges_orbits():
    rng = random.Random(25)
    for _ in range(20):
        a = rng.randrange(-8, 9, 2)
        b = rng.randrange(-8, 9, 2)
        assert spin7_orbit_discriminator(a, b, 0) is True
        assert spin7_orbit_discriminator(a, 0, b) is True


def test_spin7_discriminator_signed_permutation_invariance():
    rng = random.Random(26)
    for _ in range(20):
        a = [rng.randint(-6, 6) for _ in range(3)]
        if sum(a) % 2:
            a[0] += 1
        base = spin7_orbit_discriminator(*a)
        rng.shuffle(a)
        assert spin7_orbit_discriminator(*a) is base
        assert spin7_orbit_discriminator(-a[0], a[1], a[2]) is base
        assert spin7_orbit_discriminator(a[0], -a[1], -a[2]) is base


def test_weight_check_generic():
    assert spin_minus_irreducibility_weight_check(4, (8, 4, 2)) == {
        "+": ("std+1",),
        "-": ("spin",),
    }
    assert spin_minus_irreducibility_weight_check(4, (2, 0, 0)) == {
        "+": ("std+1",),
        "-": ("spin",),
    }
    # a = (6,4,2) is degenerate for this check: the eight half-sums happen
    # to reproduce {+-6, +-4, +-2, 0, 0}, so both references match
    assert spin_minus_irreducibility_weight_check(4, (6, 4, 2)) == {
        "+": ("std+1", "spin"),
        "-": ("std+1", "spin"),
    }


def test_weight_check_zero_weight():
    out = spin_minus_irreducibility_weight_check(4, (0, 0, 0))
    assert out == {"+": ("std+1", "spin"), "-": ("std+1", "spin")}


def test_weight_check_validation():
    with pytest.raises(ValueError):
        spin_minus_irreducibility_weight_check(3, (0, 0, 0))
    with pytest.raises(ValueError):
        spin_minus_irreducibility_weight_check(4, (1, 0, 0))
    with pytest.raises(TypeError):
        spin_minus_irreducibility_weight_check(4, (True, 1, 0))


def test_weight_check_always_identifies_both_sides():
    rng = random.Random(27)
    for _ in range(30):
        a = [rng.randint(-7, 7) for _ in range(3)]
        if sum(a) % 2:
            a[2] += 1
        out = spin_minus_irreducibility_weight_check(4, tuple(a))
        assert "std+1" in out["+"]
        assert "spin" in out["-"]
