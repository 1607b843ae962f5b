"""Tests for cocycle enumeration, H^1 structure, and the extension criterion."""

import random

import pytest

from gspin.clifford import GPinElement, even_space, random_gspin, theta, theta_circ_matrix
from gspin.cocycle import (
    InvolutionModule,
    check_extension_criterion,
    extension_classes,
    involution_module,
    norm_map_image,
    z1_b1_h1,
)
from gspin.exact import GaussRat, Mat
from gspin.rootdata import (
    TorusCoordinates,
    scalar_in_coords,
    theta_on_coords,
    torus_point,
    z_eps,
)

I = GaussRat(0, 1)
ONE = GaussRat(1)


def zeta_coords(n):
    return TorusCoordinates((I,) + (GaussRat(-1),) * n)


# ---------------------------------------------------------------------------
# modules and H^1


def test_involution_module_gspin():
    mod = involution_module("gspin", 3)
    assert len(mod.elements) == 8
    assert mod.tag == "gspin"
    assert mod.identity == TorusCoordinates.identity(3)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_h1_gspin(n):
    res = z1_b1_h1(involution_module("gspin", n))
    z1 = set(res.z1)
    assert z1 == {
        TorusCoordinates.identity(n),
        scalar_in_coords(n, GaussRat(-1)),
        zeta_coords(n),
        TorusCoordinates((-I,) + (GaussRat(-1),) * n),
    }
    assert set(res.b1) == {
        TorusCoordinates.identity(n),
        scalar_in_coords(n, GaussRat(-1)),
    }
    assert res.h1_structure == "Z/2"
    assert res.h1_reps[0] == TorusCoordinates.identity(n)
    assert res.h1_reps[1] == zeta_coords(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_h1_so(n):
    res = z1_b1_h1(involution_module("so", n))
    minus_i = TorusCoordinates((ONE,) + (GaussRat(-1),) * n)
    assert set(res.z1) == {TorusCoordinates.identity(n), minus_i}
    assert res.b1 == (TorusCoordinates.identity(n),)
    assert res.h1_structure == "Z/2"
    assert res.h1_reps[1] == minus_i


@pytest.mark.parametrize("n", [4, 6])
def test_h1_spin_even_is_trivial(n):
    res = z1_b1_h1(involution_module("spin", n))
    expected = {TorusCoordinates.identity(n), scalar_in_coords(n, GaussRat(-1))}
    assert set(res.z1) == expected
    assert set(res.b1) == expected
    assert res.h1_structure == "1"
    assert len(res.h1_reps) == 1


@pytest.mark.parametrize("n", [3, 5])
def test_h1_spin_odd(n):
    res = z1_b1_h1(involution_module("spin", n))
    assert len(res.z1) == 4
    assert len(res.b1) == 2
    assert res.h1_structure == "Z/2"
    assert res.h1_reps[1] == zeta_coords(n)


def test_h1_gso():
    res = z1_b1_h1(involution_module("gso", 3))
    assert len(res.z1) == 2
    assert res.b1 == (TorusCoordinates.identity(3),)
    assert res.h1_structure == "Z/2"


def test_h1_trivial_module():
    res = z1_b1_h1(involution_module("trivial", 3))
    assert len(res.z1) == 1
    assert len(res.b1) == 1
    assert res.h1_structure == "1"
    assert res.h1_reps[0] == TorusCoordinates.identity(3)


@pytest.mark.parametrize("tag", ["gspin", "spin", "so", "gso"])
@pytest.mark.parametrize("n", [3, 4])
def test_h1_counting_invariants(tag, n):
    mod = involution_module(tag, n)
    res = z1_b1_h1(mod)
    z1 = set(res.z1)
    b1 = set(res.b1)
    assert b1 <= z1
    assert len(z1) == len(res.h1_reps) * len(b1)
    for z in res.z1:
        assert z * mod.action(z) == mod.identity


def test_h1_result_json_shape():
    out = z1_b1_h1(involution_module("so", 3)).to_json()
    assert set(out) == {"z1", "b1", "h1"}
    assert out["h1"]["structure"] == "Z/2"
    assert len(out["h1"]["representatives"]) == 2


def test_involution_module_validation():
    ident = TorusCoordinates.identity(3)
    minus_i = TorusCoordinates((ONE, -ONE, -ONE, -ONE))
    with pytest.raises(ValueError):
        InvolutionModule((), theta_on_coords)
    with pytest.raises(ValueError):
        InvolutionModule((minus_i,), lambda z: z)
    swap = {ident: minus_i, minus_i: ident}
    with pytest.raises(ValueError):
        InvolutionModule((ident, minus_i), lambda z: swap[z])
    with pytest.raises(ValueError):
        InvolutionModule((ident, zeta_coords(3)), lambda z: z)
    square = lambda z: z * z
    with pytest.raises(ValueError):
        InvolutionModule(tuple(involution_module("gspin", 3).elements), square)


def test_norm_map_image():
    gspin_img = norm_map_image(involution_module("gspin", 3))
    assert set(gspin_img) == {
        TorusCoordinates.identity(3),
        scalar_in_coords(3, GaussRat(-1)),
    }
    so_img = norm_map_image(involution_module("so", 4))
    assert so_img == [TorusCoordinates.identity(4)]


# ---------------------------------------------------------------------------
# extension criterion


def make_gspin_table(n, rng, g0):
    vals = [
        torus_point(TorusCoordinates((2, 3, 1, 1) if n == 3 else (2,) + (1,) * n)),
        torus_point(TorusCoordinates((1, 2) + (1,) * (n - 1))),
        random_gspin(even_space(n), rng, span=2),
    ]
    g0_inv = g0.inverse()
    return [(v, g0 * theta(v) * g0_inv) for v in vals]


def test_criterion_identity_data():
    n = 3
    g0 = torus_point(TorusCoordinates.identity(n))
    rho = [(g0, g0), (g0, g0)]
    assert check_extension_criterion(rho, g0)


def test_criterion_cocycle_twist_passes():
    rng = random.Random(31)
    n = 3
    g0 = torus_point(TorusCoordinates.identity(n))
    rho = make_gspin_table(n, rng, g0)
    assert check_extension_criterion(rho, g0)
    assert check_extension_criterion(rho, torus_point(zeta_coords(n)) * g0)
    assert check_extension_criterion(rho, torus_point(scalar_in_coords(n, GaussRat(-1))) * g0)


def test_criterion_non_cocycle_twist_fails():
    rng = random.Random(32)
    n = 3
    g0 = torus_point(TorusCoordinates.identity(n))
    rho = make_gspin_table(n, rng, g0)
    assert not check_extension_criterion(rho, torus_point(z_eps(n, 1)) * g0)


def test_criterion_coboundary_twist_passes():
    # coboundaries are theta(x)/x for *central* x; x = z_+ gives the
    # scalar -1, the nontrivial coboundary
    rng = random.Random(33)
    n = 3
    g0 = torus_point(TorusCoordinates.identity(n))
    rho = make_gspin_table(n, rng, g0)
    x = torus_point(z_eps(n, 1))
    cob = theta(x) * x.inverse()
    assert cob == torus_point(scalar_in_coords(n, GaussRat(-1)))
    assert check_extension_criterion(rho, cob * g0)


def test_criterion_detects_wrong_table():
    rng = random.Random(34)
    n = 3
    g0 = torus_point(TorusCoordinates.identity(n))
    rho = make_gspin_table(n, rng, g0)
    bad = list(rho)
    off = torus_point(scalar_in_coords(n, GaussRat(2)))
    bad[0] = (bad[0][0], bad[0][1] * off)
    assert not check_extension_criterion(bad, g0)


def test_criterion_noncentral_candidate_fails_on_noncommuting_value():
    rng = random.Random(35)
    n = 3
    g0 = torus_point(TorusCoordinates.identity(n))
    rho = make_gspin_table(n, rng, g0)
    # passes g*theta(g) = 1 but is not central, so the random generator
    # value breaks the conjugation relation
    u = torus_point(TorusCoordinates((2, 1, 1, GaussRat(1) / 4)))
    assert u * theta(u) == g0
    assert not check_extension_criterion(rho, u)


def test_criterion_type_checking():
    g0 = torus_point(TorusCoordinates.identity(3))
    with pytest.raises(TypeError):
        check_extension_criterion([], "nope")
    with pytest.raises(TypeError):
        check_extension_criterion([(g0, Mat.identity(6))], g0)
    with pytest.raises(TypeError):
        check_extension_criterion([(g0, g0)], Mat.identity(6))


def test_extension_classes_gspin():
    rng = random.Random(36)
    n = 3
    g0 = torus_point(TorusCoordinates.identity(n))
    rho = make_gspin_table(n, rng, g0)
    classes = extension_classes(rho, g0)
    assert len(classes) == 2
    assert classes[0] == g0
    assert classes[1] == torus_point(zeta_coords(n))
    assert classes[0] != classes[1]


def test_extension_classes_so_matrices():
    rng = random.Random(37)
    n = 3
    th = theta_circ_matrix(n)
    vals = [
        torus_point(TorusCoordinates((1, 2, 3, 5))).pr_circ(),
        random_gspin(even_space(n), rng, span=2).pr_circ(),
    ]
    rho = [(v, th * v * th) for v in vals]
    eye = Mat.identity(2 * n)
    assert check_extension_criterion(rho, eye)
    classes = extension_classes(rho, eye)
    assert len(classes) == 2
    assert classes[0] == eye
    assert classes[1] == eye * GaussRat(-1)


def test_extension_classes_requires_passing_candidate():
    rng = random.Random(38)
    n = 3
    g0 = torus_point(TorusCoordinates.identity(n))
    rho = make_gspin_table(n, rng, g0)
    with pytest.raises(ValueError):
        extension_classes(rho, torus_point(TorusCoordinates((2, 1, 1, 1))))


def test_extension_classes_trivial_module():
    n = 3
    g0 = torus_point(TorusCoordinates.identity(n))
    rho = [(g0, g0)]
    classes = extension_classes(rho, g0, module=involution_module("trivial", n))
    assert classes == [g0]
