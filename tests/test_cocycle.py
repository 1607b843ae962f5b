"""Tests for cocycle enumeration, H^1 structure, and the extension criterion."""

import random
from types import ModuleType

import pytest

import gspin
from gspin import exact
from gspin.clifford import (
    CliffordElement,
    GPinElement,
    even_space,
    random_gspin,
    theta,
    theta_circ_matrix,
)
from gspin.cocycle import (
    InvolutionModule,
    check_extension_criterion,
    extension_classes,
    involution_module,
    norm_map_image,
    z1_b1_h1,
)
from gspin.exact import GaussRat, Mat, inverse
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


# ---------------------------------------------------------------------------
# the criterion against the conjugation route


def _conjugation_oracle(rho_gens, g):
    """The criterion as g * theta(g) = 1 and g * theta(val) * g^-1 = twisted,
    through an explicit inverse (the conjugation route).  For a GPin
    candidate the criterion itself tests theta(g) N(g) == beta(g) and
    compares Clifford elements; this route multiplies GPin elements."""
    if isinstance(g, GPinElement):
        th, one, inv = theta, GPinElement(CliffordElement.one(g.space)), GPinElement.inverse
    else:
        t = theta_circ_matrix(g.nrows // 2)
        th, one, inv = (lambda x: t * x * t), Mat.identity(g.nrows), inverse
    if g * th(g) != one:
        return False
    g_inv = inv(g)
    return all(g * th(val) * g_inv == twisted for val, twisted in rho_gens)


def _verdict(rho_gens, g):
    """The criterion's verdict, asserted equal to the conjugation route's."""
    got = check_extension_criterion(rho_gens, g)
    assert got is _conjugation_oracle(rho_gens, g)
    return got


def _gspin_cases(n, seed):
    """A matched table at a non-central candidate g0 = h * theta(h)^-1, with
    the candidates and tables the criterion must accept or reject."""
    rng = random.Random(seed)
    h = random_gspin(even_space(n), rng, span=2)
    g0 = h * theta(h).inverse()
    vals = [torus_point(TorusCoordinates((2, 3) + (1,) * (n - 1))),
            random_gspin(even_space(n), rng, span=2)]
    g0_inv = g0.inverse()
    rho = [(v, g0 * theta(v) * g0_inv) for v in vals]
    scale = torus_point(scalar_in_coords(n, GaussRat(2)))
    tampered = [(v, tw * scale) for v, tw in rho]
    swapped = [(rho[0][0], rho[1][1]), rho[1]]
    # sqrt(-1) g0 is in GPin and commutes with the same values, but
    # (i g0) theta(i g0) = -1
    minus = GPinElement(CliffordElement.scalar(even_space(n), I)) * g0
    assert (minus * theta(minus)).elt == CliffordElement.scalar(even_space(n), -1)
    return [
        (rho, g0, True),
        (rho, torus_point(zeta_coords(n)) * g0, True),
        (rho, torus_point(scalar_in_coords(n, GaussRat(-1))) * g0, True),
        (rho, torus_point(z_eps(n, 1)) * g0, False),
        (tampered, g0, False),
        (swapped, g0, False),
        ([], g0, True),
        (rho, minus, False),
        ([], minus, False),
    ]


@pytest.mark.parametrize("n,seed", [(3, 40), (3, 41), (4, 42)])
def test_criterion_matches_conjugation_route_on_gspin_tables(n, seed):
    for rho, g, want in _gspin_cases(n, seed):
        assert _verdict(rho, g) is want


def _so_cases(n, seed):
    rng = random.Random(seed)
    th = theta_circ_matrix(n)
    vals = [torus_point(TorusCoordinates((1, 2, 3) + (5,) * (n - 2))).pr_circ(),
            random_gspin(even_space(n), rng, span=2).pr_circ()]
    rho = [(v, th * v * th) for v in vals]
    eye = Mat.identity(2 * n)
    singular = Mat.diag([1] * (2 * n - 1) + [0])
    return [
        (rho, eye, True),
        (rho, eye * GaussRat(-1), True),
        (rho, eye * GaussRat(2), False),
        (rho, singular, False),
        ([(v, tw * GaussRat(2)) for v, tw in rho], eye, False),
        ([(rho[0][0], rho[1][1])], eye, False),
    ]


@pytest.mark.parametrize("n,seed", [(3, 43), (4, 44)])
def test_criterion_matches_conjugation_route_on_so_tables(n, seed):
    for rho, g, want in _so_cases(n, seed):
        assert _verdict(rho, g) is want


def test_criterion_matches_conjugation_route_on_the_trivial_module():
    n = 3
    g0 = torus_point(TorusCoordinates.identity(n))
    rho = [(g0, g0)]
    assert _verdict(rho, g0) is True
    for cand in extension_classes(rho, g0, module=involution_module("trivial", n)):
        assert _verdict(rho, cand) is True


def test_criterion_rejects_values_that_cannot_multiply_the_candidate():
    n = 3
    g0 = torus_point(TorusCoordinates.identity(n))
    other = torus_point(TorusCoordinates.identity(n + 1))
    with pytest.raises(ValueError):
        check_extension_criterion([(other, g0)], g0)
    with pytest.raises(ValueError):
        check_extension_criterion([(g0, other)], g0)
    eye = Mat.identity(2 * n)
    with pytest.raises(ValueError):
        check_extension_criterion([(Mat.identity(2 * n + 2), eye)], eye)
    with pytest.raises(ValueError):
        check_extension_criterion([(eye, Mat.identity(2 * n + 2))], eye)


def _count_calls(monkeypatch):
    """Count GPinElement.inverse, GPinElement.__init__ and exact.inverse,
    under every name a gspin module binds the last one to."""
    counts = {"inverse": 0, "__init__": 0, "exact.inverse": 0}

    def counted(key, f):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GPinElement, "inverse", counted("inverse", GPinElement.inverse))
    monkeypatch.setattr(GPinElement, "__init__", counted("__init__", GPinElement.__init__))
    wrapped = counted("exact.inverse", exact.inverse)
    for module in [gspin, *(m for m in vars(gspin).values() if isinstance(m, ModuleType))]:
        if getattr(module, "inverse", None) is exact.inverse:
            monkeypatch.setattr(module, "inverse", wrapped)
    return counts


def test_criterion_builds_no_inverse_and_checks_no_membership(monkeypatch):
    gspin_cases = _gspin_cases(3, 45) + _gspin_cases(4, 46)
    so_cases = _so_cases(3, 47)
    rho_g, g0, _ = gspin_cases[0]
    rho_m, eye, _ = so_cases[0]
    reps = z1_b1_h1(involution_module("gspin", 3)).h1_reps
    twists = [torus_point(z) for z in reps]
    counts = _count_calls(monkeypatch)
    for rho, g, want in gspin_cases + so_cases:
        assert check_extension_criterion(rho, g) is want
    assert len(extension_classes(rho_m, eye)) == 2
    assert counts == {"inverse": 0, "__init__": 0, "exact.inverse": 0}
    # on GPin tables the only constructions are the central twists that
    # torus_point builds from the H^1 representatives
    assert extension_classes(rho_g, g0) == [z * g0 for z in twists]
    built = counts["__init__"]
    counts["__init__"] = 0
    for z in reps:
        torus_point(z)
    assert counts == {"inverse": 0, "__init__": built, "exact.inverse": 0}
