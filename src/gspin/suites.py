"""The keyed identity suites that ``gspin verify`` runs.

Each suite takes ``(n, trials, rng, chk)``, draws its random inputs from
``rng`` and records every exact check through ``chk.ok``; a failed check
raises ``SuiteFailure`` carrying the serialized inputs.  A suite is
registered where it is defined by ``@_suite(key, description)``, and
``SUITES`` keeps definition order, which is the order of ``verify --list``
and of the report's ``"suites"`` list.
"""

import math
from collections import Counter
from fractions import Fraction

from .clifford import (
    CliffordElement,
    GPinElement,
    beta,
    even_space,
    i_std,
    odd_space,
    random_gpin,
    random_gspin,
    random_vector,
    std_split,
    theta,
    theta_circ_matrix,
    theta_element,
)
from .cocycle import (
    check_extension_criterion,
    extension_classes,
    involution_module,
    norm_map_image,
    z1_b1_h1,
)
from .conjugacy import (
    fingerprint,
    is_conjugate_gpin,
    is_conjugate_gspin,
    is_outer_conjugate,
    is_regular_unipotent_so,
    principal_nilpotent,
    spin7_orbit_discriminator,
    spin_minus_irreducibility_weight_check,
)
from .exact import (
    GaussRat,
    Mat,
    Poly,
    SQRT_M1,
    charpoly,
    exp_nilpotent,
    inverse,
    jordan_partition,
    rank,
)
from .hodge import (
    b_shift,
    ht_multiset,
    ht_via_spin_weights,
    is_spin_regular,
    is_std_regular,
)
from .rootdata import (
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
    torus_point,
    weyl_act,
    weyl_act_spinor,
    weyl_group,
    z_eps,
)
from .spinrep import (
    _action_matrix,
    act,
    half_spin_matrix,
    pairing_gram,
    psi_matrix,
    spin_basis,
    spin_matrix,
    theta_intertwiner,
    vacuum,
)

_ONE = GaussRat(1)
_ZERO = GaussRat(0)


class SuiteFailure(Exception):
    """A suite check failed; carries a replayable counterexample payload."""

    def __init__(self, payload):
        super().__init__(payload.get("check", "suite check failed"))
        self.payload = payload


def _ser(x):
    """Best-effort JSON form of a failing input, for counterexample payloads."""
    if isinstance(x, GPinElement):
        return x.elt.to_json()
    if isinstance(x, CliffordElement):
        return x.to_json()
    if isinstance(x, (Mat, Poly)):
        return x.to_json()
    if isinstance(x, TorusCoordinates):
        return x.to_json()
    if isinstance(x, WeightVector):
        return list(x.coords)
    if isinstance(x, WeylElement):
        return {"perm": list(x.perm), "signs": list(x.signs)}
    if isinstance(x, (GaussRat, Fraction)):
        return str(x)
    if isinstance(x, Counter):
        return sorted([str(k), v] for k, v in x.items())
    if isinstance(x, dict):
        return {str(k): _ser(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_ser(v) for v in x]
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    return str(x)


class _Checker:
    """Counts checks and raises SuiteFailure with the offending inputs."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def ok(self, cond, label, **inputs):
        self.count += 1
        if not cond:
            raise SuiteFailure(
                {"check": label, "inputs": {k: _ser(v) for k, v in inputs.items()}}
            )


# ---------------------------------------------------------------------------
# randomness helpers (numerators/denominators stay small so exact arithmetic
# stays fast while still hitting generic strata)

def _nonzero_int(rng, bound=9):
    x = 0
    while x == 0:
        x = rng.randint(-bound, bound)
    return x


def _rand_scalar(rng):
    return GaussRat(Fraction(_nonzero_int(rng), rng.randint(1, 9)))


def _rand_coords(n, rng):
    return TorusCoordinates(tuple(_rand_scalar(rng) for _ in range(n + 1)))


def _rand_weight(n, rng, dual):
    return WeightVector(tuple(rng.randint(-6, 6) for _ in range(n + 1)), dual)


def _rand_weyl(n, rng):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    signs = [1] * n
    for i in rng.sample(range(n), 2 * rng.randint(0, n // 2)):
        signs[i] = -1
    return WeylElement(tuple(perm), tuple(signs))


def _span(n):
    return 3 if n >= 5 else 4


def _rand_gspin(n, rng):
    return random_gspin(even_space(n), rng, span=_span(n))


def _rand_gspin_odd(n, rng):
    return random_gspin(odd_space(n), rng, span=_span(n))


def _rand_odd_parity(n, rng):
    return random_gpin(even_space(n), rng, factors=3, span=_span(n))


def _heavy(n, trials, cap=6, cap_high=3):
    """Trial budget for suites that build random group elements."""
    if n <= 4:
        return max(1, min(trials, cap))
    if n == 5:
        return max(1, min(trials, cap_high))
    return max(1, min(trials, 2))


def _rand_dominant(n, rng):
    body = sorted((rng.randint(0, 8) for _ in range(n - 1)), reverse=True)
    last = rng.randint(-body[-1], body[-1])
    return (rng.randint(-6, 6), *body, last)


# ---------------------------------------------------------------------------
# small matrix utilities

def _det(m):
    d = charpoly(m)(_ZERO)
    return d if m.nrows % 2 == 0 else -d


def _twisted(g):
    """Matrix of twisted conjugation v -> x v beta(x), computed from the element."""
    x, bx = g.elt, beta(g.elt)
    return Mat.from_cols([(x * CliffordElement.generator(g.space, j) * bx).as_vector()
                          for j in range(1, g.space.dim + 1)])


def _sim_factor(m, gram):
    """c with m^T gram m = c * gram, or None if no such scalar exists."""
    lhs = m.transpose() * gram * m
    for i, row in enumerate(gram.rows):
        for j, g in enumerate(row):
            if g:
                c = lhs[i, j] / g
                return c if lhs == gram * c else None
    return None


# ---------------------------------------------------------------------------
# verification suites, in registry order

#: suite registry: key -> (function, one-line description).
SUITES = {}


def _suite(key, description):
    """Register the decorated suite under ``key`` in ``SUITES``."""

    def register(fn):
        SUITES[key] = (fn, description)
        return fn

    return register


@_suite("eq:StdQuadSpace", "gram tables of the split quadratic spaces and the vector square rule")
def _suite_quad_spaces(n, trials, rng, chk):
    sp = even_space(n)
    for j in range(1, 2 * n + 1):
        chk.ok(sp.q(j) == _ZERO, "hyperbolic basis is isotropic", j=j)
        for k in range(j, 2 * n + 1):
            want = _ONE if k - j == n else _ZERO
            chk.ok(sp.pair(j, k) == want, "pairing pattern", j=j, k=k)
    so = odd_space(n)
    for j in range(1, 2 * n):
        want_q = _ONE if j == 2 * n - 1 else _ZERO
        chk.ok(so.q(j) == want_q, "odd-space diagonal", j=j)
        for k in range(j + 1, 2 * n):
            want = _ONE if (k - j == n - 1 and k <= 2 * n - 2) else _ZERO
            chk.ok(so.pair(j, k) == want, "odd-space pairing pattern", j=j, k=k)
    chk.ok(so.pair(2 * n - 1, 2 * n - 1) == GaussRat(2), "anisotropic self-pairing")
    for _ in range(min(trials, 10)):
        for space in (sp, so):
            v = random_vector(space, rng, anisotropic=False, span=6, nnz=space.dim)
            w = random_vector(space, rng, anisotropic=False, span=6, nnz=space.dim)
            vc, wc = v.as_vector(), w.as_vector()
            sums = [a + b for a, b in zip(vc, wc)]
            chk.ok(
                space.quad(sums) == space.quad(vc) + space.quad(wc) + space.bilinear(vc, wc),
                "polarization identity",
                v=v,
                w=w,
            )
            chk.ok(
                v * v == CliffordElement.scalar(space, space.quad(vc)),
                "vectors square to their quadratic value",
                v=v,
            )


@_suite("eq:betaInvolution", "anticommutator pairing rule and the order-reversing involution")
def _suite_beta(n, trials, rng, chk):
    sp = even_space(n)
    for _ in range(min(trials, 12)):
        v = random_vector(sp, rng, anisotropic=False, span=6, nnz=sp.dim)
        w = random_vector(sp, rng, anisotropic=False, span=6, nnz=sp.dim)
        ip = sp.bilinear(v.as_vector(), w.as_vector())
        chk.ok(
            v * w + w * v == CliffordElement.scalar(sp, ip),
            "anticommutator equals the pairing",
            v=v,
            w=w,
        )
        chk.ok(beta(v) == v, "vectors are fixed", v=v)
        x = v * w * random_vector(sp, rng, anisotropic=False, span=4)
        y = v + w * random_vector(sp, rng, anisotropic=False, span=4)
        chk.ok(beta(x * y) == beta(y) * beta(x), "products reverse", x=x, y=y)
        chk.ok(beta(beta(x)) == x, "involution", x=x)


@_suite(
    "lem:SurjectionOntoGSO",
    "conjugation, twisted conjugation, and norm are compatible homomorphisms",
)
def _suite_projections(n, trials, rng, chk):
    sp = even_space(n)
    gram = sp.gram()
    ident = Mat.identity(2 * n)
    c = _rand_scalar(rng)
    scalar = GPinElement(CliffordElement.scalar(sp, c))
    chk.ok(scalar.pr_circ() == ident, "scalars act trivially on vectors", c=c)
    chk.ok(scalar.spinor_norm() == c * c, "scalar norm is the square", c=c)
    for sign in (_ONE, -_ONE):
        x = GPinElement(CliffordElement.scalar(sp, sign))
        chk.ok(
            x.pr_circ() == ident and x.spinor_norm() == _ONE,
            "joint kernel of projection and norm is the sign",
            sign=sign,
        )
    for _ in range(_heavy(n, trials)):
        g, h = _rand_gspin(n, rng), _rand_gspin(n, rng)
        # fully checked: g * h would compose its data from those of g and h
        gh = GPinElement(g.elt * h.elt)
        chk.ok(gh.pr_circ() == g.pr_circ() * h.pr_circ(), "conjugation is a homomorphism", g=g, h=h)
        tw_g, tw_h, tw_gh = (x.pr_circ() * x.spinor_norm() for x in (g, h, gh))
        chk.ok(tw_gh == tw_g * tw_h, "twisted conjugation is a homomorphism", g=g, h=h)
        chk.ok(
            gh.spinor_norm() == g.spinor_norm() * h.spinor_norm(),
            "norm is a homomorphism",
            g=g,
            h=h,
        )
        chk.ok(_twisted(g) == tw_g, "twisted factors through plain", g=g)
        m = g.pr_circ()
        chk.ok(m.transpose() * gram * m == gram, "image preserves the form", g=g)
        chk.ok(_det(m) == _ONE, "image has determinant one", g=g)
        chk.ok(
            _sim_factor(tw_g, gram) == g.spinor_norm() ** 2,
            "similitude factor is the squared norm",
            g=g,
        )


@_suite("lem:CliffordMapping", "orthogonal decomposition embeds as an isometric algebra map")
def _suite_split_mapping(n, trials, rng, chk):
    split = std_split(n)
    so = split.source1
    line_gen = CliffordElement.generator(split.source2, 1)
    u = split.embed2(line_gen)
    for _ in range(min(trials, 6)):
        x = random_vector(so, rng, anisotropic=False, span=5, nnz=so.dim)
        y = random_vector(so, rng, anisotropic=False, span=5, nnz=so.dim)
        ex, ey = split.embed1(x), split.embed1(y)
        chk.ok(
            split.target.bilinear(ex.as_vector(), ey.as_vector())
            == so.bilinear(x.as_vector(), y.as_vector()),
            "factor map is an isometry",
            x=x,
            y=y,
        )
        chk.ok(
            split.target.bilinear(ex.as_vector(), u.as_vector()) == _ZERO,
            "factors are orthogonal",
            x=x,
        )
        chk.ok(ex * u == -(u * ex), "orthogonal vectors anticommute", x=x)
    chk.ok(u * u == CliffordElement.scalar(split.target, -_ONE), "line squares to -1")
    for _ in range(_heavy(n, trials, cap=4, cap_high=2)):
        g, h = _rand_gspin_odd(n, rng), _rand_gspin_odd(n, rng)
        chk.ok(
            split.embed1(g.elt * h.elt) == split.embed1(g.elt) * split.embed1(h.elt),
            "algebra map",
            g=g,
            h=h,
        )
        chk.ok(i_std(g * h) == i_std(g) * i_std(h), "group morphism", g=g, h=h)


@_suite("lem:CliffordMapping2", "vector action of the embedded group is block diagonal")
def _suite_block_embedding(n, trials, rng, chk):
    split = std_split(n)
    p = split.change_of_basis()
    p_inv = inverse(p)
    d = 2 * n
    for _ in range(_heavy(n, trials, cap=4, cap_high=2)):
        g = _rand_gspin_odd(n, rng)
        m = p_inv * i_std(g).pr_circ() * p
        chk.ok(
            m.block(range(d - 1), range(d - 1)) == g.pr_circ(),
            "upper block is the odd-space action",
            g=g,
        )
        chk.ok(m[d - 1, d - 1] == _ONE, "complement line is fixed", g=g)
        chk.ok(
            m.block(range(d - 1), [d - 1]).is_zero()
            and m.block([d - 1], range(d - 1)).is_zero(),
            "off-diagonal blocks vanish",
            g=g,
        )


@_suite("eq:std_emb_def", "generator images of the odd-space embedding")
def _suite_std_embedding(n, trials, rng, chk):
    split = std_split(n)
    sp, so = even_space(n), odd_space(n)
    gen = CliffordElement.generator
    for i in range(1, n):
        chk.ok(split.embed1(gen(so, i)) == gen(sp, i), "low hyperbolic images", i=i)
        chk.ok(
            split.embed1(gen(so, n - 1 + i)) == gen(sp, n + i),
            "high hyperbolic images",
            i=i,
        )
    chk.ok(
        split.embed1(gen(so, 2 * n - 1))
        == CliffordElement(sp, {(n,): _ONE, (2 * n,): _ONE}),
        "anisotropic generator image",
    )
    chk.ok(
        split.images2[0] == CliffordElement(sp, {(n,): _ONE, (2 * n,): -_ONE}),
        "complement line image",
    )
    chk.ok(split.source2.q(1) == -_ONE, "complement line has Q = -1")
    g, h = _rand_gspin_odd(n, rng), _rand_gspin_odd(n, rng)
    chk.ok((i_std(g) == i_std(h)) == (g == h), "injective on samples", g=g, h=h)


@_suite("eq:Elementw", "the distinguished odd element squares to one with norm one")
def _suite_theta_element(n, trials, rng, chk):
    sp = even_space(n)
    th = GPinElement(theta_element(sp))
    chk.ok(th * th == GPinElement(CliffordElement.one(sp)), "squares to one")
    chk.ok(th.spinor_norm() == _ONE, "norm one")
    chk.ok(th.parity == 1, "odd parity")
    chk.ok(th.pr_circ() == theta_circ_matrix(n), "vector-side matrix")


@_suite("eq:Elementw_spin", "spin matrix of the odd element is the block antidiagonal intertwiner")
def _suite_theta_spin_matrix(n, trials, rng, chk):
    half = 2 ** (n - 1)
    th = GPinElement(theta_element(even_space(n)))
    s = spin_matrix(th).mat
    chk.ok(s * s == Mat.identity(2 ** n), "squares to the identity")
    top, bot = range(half), range(half, 2 * half)
    chk.ok(
        s.block(top, top).is_zero() and s.block(bot, bot).is_zero(),
        "block antidiagonal",
    )
    t = theta_intertwiner(n)
    chk.ok(t == Mat.identity(half) * SQRT_M1, "intertwiner is sqrt(-1) times identity")
    chk.ok(s.block(bot, top) == t, "lower block is the intertwiner")
    chk.ok(s.block(top, bot) * t == Mat.identity(half), "blocks are mutually inverse")


@_suite("lem:conjugation-by-w", "odd element centralizes the embedded group and induces the twist")
def _suite_theta_centralizes(n, trials, rng, chk):
    sp = even_space(n)
    th = GPinElement(theta_element(sp))
    th_vec = theta_circ_matrix(n)
    for _ in range(_heavy(n, trials)):
        g = _rand_gspin_odd(n, rng)
        ig = i_std(g)
        chk.ok(th * ig * th.inverse() == ig, "embedded odd group is centralized", g=g)
    for _ in range(_heavy(n, trials, cap=4, cap_high=2)):
        x = _rand_gspin(n, rng)
        tx = theta(x)
        chk.ok(tx == th * x * th.inverse(), "twist is conjugation by the odd element", x=x)
        chk.ok(
            GPinElement(tx.elt).pr_circ() == th_vec * x.pr_circ() * th_vec,
            "descends to vectors",
            x=x,
        )
        chk.ok(theta(tx) == x, "involution", x=x)


@_suite(
    "lem:dualizing-spinor-norm-and-similitude",
    "norm is twist-invariant and dualizes to the similitude character",
)
def _suite_norm_similitude(n, trials, rng, chk):
    gram = even_space(n).gram()
    for _ in range(_heavy(n, trials)):
        g = _rand_gspin(n, rng)
        # fully checked: theta and inverse would carry the norm of g over
        chk.ok(
            GPinElement(theta(g).elt).spinor_norm() == g.spinor_norm(),
            "norm is twist-invariant",
            g=g,
        )
        chk.ok(
            GPinElement(g.inverse().elt).spinor_norm() * g.spinor_norm() == _ONE,
            "norm of the inverse",
            g=g,
        )
        chk.ok(
            _sim_factor(g.pr_circ() * g.spinor_norm(), gram) == g.spinor_norm() ** 2,
            "similitude dualizes to the squared norm",
            g=g,
        )
    for _ in range(min(trials, 8)):
        s = _rand_coords(n, rng)
        chk.ok(
            torus_point(s).spinor_norm() == s.spinor_norm(),
            "norm through coordinates",
            s=s,
        )


@_suite("eq:TGSpin-to-Gm", "norm of a torus point is s0^2 s1 ... sn")
def _suite_torus_norm(n, trials, rng, chk):
    for _ in range(min(trials, 16)):
        s = _rand_coords(n, rng)
        want = s[0] * s[0]
        for j in range(1, n + 1):
            want = want * s[j]
        chk.ok(torus_point(s).spinor_norm() == want, "norm formula on the torus", s=s)


@_suite("eq:ThetaActionTGSpin", "twist acts on torus coordinates by (s0 sn, s1, ..., 1/sn)")
def _suite_theta_torus(n, trials, rng, chk):
    for _ in range(min(trials, 8)):
        s = _rand_coords(n, rng)
        ts = theta_on_coords(s)
        expected = (s[0] * s[n],) + tuple(s[j] for j in range(1, n)) + (_ONE / s[n],)
        chk.ok(ts == TorusCoordinates(expected), "coordinate formula", s=s)
        chk.ok(theta_on_coords(ts) == s, "involution", s=s)
        chk.ok(ts.spinor_norm() == s.spinor_norm(), "spinor norm invariant", s=s)
        chk.ok(
            coords_of(theta(torus_point(s))) == ts,
            "matches conjugation in the algebra",
            s=s,
        )


@_suite(
    "lem:Elem_w",
    "vector-side involution: orthogonal, determinant -1, swaps the middle entries",
)
def _suite_elem_w(n, trials, rng, chk):
    th = theta_circ_matrix(n)
    sp = even_space(n)
    gram = sp.gram()
    chk.ok(th * th == Mat.identity(2 * n), "involution")
    chk.ok(th.transpose() * gram * th == gram, "preserves the form")
    chk.ok(_det(th) == -_ONE, "determinant -1")
    chk.ok(
        th == GPinElement(theta_element(sp)).pr_circ(),
        "is the vector action of the odd generator",
    )
    d = 2 * n
    for _ in range(min(trials, 8)):
        s = _rand_coords(n, rng)
        diag = torus_point(s).pr_circ()
        got = th * diag * th
        rows = [[_ZERO] * d for _ in range(d)]
        for j in range(d):
            src = j
            if j == n - 1:
                src = d - 1
            elif j == d - 1:
                src = n - 1
            rows[j][j] = diag[src, src]
        chk.ok(got == Mat(rows), "torus conjugation swaps the middle entries", s=s)


@_suite("lem:ThetaGSpin", "twist on the two weight lattices swaps the last two simple roots")
def _suite_theta_lattices(n, trials, rng, chk):
    simple = simple_roots(n)
    cosimple = simple_coroots(n)
    for name, family in (("roots", simple), ("coroots", cosimple)):
        chk.ok(
            theta_on_weights(family[-1]) == family[-2]
            and theta_on_weights(family[-2]) == family[-1],
            f"swaps the last two simple {name}",
        )
        chk.ok(
            all(theta_on_weights(a) == a for a in family[:-2]),
            f"fixes the other simple {name}",
        )
    chk.ok(theta_on_weights(mu_eps(n, 1)) == mu_eps(n, -1), "swaps the minuscule weights")
    s0, s1 = _rand_scalar(rng), GaussRat(rng.choice((1, -1)))
    chk.ok(
        theta_on_coords(TorusCoordinates((s0,) + (s1,) * n))
        == TorusCoordinates((s0 * s1,) + (s1,) * n),
        "center coordinate formula",
        s0=s0,
        s1=s1,
    )
    for _ in range(min(trials, 12)):
        for dual in (False, True):
            v = _rand_weight(n, rng, dual)
            chk.ok(theta_on_weights(theta_on_weights(v)) == v, "involution", v=v)
        a = _rand_weight(n, rng, False)
        b = _rand_weight(n, rng, True)
        chk.ok(
            pairing(theta_on_weights(a), theta_on_weights(b)) == pairing(a, b),
            "pairing preserved",
            a=a,
            b=b,
        )


@_suite("lem:GSORoots", "root and coroot systems with the expected D-type Cartan matrix")
def _suite_gso_roots(n, trials, rng, chk):
    rts = list(roots(n))
    crts = list(coroots(n))
    chk.ok(len(rts) == 2 * n * (n - 1), "root count")
    chk.ok(len(crts) == 2 * n * (n - 1), "coroot count")
    root_set = {r.coords for r in rts}
    chk.ok(len(root_set) == len(rts), "roots distinct")
    chk.ok(
        all(tuple(-c for c in r) in root_set for r in root_set),
        "closed under negation",
    )
    simple = simple_roots(n)
    cosimple = simple_coroots(n)
    chk.ok(all(s.coords in root_set for s in simple), "simple roots are roots")
    chk.ok(
        all(s.coords in {r.coords for r in crts} for s in cosimple),
        "simple coroots are coroots",
    )
    cartan = [[pairing(a, b) for a in simple] for b in cosimple]
    expected = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    for a, b in edges:
        expected[a - 1][b - 1] = expected[b - 1][a - 1] = -1
    chk.ok(cartan == expected, "Cartan matrix has the expected D-type shape", got=cartan)
    for _ in range(min(trials, 10)):
        w = _rand_weyl(n, rng)
        r = rng.choice(rts)
        chk.ok(weyl_act(w, r).coords in root_set, "Weyl group permutes the roots", w=w, r=r)


@_suite(
    "eq:WeylGroupAction",
    "Weyl group order, composition law, and contragredient compatibility",
)
def _suite_weyl_action(n, trials, rng, chk):
    t = TorusCoordinates((5, 2, 3) + (7,) * (n - 2))
    w = WeylElement(tuple(range(1, n + 1)), (-1, -1) + (1,) * (n - 2))
    expected = TorusCoordinates(
        (GaussRat(5), GaussRat(Fraction(5, 2)), GaussRat(Fraction(5, 3)))
        + (GaussRat(7),) * (n - 2)
    )
    chk.ok(weyl_act(w, t) == expected, "reflection formula on a frozen point")
    if n <= 4:
        group = list(weyl_group(n))
        chk.ok(len(group) == 2 ** (n - 1) * math.factorial(n), "group order")
        chk.ok(len(set(group)) == len(group), "elements distinct")
    for _ in range(min(trials, 10)):
        w1, w2 = _rand_weyl(n, rng), _rand_weyl(n, rng)
        s = _rand_coords(n, rng)
        chk.ok(
            weyl_act(w1 * w2, s) == weyl_act(w1, weyl_act(w2, s)),
            "action composes",
            w1=w1,
            w2=w2,
            s=s,
        )
        chk.ok(
            weyl_act_spinor(w1 * w2, s) == weyl_act_spinor(w1, weyl_act_spinor(w2, s)),
            "spinor action composes",
            w1=w1,
            w2=w2,
            s=s,
        )
        chk.ok(
            weyl_act_spinor(w1, s).spinor_norm() == s.spinor_norm(),
            "norm invariant",
            w1=w1,
            s=s,
        )
        chi = _rand_weight(n, rng, True)
        chk.ok(
            weyl_act(w1, chi).evaluate(s)
            == chi.evaluate(weyl_act_spinor(w1.inverse(), s)),
            "contragredient rule",
            w1=w1,
            chi=chi,
            s=s,
        )


@_suite("eq:Spin-eps-def", "sign-to-parity dictionary for subsets and minuscule weights")
def _suite_eps_dictionary(n, trials, rng, chk):
    for eps in (1, -1):
        mu = mu_eps(n, eps)
        want_last = 1 if eps == (-1) ** n else 0
        chk.ok(mu.coords == (1,) * n + (want_last,), "minuscule coordinates", eps=eps)
        subs = parity_subsets(n, eps)
        chk.ok(len(subs) == 2 ** (n - 1), "half of all subsets", eps=eps)
        chk.ok(all((-1) ** len(u) == eps for u in subs), "parity rule", eps=eps)
        masks = [sum(1 << (j - 1) for j in u) for u in subs]
        chk.ok(masks == sorted(masks), "colex order", eps=eps)
    both = set(parity_subsets(n, 1)) | set(parity_subsets(n, -1))
    chk.ok(len(both) == 2 ** n, "the two families partition all subsets")


@_suite("eq:spin-highest-weights", "half-spin diagonal on torus points equals the weight multiset")
def _suite_torus_weights(n, trials, rng, chk):
    for _ in range(min(trials, 8)):
        s = _rand_coords(n, rng)
        t = torus_point(s)
        for eps in (1, -1):
            m = half_spin_matrix(t, eps).mat
            chk.ok(m.is_diagonal(), "torus acts diagonally", s=s, eps=eps)
            diag = Counter(m[i, i] for i in range(m.nrows))
            via_weights = Counter(w.evaluate(s) for w in spin_weights(n, eps))
            via_subsets = Counter()
            for u in parity_subsets(n, eps):
                value = s[0]
                for i in u:
                    value = value * s[i]
                via_subsets[value] += 1
            chk.ok(
                diag == via_weights and diag == via_subsets,
                "diagonal equals the weight multiset",
                s=s,
                eps=eps,
            )


@_suite("def:HalfSpinDef", "even elements preserve the half blocks; odd elements swap them")
def _suite_half_spin_blocks(n, trials, rng, chk):
    half = 2 ** (n - 1)
    top, bot = range(half), range(half, 2 * half)
    plus, minus = (spin_basis(even_space(n), label) for label in ("+", "-"))
    for _ in range(_heavy(n, trials, cap=4, cap_high=2)):
        g = _rand_gspin(n, rng)
        s = spin_matrix(g).mat
        chk.ok(
            s.block(top, bot).is_zero() and s.block(bot, top).is_zero(),
            "even elements are block diagonal",
            g=g,
        )
        # The half-spin matrices are blocks of s; the reference acts on each half basis.
        chk.ok(half_spin_matrix(g, 1).mat == _action_matrix(g.elt, plus, plus), "plus block", g=g)
        chk.ok(
            half_spin_matrix(g, -1).mat == _action_matrix(g.elt, minus, minus), "minus block", g=g
        )
        chk.ok(half_spin_matrix(g, 1).mat.nrows == half, "half dimension", g=g)
    x = _rand_odd_parity(n, rng)
    s = spin_matrix(x).mat
    chk.ok(
        s.block(top, top).is_zero() and s.block(bot, bot).is_zero(),
        "odd elements are block antidiagonal",
        x=x,
    )
    try:
        half_spin_matrix(x, 1)
        chk.ok(False, "odd parity must be rejected", x=x)
    except ValueError:
        chk.ok(True, "odd parity rejected")


@_suite("lem:spin-kernel", "kernel of each half-spin over the center torsion is {1, z_eps}")
def _suite_spin_kernel(n, trials, rng, chk):
    torsion = center("gspin", n).torsion()
    chk.ok(len(torsion) == 8, "similitude center torsion count")
    ident = TorusCoordinates.identity(n)
    # One element per z, so both halves are blocks of its one spin matrix.
    points = {z: torus_point(z) for z in torsion}
    for eps in (1, -1):
        kernel = {ident, z_eps(n, eps)}
        for z in torsion:
            trivial = half_spin_matrix(points[z], eps).mat == Mat.identity(2 ** (n - 1))
            chk.ok(trivial == (z in kernel), "kernel is exactly {1, z_eps}", z=z, eps=eps)
    for z in torsion:
        trivial = spin_matrix(points[z]).mat == Mat.identity(2 ** n)
        chk.ok(trivial == (z == ident), "full spin is faithful on the center", z=z)


@_suite("eq:CentralChar", "central character closed form matches the half-spin action")
def _suite_central_char(n, trials, rng, chk):
    for _ in range(min(trials, 6)):
        a = _rand_scalar(rng)
        for b_int in (1, -1):
            b = GaussRat(b_int)
            t = torus_point(TorusCoordinates((a,) + (b,) * n))
            for eps in (1, -1):
                val = central_char(n, eps, a, b)
                want = a * b ** n if eps == (-1) ** n else a * b ** (n - 1)
                chk.ok(val == want, "closed form", a=a, b=b_int, eps=eps)
                chk.ok(
                    half_spin_matrix(t, eps).mat
                    == Mat.identity(2 ** (n - 1)) * val,
                    "acts by the scalar",
                    a=a,
                    b=b_int,
                    eps=eps,
                )
    for eps in (1, -1):
        ze = z_eps(n, eps)
        chk.ok(central_char(n, eps, ze[0], ze[1]) == _ONE, "kills its kernel element", eps=eps)


@_suite(
    "lem:spin-center2",
    "center of the norm-one group: Klein four (even n) or cyclic of order 4",
)
def _suite_spin_center(n, trials, rng, chk):
    c = center("spin", n)
    torsion = c.torsion()
    ident = TorusCoordinates.identity(n)
    chk.ok(len(torsion) == 4, "order four")
    if n % 2 == 0:
        chk.ok(c.structure == "Z/2 x Z/2", "Klein four group for even n")
        chk.ok(all(z * z == ident for z in torsion), "exponent two")
    else:
        chk.ok(c.structure == "Z/4", "cyclic of order four for odd n")
        zeta = c.generators[0]
        chk.ok(zeta.s == (SQRT_M1,) + (-_ONE,) * n, "generator coordinates")
        chk.ok(zeta ** 2 != ident and zeta ** 4 == ident, "generator has order four")
        chk.ok(zeta ** 2 == scalar_in_coords(n, -_ONE), "squares to the central sign")
    chk.ok(
        [theta_on_coords(g) for g in c.generators] == list(c.theta_images),
        "twist images of the generators",
    )
    for eps in (1, -1):
        chk.ok(
            z_eps(n, eps).spinor_norm() == GaussRat((-1) ** n),
            "kernel element norm",
            eps=eps,
        )
    for tag, structure in (("gspin", "Gm x Z/2"), ("so", "Z/2"), ("gso", "Gm")):
        chk.ok(center(tag, n).structure == structure, "structure tags", tag=tag)


@_suite(
    "lem:ComputeCenter",
    "center structures and centrality of the torsion in the Clifford model",
)
def _suite_center_structure(n, trials, rng, chk):
    c = center("gspin", n)
    chk.ok(c.structure == "Gm x Z/2", "similitude center structure")
    torsion = c.torsion()
    chk.ok(len(torsion) == 8, "torsion is mu4 times the order-two part")
    chk.ok(
        [theta_on_coords(g) for g in c.generators] == list(c.theta_images),
        "twist images",
    )
    chk.ok(z_eps(n, 1) in set(torsion) and z_eps(n, -1) in set(torsion), "kernel elements present")
    g = _rand_gspin(n, rng)
    for z in torsion[:4]:
        t = torus_point(z)
        chk.ok(t * g == g * t, "torsion is central in the Clifford model", z=z, g=g)
    so_center = center("so", n)
    chk.ok(
        so_center.generators[0].s == (_ONE,) + (-_ONE,) * n,
        "orthogonal center generator is -1 on vectors",
    )


@_suite("eq:daction", "wedge/contraction module action rules")
def _suite_module_action(n, trials, rng, chk):
    sp = even_space(n)
    gen = CliffordElement.generator
    chk.ok(act(gen(sp, n + 1), {(1, 2): _ONE}) == {(2,): _ONE}, "contraction example")
    chk.ok(act(gen(sp, 1), vacuum()) == {(1,): _ONE}, "wedge on the vacuum")
    chk.ok(
        act(gen(sp, 2 * n), {(1, 2): _ONE}) == {},
        "top contraction misses monomials without n",
    )
    for _ in range(min(trials, 10)):
        v = random_vector(sp, rng, anisotropic=False, span=5, nnz=sp.dim)
        u = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        got = act(v, act(v, {u: _ONE}))
        q = sp.quad(v.as_vector())
        chk.ok(
            got == ({u: q} if q else {}),
            "vectors square to Q in the module",
            v=v,
            u=list(u),
        )


@_suite("eq:CliffordHalfSpinDef", "spin and half-spin matrices are multiplicative")
def _suite_spin_representation(n, trials, rng, chk):
    sp = even_space(n)
    ident = GPinElement(CliffordElement.one(sp))
    chk.ok(spin_matrix(ident).mat == Mat.identity(2 ** n), "identity maps to identity")
    for _ in range(_heavy(n, trials, cap=3, cap_high=2)):
        g, h = _rand_gspin(n, rng), _rand_gspin(n, rng)
        gh = g * h
        chk.ok(
            spin_matrix(gh).mat == spin_matrix(g).mat * spin_matrix(h).mat,
            "multiplicative on the even part",
            g=g,
            h=h,
        )
        for eps in (1, -1):
            chk.ok(
                half_spin_matrix(gh, eps).mat
                == half_spin_matrix(g, eps).mat * half_spin_matrix(h, eps).mat,
                "half blocks multiplicative",
                g=g,
                h=h,
                eps=eps,
            )
        x = _rand_odd_parity(n, rng)
        chk.ok(
            spin_matrix(g * x).mat == spin_matrix(g).mat * spin_matrix(x).mat,
            "multiplicative across parities",
            g=g,
            x=x,
        )


@_suite("lem:half-spin-highest-weight", "unique dominant half-spin weight is the minuscule one")
def _suite_highest_weight(n, trials, rng, chk):
    simple = simple_roots(n)
    for eps in (1, -1):
        ws = spin_weights(n, eps)
        chk.ok(len(ws) == 2 ** (n - 1), "weight count", eps=eps)
        chk.ok(len(set(ws)) == len(ws), "weights distinct", eps=eps)
        dominant = [w for w in ws if all(pairing(w, a) >= 0 for a in simple)]
        chk.ok(dominant == [mu_eps(n, eps)], "unique dominant weight", eps=eps)
        wset = set(ws)
        for _ in range(min(trials, 8)):
            w = rng.choice(ws)
            wl = _rand_weyl(n, rng)
            chk.ok(weyl_act(wl, w) in wset, "orbit closed", w=w, wl=wl)


@_suite("lem:spin-inv-pairing", "invariant pairing symmetry type and half-block restrictions")
def _suite_pairing_symmetry(n, trials, rng, chk):
    j = pairing_gram(n)
    dim = 2 ** n
    half = dim // 2
    alternating = n % 4 in (2, 3)
    chk.ok(
        j.transpose() == (j * -_ONE if alternating else j),
        "symmetry type by n mod 4",
        n=n,
    )
    chk.ok(rank(j) == dim, "nondegenerate")
    for name, block_range in (("plus", range(half)), ("minus", range(half, dim))):
        restriction = j.block(block_range, block_range)
        if n % 2:
            chk.ok(restriction.is_zero(), f"{name} restriction vanishes for odd n")
        else:
            chk.ok(rank(restriction) == half, f"{name} restriction nondegenerate for even n")


@_suite("lem:Duality-Eq1", "pairing is norm-equivariant and adjoint to the reversal")
def _suite_pairing_equivariance(n, trials, rng, chk):
    j = pairing_gram(n)
    sp = even_space(n)
    for _ in range(_heavy(n, trials, cap=3, cap_high=2)):
        g = random_gpin(sp, rng, span=_span(n))
        s = spin_matrix(g).mat
        chk.ok(
            s.transpose() * j * s == j * g.spinor_norm(),
            "norm equivariance",
            g=g,
        )
    basis = spin_basis(sp, "full")
    for _ in range(min(trials, 6)):
        v = random_vector(sp, rng, anisotropic=False, span=5)
        a = _action_matrix(v, basis, basis)
        chk.ok(a.transpose() * j == j * a, "vectors are self-adjoint", v=v)
        x = v * random_vector(sp, rng, anisotropic=False, span=5)
        chk.ok(
            _action_matrix(x, basis, basis).transpose() * j
            == j * _action_matrix(beta(x), basis, basis),
            "adjunction through the reversal",
            x=x,
        )


@_suite(
    "lem:CliffordSpinRestrict",
    "plus half restricted to the embedded group matches the odd spin",
)
def _suite_restriction_plus(n, trials, rng, chk):
    psi = psi_matrix(n)
    chk.ok(rank(psi) == 2 ** (n - 1), "intertwiner invertible")
    psi_inv = inverse(psi)
    for _ in range(_heavy(n, trials, cap=4, cap_high=2)):
        g = _rand_gspin_odd(n, rng)
        chk.ok(
            half_spin_matrix(i_std(g), 1).mat == psi * spin_matrix(g).mat * psi_inv,
            "plus block restricts through psi",
            g=g,
        )


@_suite("lem:CliffordSpinThetaAction", "minus half restricts through the twisted intertwiner")
def _suite_restriction_minus(n, trials, rng, chk):
    to_minus = theta_intertwiner(n) * psi_matrix(n)
    back = inverse(to_minus)
    for _ in range(_heavy(n, trials, cap=4, cap_high=2)):
        g = _rand_gspin_odd(n, rng)
        chk.ok(
            half_spin_matrix(i_std(g), -1).mat == to_minus * spin_matrix(g).mat * back,
            "minus block restricts through the twisted map",
            g=g,
        )
    sp = even_space(n)
    top = CliffordElement.generator(sp, 2 * n)
    for u in spin_basis(sp, "full"):
        if n not in u:
            chk.ok(
                act(top, {u: _ONE}) == {},
                "top generator kills monomials without n",
                u=list(u),
            )


@_suite("eq:CliffordExplicitBasis", "ordered subset basis: colex blocks, shift pairing, signs")
def _suite_spin_basis(n, trials, rng, chk):
    sp = even_space(n)
    full, evens, odds = (spin_basis(sp, label) for label in ("full", "+", "-"))
    chk.ok(len(full) == 2 ** n, "size")

    def mask(u):
        return sum(1 << (j - 1) for j in u)

    chk.ok(all(len(u) % 2 == 0 for u in evens), "even block parity")
    chk.ok([mask(u) for u in evens] == sorted(mask(u) for u in evens), "colex order")
    sym = tuple(tuple(sorted(set(u) ^ {n})) for u in evens)
    chk.ok(odds == sym, "odd block is the n-shift of the even block")
    chk.ok(full == evens + odds, "full basis is the + block then the - block")
    chk.ok(len(set(full)) == len(full), "full basis subsets are distinct")
    om = spin_basis(odd_space(n), "full")
    chk.ok(len(om) == 2 ** (n - 1), "odd module basis size")
    chk.ok([mask(u) for u in om] == sorted(mask(u) for u in om), "odd module colex order")
    th = theta_element(sp)
    chk.ok(
        all(act(th, {u: _ONE}) == {v: SQRT_M1} for u, v in zip(evens, odds)),
        "theta element sends each even basis vector to sqrt(-1) times its odd partner",
    )
    for u in (evens[0], evens[-1]):
        m = CliffordElement.monomial(sp, u)
        chk.ok(m.coefficient(u) == _ONE, "monomial coefficient", u=list(u))


@_suite("prop:res-of-spin", "both half-spin restrictions are equivalent to the odd spin")
def _suite_restriction_equivalence(n, trials, rng, chk):
    for _ in range(_heavy(n, trials, cap=4, cap_high=2)):
        g = _rand_gspin_odd(n, rng)
        ig = i_std(g)
        cp_plus = charpoly(half_spin_matrix(ig, 1).mat)
        cp_minus = charpoly(half_spin_matrix(ig, -1).mat)
        cp_odd = charpoly(spin_matrix(g).mat)
        chk.ok(
            cp_plus == cp_odd and cp_minus == cp_odd,
            "both halves restrict to the odd spin representation",
            g=g,
        )


@_suite("lem:GPin-conjugacy", "fingerprints are conjugation invariants; twist swaps the halves")
def _suite_fingerprint_conjugacy(n, trials, rng, chk):
    for _ in range(min(trials, 4)):
        s = _rand_coords(n, rng)
        w = _rand_weyl(n, rng)
        chk.ok(
            is_conjugate_gspin(torus_point(s), torus_point(weyl_act_spinor(w, s))),
            "Weyl translates are conjugate",
            s=s,
            w=w,
        )
    for _ in range(_heavy(n, trials, cap=3, cap_high=2)):
        s = _rand_coords(n, rng)
        g = torus_point(s)
        h = _rand_gspin(n, rng)
        chk.ok(
            fingerprint(h * g * h.inverse()) == fingerprint(g),
            "inner conjugation invariance",
            s=s,
            h=h,
        )
        x = _rand_odd_parity(n, rng)
        conj = x * g * x.inverse()
        chk.ok(is_conjugate_gpin(conj, g), "coarse invariant survives odd conjugation", s=s, x=x)
        fg, fc = fingerprint(g), fingerprint(conj)
        chk.ok(
            (fc.cp_spin_plus, fc.cp_spin_minus) == (fg.cp_spin_minus, fg.cp_spin_plus),
            "odd conjugation swaps the half blocks",
            s=s,
            x=x,
        )
    witness = TorusCoordinates((1, 2, 3) + (5,) * (n - 2))
    g = torus_point(witness)
    tg = theta(g)
    chk.ok(not is_conjugate_gspin(g, tg), "twist is not inner on a generic witness")
    chk.ok(is_outer_conjugate(g, tg), "twist detected as outer")
    chk.ok(is_conjugate_gpin(g, tg), "twist merges in the disconnected group")


@_suite(
    "prop:containingRegularUnipotent",
    "principal nilpotent exponentiates to a regular unipotent",
)
def _suite_regular_unipotent(n, trials, rng, chk):
    e = principal_nilpotent(n)
    chk.ok(not (e ** (2 * n - 2)).is_zero(), "nilpotency order is maximal")
    chk.ok((e ** (2 * n - 1)).is_zero(), "nilpotent")
    gram = even_space(n).gram()
    chk.ok((e.transpose() * gram + gram * e).is_zero(), "lies in the orthogonal Lie algebra")
    u = exp_nilpotent(e)
    chk.ok(jordan_partition(u) == [2 * n - 1, 1], "Jordan type")
    chk.ok(is_regular_unipotent_so(u) is True, "regular unipotent")
    split = std_split(n)
    p = split.change_of_basis()
    m = inverse(p) * e * p
    d = 2 * n
    chk.ok(
        m.block([d - 1], range(d)).is_zero() and m.block(range(d), [d - 1]).is_zero(),
        "supported on the odd-space block",
    )
    chk.ok(is_regular_unipotent_so(Mat.identity(d)) is False, "identity is not regular")
    rows = [[_ONE if i == j else _ZERO for j in range(d)] for i in range(d)]
    rows[0][1] = _ONE
    rows[n + 1][n] = -_ONE
    chk.ok(is_regular_unipotent_so(Mat(rows)) is False, "root element is not regular")


@_suite("lem:spin7", "rank-3 cocharacter discriminator separates the twisted orbits")
def _suite_spin7_discriminator(n, trials, rng, chk):
    chk.ok(spin7_orbit_discriminator(6, 4, 2) is False, "separated triple")
    chk.ok(spin7_orbit_discriminator(8, 4, 2) is False, "another separated triple")
    chk.ok(spin7_orbit_discriminator(2, 0, 0) is True, "degenerate triple agrees")
    chk.ok(spin7_orbit_discriminator(0, 0, 0) is True, "zero triple agrees")
    try:
        spin7_orbit_discriminator(1, 0, 0)
        chk.ok(False, "odd sum must be rejected")
    except ValueError:
        chk.ok(True, "odd sum rejected")
    for _ in range(min(trials, 10)):
        a = [rng.randint(0, 8) for _ in range(3)]
        if sum(a) % 2:
            a[0] += 1
        base = spin7_orbit_discriminator(*a)
        perm = rng.sample(a, 3)
        chk.ok(
            spin7_orbit_discriminator(*perm) == base,
            "permutation invariant",
            a=a,
            perm=perm,
        )


@_suite("lem:IrreducibilityOfSpin-", "weight-level identification of the two rank-3 restrictions")
def _suite_minus_restriction_weights(n, trials, rng, chk):
    res = spin_minus_irreducibility_weight_check(4, (8, 4, 2))
    chk.ok(
        res["+"] == ("std+1",) and res["-"] == ("spin",),
        "generic triple identifies the two restrictions",
    )
    degenerate = spin_minus_irreducibility_weight_check(4, (6, 4, 2))
    chk.ok(
        set(degenerate["+"]) == {"std+1", "spin"} and set(degenerate["-"]) == {"std+1", "spin"},
        "degenerate triple matches both references",
    )
    for _ in range(min(trials, 8)):
        a = sorted((rng.randint(0, 8) for _ in range(3)), reverse=True)
        if sum(a) % 2:
            a[0] += 1
            a.sort(reverse=True)
        got = spin_minus_irreducibility_weight_check(4, tuple(a))
        chk.ok(
            "std+1" in got["+"] and "spin" in got["-"],
            "plus matches std+1 and minus matches spin",
            a=a,
        )


@_suite("prop:HT-weights", "weight multiset computed two independent ways agrees")
def _suite_ht_cross_check(n, trials, rng, chk):
    for _ in range(min(trials, 25)):
        lam = _rand_dominant(n, rng)
        mult = rng.randint(1, 3)
        for eps in (1, -1):
            chk.ok(
                ht_multiset(n, eps, lam, mult) == ht_via_spin_weights(n, eps, lam, mult),
                "direct enumeration equals the weight pairing route",
                lam=lam,
                eps=eps,
                mult=mult,
            )
        plus = ht_multiset(n, 1, lam)
        minus = ht_multiset(n, -1, lam)
        chk.ok(plus.total() + minus.total() == 2 ** n, "each subset contributes once", lam=lam)


@_suite("eq:HTweights", "frozen multiset values, shift formula, and the outer twist swap")
def _suite_ht_values(n, trials, rng, chk):
    zero3 = (0, 0, 0, 0)
    want = Counter({0: 1, 1: 1, 2: 1, 3: 1})
    chk.ok(ht_multiset(3, 1, zero3).values == want, "weight zero reference, plus")
    chk.ok(ht_multiset(3, -1, zero3).values == want, "weight zero reference, minus")
    shift = b_shift((0,) * (n + 1))
    chk.ok(
        shift == (-(n * (n - 1)) // 2,) + tuple(range(n - 1, 0, -1)) + (0,),
        "shift of the zero weight",
    )
    for _ in range(min(trials, 10)):
        lam = _rand_dominant(n, rng)
        for eps in (1, -1):
            vals = ht_multiset(n, eps, lam).values
            chk.ok(all(isinstance(v, int) for v in vals), "integer values", lam=lam, eps=eps)
        twist = (lam[0] + lam[-1],) + tuple(lam[1:-1]) + (-lam[-1],)
        chk.ok(
            tuple(theta_on_weights(WeightVector(lam, dual=False)).coords) == twist,
            "twist formula on the weight",
            lam=lam,
        )
        chk.ok(
            ht_multiset(n, 1, twist) == ht_multiset(n, -1, lam),
            "outer twist swaps the two blocks",
            lam=lam,
        )


@_suite("std-reg", "standard regularity predicate matches the direct reading")
def _suite_std_regular(n, trials, rng, chk):
    chk.ok(is_std_regular((0,) * (n + 1)) is False, "zero weight is irregular")
    strict = (0,) + tuple(range(n, 0, -1))
    chk.ok(is_std_regular(strict) is True, "strictly spaced weight is regular")
    for _ in range(min(trials, 20)):
        lam = _rand_dominant(n, rng)
        body = b_shift(lam)[1:]
        direct = len({x for v in body for x in (v, -v)}) == 2 * n
        chk.ok(is_std_regular(lam) == direct, "matches the direct reading", lam=lam)


@_suite("spin-reg", "spin regularity predicate and the implication to standard regularity")
def _suite_spin_regular(n, trials, rng, chk):
    chk.ok(is_spin_regular((0,) * (n + 1)) is False, "zero weight is irregular")
    geometric = (0,) + tuple(4 ** k for k in range(n - 1, -1, -1))
    chk.ok(is_spin_regular(geometric) is True, "geometric weight is spin regular")
    for _ in range(min(trials, 30)):
        lam = _rand_dominant(n, rng)
        if is_spin_regular(lam):
            chk.ok(is_std_regular(lam), "spin regular implies std regular", lam=lam)
        body = b_shift(lam)[1:]
        sums = {0}
        for x in body:
            sums |= {s + x for s in sums}
        chk.ok(
            is_spin_regular(lam) == (len(sums) == 2 ** n),
            "matches the subset sum reading",
            lam=lam,
        )


def _zeta_coords(n):
    return TorusCoordinates((SQRT_M1,) + (-_ONE,) * n)


def _consistent_candidate(n, rng):
    """A group element with g * theta(g) = 1, built as h * theta(h)^-1."""
    h = _rand_gspin(n, rng)
    return h * theta(h).inverse()


@_suite("lem:extend", "extension criterion on synthetic generator tables")
def _suite_extension_criterion(n, trials, rng, chk):
    for _ in range(_heavy(n, trials, cap=3, cap_high=2)):
        g0 = _consistent_candidate(n, rng)
        vals = [torus_point(_rand_coords(n, rng)), _rand_gspin(n, rng)]
        table = [(v, g0 * theta(v) * g0.inverse()) for v in vals]
        chk.ok(check_extension_criterion(table, g0) is True, "matched table passes", g0=g0)
        zeta = torus_point(_zeta_coords(n))
        chk.ok(
            check_extension_criterion(table, zeta * g0) is True,
            "cocycle twist passes",
            g0=g0,
        )
        cob = torus_point(scalar_in_coords(n, -_ONE))
        chk.ok(
            check_extension_criterion(table, cob * g0) is True,
            "coboundary twist passes",
            g0=g0,
        )
        zplus = torus_point(z_eps(n, 1))
        chk.ok(
            check_extension_criterion(table, zplus * g0) is False,
            "non-cocycle twist fails",
            g0=g0,
        )
        scale = torus_point(scalar_in_coords(n, GaussRat(2)))
        bad = [(v, tw * scale) for v, tw in table]
        chk.ok(check_extension_criterion(bad, g0) is False, "tampered table fails", g0=g0)


@_suite("lem:uniquely-extend", "extensions form a torsor with exactly two classes")
def _suite_extension_torsor(n, trials, rng, chk):
    g0 = _consistent_candidate(n, rng)
    vals = [torus_point(_rand_coords(n, rng)), _rand_gspin(n, rng)]
    table = [(v, g0 * theta(v) * g0.inverse()) for v in vals]
    classes = extension_classes(table, g0)
    chk.ok(len(classes) == 2, "two classes")
    chk.ok(classes[0] == g0, "identity class first")
    chk.ok(classes[1] == torus_point(_zeta_coords(n)) * g0, "nontrivial class twist")
    for cand in classes:
        chk.ok(check_extension_criterion(table, cand) is True, "every class passes")
    try:
        extension_classes(table, torus_point(z_eps(n, 1)) * g0)
        chk.ok(False, "failing candidate must raise")
    except ValueError:
        chk.ok(True, "failing candidate rejected")


@_suite("ex:SO2n-extend", "orthogonal example: H1 = Z/2 represented by -1")
def _suite_so_extension_example(n, trials, rng, chk):
    res = z1_b1_h1(involution_module("so", n))
    ident = TorusCoordinates.identity(n)
    minus_id = TorusCoordinates((_ONE,) + (-_ONE,) * n)
    chk.ok(set(res.z1) == {ident, minus_id}, "cocycles")
    chk.ok(res.b1 == (ident,), "coboundaries trivial")
    chk.ok(res.h1_structure == "Z/2", "structure")
    chk.ok(res.h1_reps == (ident, minus_id), "representatives")
    d = 2 * n
    g0 = Mat.identity(d)
    th = theta_circ_matrix(n)
    val = _rand_gspin(n, rng).pr_circ()
    table = [(val, th * val * th)]
    classes = extension_classes(table, g0)
    chk.ok(len(classes) == 2, "matrix-side torsor size")
    chk.ok(classes[0] == g0, "matrix identity class")
    chk.ok(classes[1] == g0 * -_ONE, "matrix classes differ by -1")


@_suite("ex:GSpin2n-extend", "similitude example: Z1 = mu4, H1 = Z/2 represented by zeta")
def _suite_gspin_extension_example(n, trials, rng, chk):
    mod = involution_module("gspin", n)
    res = z1_b1_h1(mod)
    ident = TorusCoordinates.identity(n)
    want_z1 = {
        TorusCoordinates((s0,) + (s0 * s0,) * n)
        for s0 in (_ONE, -_ONE, SQRT_M1, -SQRT_M1)
    }
    chk.ok(set(res.z1) == want_z1, "cocycles are the fourth roots")
    want_b1 = {ident, TorusCoordinates((-_ONE,) + (_ONE,) * n)}
    chk.ok(set(res.b1) == want_b1, "coboundaries are the sign scalars")
    chk.ok(res.h1_structure == "Z/2", "structure")
    chk.ok(
        res.h1_reps == (ident, _zeta_coords(n)),
        "nontrivial class is represented by zeta",
    )
    chk.ok(set(norm_map_image(mod)) == want_b1, "norm image is the sign scalars")
