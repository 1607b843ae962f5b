"""Tests for the exterior module and the spin / half-spin matrix models."""

import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from gspin.clifford import (
    CliffordElement,
    GPinElement,
    beta,
    even_space,
    i_std,
    line_space,
    odd_space,
    random_gpin,
    random_gspin,
    std_split,
    theta,
    theta_element,
)
from gspin import clifford, spinrep
from gspin.conjugacy import fingerprint
from gspin.exact import SQRT_M1, GaussRat, Mat, inverse, rank
from gspin.spinrep import (
    SpinMatrix,
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
from test_exact import assert_exact_pattern

ONE = GaussRat(1)


def gen(space, j):
    return CliffordElement.generator(space, j)


def unit(space):
    return GPinElement(CliffordElement.one(space))


def torus_element(space, c, a, b):
    """c * prod_i (a_i e_i e_{n+i} + b_i e_{n+i} e_i) as a GPin element."""
    n = space.n
    t = CliffordElement.scalar(space, c)
    for i in range(1, n + 1):
        fwd = gen(space, i) * gen(space, n + i)
        bwd = gen(space, n + i) * gen(space, i)
        t = t * (fwd * a[i - 1] + bwd * b[i - 1])
    return GPinElement(t)


def torus_from_s_coords(space, s0, s):
    """Torus element with prescribed (s_0, s_1..s_n): a_i = s_i, b_i = 1, c = s_0."""
    return torus_element(space, s0, list(s), [GaussRat(1)] * space.n)


# ---------------------------------------------------------------------------
# basis bookkeeping


def _colex_subsets(w):
    """Every subset of {1..w} from itertools.combinations, ordered by bitmask."""
    subsets = [u for r in range(w + 1) for u in combinations(range(1, w + 1), r)]
    return tuple(sorted(subsets, key=lambda u: sum(1 << (j - 1) for j in u)))


@pytest.mark.parametrize("space", [even_space(n) for n in range(1, 7)]
                         + [odd_space(n) for n in range(2, 7)],
                         ids=lambda sp: f"{sp.kind}-{sp.n}")
def test_spin_basis_matches_enumeration(space):
    n = space.n
    if space.kind == "odd":
        expected = {label: _colex_subsets(n - 1) for label in ("full", "+", "-")}
    else:
        plus = tuple(u for u in _colex_subsets(n) if len(u) % 2 == 0)
        minus = tuple(tuple(sorted(set(u) ^ {n})) for u in plus)
        expected = {"full": plus + minus, "+": plus, "-": minus}
        assert len(plus) == len(minus) == 2 ** (n - 1)
        assert all(len(u) % 2 == 1 for u in minus)
        assert len(set(plus + minus)) == 2**n
        assert spin_basis(space, "full") == spin_basis(space, "+") + spin_basis(space, "-")
    for label, subsets in expected.items():
        assert spin_basis(space, label) == subsets
    for label in ("bogus", "", 1, None):
        with pytest.raises(ValueError, match="label must be"):
            spin_basis(space, label)


# Frozen examples of the Fock basis of the even-space module, written out by hand.


def test_fock_basis_n3_order():
    sp = even_space(3)
    assert spin_basis(sp, "+") == ((), (1, 2), (1, 3), (2, 3))
    assert spin_basis(sp, "-") == ((3,), (1, 2, 3), (1,), (2,))
    assert spin_basis(sp, "full") == spin_basis(sp, "+") + spin_basis(sp, "-")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fock_basis_block_sizes(n):
    sp = even_space(n)
    plus, minus = spin_basis(sp, "+"), spin_basis(sp, "-")
    assert len(plus) == 2 ** (n - 1)
    assert len(minus) == 2 ** (n - 1)
    assert len(spin_basis(sp, "full")) == 2**n
    assert all(len(u) % 2 == 0 for u in plus)
    assert all(len(u) % 2 == 1 for u in minus)


def test_fock_basis_index_and_blocks():
    sp = even_space(3)
    full = spin_basis(sp, "full")
    assert full.index(()) == 0
    assert full.index((3,)) == 4
    assert full.index((2,)) == 7
    # the even subsets fill the "+" block, the odd ones the "-" block
    assert full[:4] == spin_basis(sp, "+")
    assert full[4:] == spin_basis(sp, "-")


def test_fock_basis_manifest():
    assert spin_basis(even_space(2), "full") == ((), (1, 2), (2,), (1,))


def test_odd_module_basis():
    assert spin_basis(odd_space(3), "full") == ((), (1,), (2,), (1, 2))
    assert len(spin_basis(odd_space(5), "full")) == 16


# ---------------------------------------------------------------------------
# module action: frozen examples


def test_act_contraction_example():
    # e_{n+1} applied to e_1 ^ e_2 contracts the first slot.
    sp = even_space(3)
    assert act(gen(sp, 4), {(1, 2): ONE}) == {(2,): ONE}


def test_act_wedge_on_vacuum():
    sp = even_space(3)
    assert act(gen(sp, 1), vacuum()) == {(1,): ONE}


def test_act_contraction_misses():
    sp = even_space(3)
    assert act(gen(sp, 6), {(1, 2): ONE}) == {}
    assert act(gen(sp, 6), {(1,): ONE}) == {}


def test_act_wedge_repeated_index_kills():
    sp = even_space(3)
    assert act(gen(sp, 2), {(2, 3): ONE}) == {}


def test_act_wedge_sign():
    sp = even_space(3)
    # e_3 moves past e_1 and e_2: sign (+1)^2... two smaller elements -> +1;
    # e_1 moves past nothing -> +1; e_2 into (1,3) moves past 1 -> -1.
    assert act(gen(sp, 3), {(1, 2): ONE}) == {(1, 2, 3): ONE}
    assert act(gen(sp, 2), {(1, 3): ONE}) == {(1, 2, 3): -ONE}


def test_act_contraction_sign():
    sp = even_space(3)
    # contracting e_2 out of (1,2): position 2, sign (-1)^{2+1}.
    assert act(gen(sp, 5), {(1, 2): ONE}) == {(1,): -ONE}


def test_act_odd_space_parity_generator():
    sp = odd_space(3)
    f5 = gen(sp, 5)
    assert act(f5, {(): ONE}) == {(): ONE}
    assert act(f5, {(1,): ONE}) == {(1,): -ONE}
    assert act(f5, {(1, 2): ONE}) == {(1, 2): ONE}


def test_act_odd_space_wedge_and_contract():
    sp = odd_space(3)
    assert act(gen(sp, 1), vacuum()) == {(1,): ONE}
    assert act(gen(sp, 3), {(1,): ONE}) == {(): ONE}


def test_act_linearity():
    sp = even_space(3)
    c = gen(sp, 1) * gen(sp, 4) + gen(sp, 2) * 3
    v = {(1, 2): GaussRat(2), (3,): -ONE}
    w = {(1, 2): GaussRat(-5, 7)}
    left = act(c, {u: x + w.get(u, GaussRat(0)) for u, x in v.items()})
    direct = act(c, v)
    for u, x in act(c, w).items():
        direct[u] = direct.get(u, GaussRat(0)) + x
    assert left == {u: x for u, x in direct.items() if x}


def test_act_index_out_of_range():
    sp = even_space(3)
    with pytest.raises(ValueError):
        act(gen(sp, 1), {(4,): ONE})


def test_act_rejects_indices_that_are_not_ints():
    # the same keys that CliffordElement rejects as monomials
    sp = even_space(4)
    for u in ((True,), (1.0,), ("1",)):
        with pytest.raises(ValueError, match="module vector indices out of range"):
            act(gen(sp, 4), {u: ONE})
        with pytest.raises(ValueError):
            CliffordElement(sp, {u: ONE})


def test_act_rejects_coefficients_that_are_not_exact():
    # rejected whatever the value, unit and zero values included
    sp = even_space(3)
    for v in (1.0, True, 2.5, 0.0, False, "1", 1j):
        with pytest.raises(TypeError, match="module vector coefficients"):
            act(gen(sp, 1), {(): v})
        with pytest.raises(TypeError, match="module vector coefficients"):
            act(gen(sp, 1), {(2,): ONE, (): v})


def test_act_rejects_unsorted_or_repeated_indices():
    # The walk turns each key into a bitmask, which forgets order and
    # repeats, so act must reject keys that are not basis subsets.
    sp = even_space(3)
    for u in ((2, 1), (1, 1), (3, 1, 2)):
        with pytest.raises(ValueError):
            act(gen(sp, 3), {u: ONE})


def test_act_rejects_line_space():
    sp = line_space(Fraction(-1))
    message = "the exterior module is defined for the even and odd spaces"
    with pytest.raises(ValueError, match=message):
        act(gen(sp, 1), vacuum())
    # spin_basis has no basis to offer either, whatever the line's Q.
    for q in (Fraction(-1), 2):
        for label in ("full", "+", "-"):
            with pytest.raises(ValueError, match=message):
                spin_basis(line_space(q), label)


def _embed(space, v):
    out = CliffordElement(space, {})
    for u, c in v.items():
        out = out + CliffordElement.monomial(space, u) * c
    return out


def _project(x, limit):
    return {m: c for m, c in x.terms.items() if all(j <= limit for j in m)}


@pytest.mark.parametrize("sp", [even_space(2), even_space(3), even_space(4)],
                         ids=lambda sp: f"n={sp.n}")
def test_act_agrees_with_clifford_product_even(sp):
    # The module is C(V) modulo the left ideal generated by the dual
    # half W'; acting and then reducing must match multiplying in C(V)
    # and dropping every monomial that still contains a W' index.
    rng = random.Random(11)
    for _ in range(25):
        g = random_gpin(sp, rng)
        v = {}
        for u in rng.sample(spin_basis(sp, "full"), 3):
            v[u] = GaussRat(rng.randint(-4, 4), rng.randint(-2, 2))
        v = {u: c for u, c in v.items() if c}
        expected = _project(g.elt * _embed(sp, v), sp.n)
        assert act(g.elt, v) == expected


@pytest.mark.parametrize("sp", [odd_space(3), odd_space(4)], ids=lambda sp: f"n={sp.n}")
def test_act_agrees_with_clifford_product_odd_subalgebra(sp):
    # Same reduction oracle on the odd space, for elements that avoid the
    # anisotropic generator (whose action is the separate parity rule).
    rng = random.Random(12)
    for _ in range(25):
        mono = tuple(sorted(rng.sample(range(1, sp.dim), rng.randint(0, 3))))
        c = CliffordElement.monomial(sp, mono) * GaussRat(rng.randint(1, 5))
        v = {u: GaussRat(rng.randint(-3, 3)) for u in spin_basis(sp, "full")}
        v = {u: x for u, x in v.items() if x}
        assert act(c, v) == _project(c * _embed(sp, v), sp.n - 1)


def test_act_composition_is_product():
    rng = random.Random(13)
    sp = even_space(3)
    for _ in range(10):
        x = random_gpin(sp, rng)
        y = random_gpin(sp, rng)
        v = {(1, 2): ONE, (3,): GaussRat(2, 3)}
        assert act(x.elt, act(y.elt, v)) == act((x * y).elt, v)


@pytest.mark.parametrize("space", [even_space(2), even_space(3), odd_space(2), odd_space(3)],
                         ids=lambda sp: f"{sp.kind}-{sp.n}")
def test_act_of_monomial_is_generators_right_to_left(space):
    # act walks a basis subset through a whole monomial at once; composing
    # the single-generator actions from the right must give the same
    # vector, for every basis monomial of C(V) (on the odd space this
    # mixes f_{2n-1} with wedges and contractions) and every basis subset.
    basis = spin_basis(space, "full")
    for r in range(space.dim + 1):
        for mono in combinations(range(1, space.dim + 1), r):
            c = CliffordElement.monomial(space, mono, GaussRat(2, -1))
            for u in basis:
                expected = {u: GaussRat(2, -1)}
                for j in reversed(mono):
                    expected = act(gen(space, j), expected)
                assert act(c, {u: ONE}) == expected, (mono, u)


def _apply_monomial(w, mono, u):
    """Oracle for `clifford._compile`: walk the basis mask u through a
    Clifford monomial one generator at a time, last generator first.

    w = dim W and u has bit j - 1 for index j.  Generator g <= w wedges on
    bit g - 1, g <= 2w contracts bit g - w - 1, each signed by the number
    of set bits below it; 2w + 1, the odd space's anisotropic f_{2n-1},
    multiplies by (-1)^{#U}.  Returns (sign, mask), or None when the image
    is 0.
    """
    sign = 1
    for g in reversed(mono):
        if g <= w:
            bit = 1 << (g - 1)
            if u & bit:
                return None
            below = u & (bit - 1)
            u |= bit
        elif g <= 2 * w:
            bit = 1 << (g - w - 1)
            if not u & bit:
                return None
            u ^= bit
            below = u & (bit - 1)
        else:
            below = u
        if below.bit_count() & 1:
            sign = -sign
    return sign, u


@pytest.mark.parametrize("space", [even_space(n) for n in range(1, 5)]
                         + [odd_space(n) for n in range(2, 6)],
                         ids=lambda sp: f"{sp.kind}-{sp.n}")
def test_compiled_monomial_matches_generator_walk(space):
    # every monomial of C(V), e_k together with f_k and the odd space's
    # f_{2n-1} included, on every basis mask
    w = space.n if space.kind == "even" else space.n - 1
    for r in range(space.dim + 1):
        for mono in combinations(range(1, space.dim + 1), r):
            walk = clifford._compile(w, mono)
            for u in range(1 << w):
                hit = _apply_monomial(w, mono, u)
                if walk is None or u & walk[0] != walk[1]:
                    assert hit is None, (mono, u)
                else:
                    need, want, flip, smask, odd = walk
                    sign = -1 if ((u & smask).bit_count() + odd) & 1 else 1
                    assert hit == (sign, u ^ flip), (mono, u)


def _rand_coeff(rng):
    """A Gaussian rational with denominators in 2..9 and a nonzero real part."""
    re = 0
    while not re:
        re = rng.randint(-3, 3)
    im = rng.randint(-2, 2)
    return GaussRat(Fraction(re, rng.randint(2, 9)), Fraction(im, rng.randint(2, 9)))


def _act_oracle(c, vec):
    """act by the slow route: each term x m of c sends each entry v m_U of
    vec to v x times the `_apply_monomial` image of U, summed as GaussRat."""
    sp = c.space
    w = sp.n if sp.kind == "even" else sp.n - 1
    acc = {}
    for u, v in vec.items():
        for mono, x in c.terms.items():
            hit = _apply_monomial(w, mono, clifford._mask(u))
            if hit is not None:
                sign, m = hit
                acc[m] = acc.get(m, GaussRat(0)) + v * x * sign
    return {clifford._mono(m): x for m, x in acc.items() if x}


@pytest.mark.parametrize("space", [even_space(n) for n in range(1, 5)]
                         + [odd_space(n) for n in range(2, 6)],
                         ids=lambda sp: f"{sp.kind}-{sp.n}")
def test_act_sums_on_integers_like_the_termwise_walk(space):
    # act sums the compiled terms' numerators on ints and converts once;
    # the oracle sums GaussRat images term by term, for elements with
    # coefficients over different denominators and imaginary parts, the
    # top generator (f_{2n-1} on the odd space) always among the terms
    rng = random.Random(80 + space.n + 10 * (space.kind == "odd"))
    w = space.n if space.kind == "even" else space.n - 1
    basis = spin_basis(space, "full")
    for _ in range(20):
        terms = {(space.dim,): _rand_coeff(rng)}
        for _ in range(rng.randint(2, 5)):
            mono = tuple(sorted(rng.sample(range(1, space.dim + 1), rng.randint(0, space.dim))))
            terms[mono] = _rand_coeff(rng)
        c = CliffordElement(space, terms)
        vec = {u: _rand_coeff(rng) for u in rng.sample(basis, min(3, len(basis)))}
        assert act(c, vec) == _act_oracle(c, vec), (terms, vec)
    # 1 and e_1 f_1 (f_1 = e_{w+1}) agree on every mask holding bit 1, so
    # x - x e_1 f_1 cancels there and keeps x on the vacuum
    x = _rand_coeff(rng)
    cancel = CliffordElement(space, {(): x, (1, w + 1): -x, (space.dim,): GaussRat(Fraction(1, 3), 2)})
    vec = {(): GaussRat(Fraction(1, 2)), (1,): GaussRat(0, Fraction(-5, 7))}
    assert act(CliffordElement(space, {(): x, (1, w + 1): -x}), {(1,): ONE}) == {}
    assert act(cancel, vec) == _act_oracle(cancel, vec)
    # a vector's coefficients may be int, Fraction or GaussRat alike
    for a in (3, -1, 0, Fraction(2, 3)):
        got = act(cancel, {(): a, (1,): Fraction(a) / 5})
        assert got == act(cancel, {(): GaussRat(a), (1,): GaussRat(Fraction(a) / 5)})
        assert got == _act_oracle(cancel, {(): a, (1,): Fraction(a) / 5})


def _mixed_element(sp, rng):
    """A scalar, a generator and a few random monomials with Gaussian
    rational coefficients over different denominators: never homogeneous,
    usually not in any group."""
    terms = {(): _rand_coeff(rng), (rng.randint(1, sp.dim),): _rand_coeff(rng)}
    for _ in range(rng.randint(2, 4)):
        mono = tuple(sorted(rng.sample(range(1, sp.dim + 1), rng.randint(2, min(4, sp.dim)))))
        terms[mono] = _rand_coeff(rng)
    return CliffordElement(sp, terms)


def _action_matrix_oracle(c, src, dst):
    """The matrix of v -> c*v from span(src) to span(dst) by the slow route:
    `act` on each basis vector, read through dst's index."""
    index = {u: k for k, u in enumerate(dst)}
    cols = []
    for u in src:
        col = [GaussRat(0)] * len(dst)
        for v, x in act(c, {u: ONE}).items():
            if v not in index:
                raise ValueError("the module action leaves the target basis")
            col[index[v]] = x
        cols.append(col)
    return Mat.from_cols(cols)


def _module_generators(sp):
    """A faithful module of C(sp): (basis, {j: matrix of the j-th generator}).

    The even space acts on its Fock module.  The odd space maps to the even
    space of the same n along std_split, an isometric embedding, and the
    induced map of Clifford algebras is injective, so its generators act on
    that Fock module through their vector images.  The matrices come from
    `_action_matrix_oracle`, not from `_action_matrix`.
    """
    n = sp.n
    basis = spin_basis(even_space(n), "full")
    if sp.kind == "even":
        images = [gen(sp, j) for j in range(1, sp.dim + 1)]
    else:
        images = std_split(n).images1
    return basis, {j + 1: _action_matrix_oracle(v, basis, basis) for j, v in enumerate(images)}


@pytest.mark.parametrize("sp", [even_space(2), even_space(3), even_space(4), odd_space(2),
                                odd_space(3)],
                         ids=lambda sp: str(sp.n) if sp.kind == "even" else f"odd-{sp.n}")
def test_action_matrix_oracle_for_product_and_beta(sp):
    # A faithful module checks the monomial fold shared by x*y and beta
    # without going through the product code: the matrix of a monomial is
    # the product of its generator matrices, and the matrix of
    # beta(e_s1...e_sr) is that product in reverse order.  On the even
    # space the matrix of an element also comes from the module action of
    # whole monomials.  On the odd space f_{2n-1} has Q = 1, the one nonzero
    # contraction constant outside line spaces.  Up to n = 3 every pair of
    # basis monomials is an input too, so the fold meets each generator
    # against itself, its hyperbolic partner and every other generator.
    n = sp.n
    rng = random.Random(40 + n + 10 * (sp.kind == "odd"))
    basis, gens = _module_generators(sp)
    mats = {}

    def mat(c):
        if c not in mats:
            want = Mat.zeros(len(basis))
            for mono, coeff in c.terms.items():
                term = Mat.identity(len(basis)) * coeff
                for j in mono:
                    term = term * gens[j]
                want = want + term
            if sp.kind == "even":
                assert _action_matrix(c, basis, basis) == want
            mats[c] = want
        return mats[c]

    isotropic = sp.dim if sp.kind == "even" else sp.dim - 1
    elements = []
    pairs = []
    for _ in range(4):
        x = _mixed_element(sp, rng)
        y = _mixed_element(sp, rng) * gen(sp, rng.randint(1, isotropic))  # y*e_j = 0: singular
        assert not x.is_homogeneous()
        assert rank(mat(y)) < len(basis)
        elements += [x, y]
        pairs += [(x, y), (y, x)]
    if n <= 3:
        monos = [
            CliffordElement.monomial(sp, m)
            for r in range(sp.dim + 1)
            for m in combinations(range(1, sp.dim + 1), r)
        ]
        elements += monos
        pairs += [(x, y) for x in monos for y in monos]
    for x, y in pairs:
        assert mat(x * y) == mat(x) * mat(y)
    for z in elements:
        want = Mat.zeros(len(basis))
        for mono, c in z.terms.items():
            term = Mat.identity(len(basis)) * c
            for j in mono:
                term = gens[j] * term
            want = want + term
        assert mat(beta(z)) == want


@pytest.mark.parametrize("q", [GaussRat(-1), GaussRat(2), GaussRat(Fraction(1, 2)),
                               GaussRat(Fraction(2, 3), Fraction(1, 5))], ids=str)
def test_line_space_product_and_beta(q):
    # On a line, (c0 + c1 u)(d0 + d1 u) = (c0 d0 + q c1 d1) + (c0 d1 + c1 d0) u
    # and beta is the identity; the kernel rescales u to make Q(u) a
    # Gaussian integer, which must not show in the result.
    sp = line_space(q)
    rng = random.Random(97)
    for _ in range(12):
        c0, c1, d0, d1 = (_rand_coeff(rng) for _ in range(4))
        x = CliffordElement(sp, {(): c0, (1,): c1})
        y = CliffordElement(sp, {(): d0, (1,): d1})
        assert x * y == CliffordElement(sp, {(): c0 * d0 + q * c1 * d1, (1,): c0 * d1 + c1 * d0})
        assert beta(x) == x
        assert CliffordElement.generator(sp, 1) * CliffordElement.monomial(sp, (1,), c1) == c1 * q


def test_action_matrix_rejects_images_outside_target():
    plus = spin_basis(even_space(3), "+")
    with pytest.raises(ValueError):
        _action_matrix(gen(even_space(3), 1), plus, plus)


def _fractional_vector(sp, rng):
    """An anisotropic vector with three coordinates from `_rand_coeff`."""
    while True:
        coords = [GaussRat(0)] * sp.dim
        for j in rng.sample(range(sp.dim), 3):
            coords[j] = _rand_coeff(rng)
        if sp.quad(coords):
            return CliffordElement.vector(sp, coords)


@pytest.mark.parametrize("sp", [even_space(n) for n in range(2, 6)] + [odd_space(3), odd_space(4)],
                         ids=lambda sp: f"{sp.kind}-{sp.n}")
def test_action_matrices_match_act_on_each_basis_vector(sp):
    # _action_matrix walks every column on masks in one pass; act on each
    # basis vector is the slow route, for group elements of both parities
    # with fractional and imaginary coefficients, for a non-group element,
    # and through every public caller
    rng = random.Random(60 + sp.n + 10 * (sp.kind == "odd"))
    full = spin_basis(sp, "full")
    even = GPinElement(_fractional_vector(sp, rng) * _fractional_vector(sp, rng))
    odd = GPinElement(even.elt * _fractional_vector(sp, rng))
    mixed = _mixed_element(sp, rng)
    assert any(c.im for c in even.elt.terms.values())
    assert any(c.re.denominator > 1 for c in odd.elt.terms.values())
    # each matrix built from its pattern keeps that pattern exact (no zero
    # sums), or equality with the dense oracle would fail
    for g in (even, odd):
        assert assert_exact_pattern(spin_matrix(g).mat) == _action_matrix_oracle(g.elt, full, full)
    assert (assert_exact_pattern(_action_matrix(mixed, full, full))
            == _action_matrix_oracle(mixed, full, full))
    if sp.kind == "even":
        n = sp.n
        plus, minus = spin_basis(sp, "+"), spin_basis(sp, "-")
        for label, block in (("+", plus), ("-", minus)):
            assert (assert_exact_pattern(half_spin_matrix(even, label).mat)
                    == _action_matrix_oracle(even.elt, block, block))
        assert (assert_exact_pattern(_action_matrix(odd.elt, plus, minus))
                == _action_matrix_oracle(odd.elt, plus, minus))
        assert (assert_exact_pattern(theta_intertwiner(n))
                == _action_matrix_oracle(theta_element(sp), plus, minus))


def test_action_matrix_images_outside_target_may_cancel():
    # e_1 and e_1 e_2 e_5 both send m_{2} to m_{12}, outside the "-" block;
    # with opposite signs the images cancel and the matrix exists, with
    # equal signs they leave the target basis
    sp = even_space(3)
    minus = spin_basis(sp, "-")
    wedge = CliffordElement.monomial(sp, (1,))
    detour = CliffordElement.monomial(sp, (1, 2, 5))
    assert act(wedge, {(2,): ONE}) == act(detour, {(2,): ONE}) == {(1, 2): ONE}
    assert (1, 2) not in minus
    src = ((2,), (1, 2, 3))
    cancel = wedge - detour + CliffordElement.scalar(sp, GaussRat(Fraction(2, 3), 1))
    want = _action_matrix_oracle(cancel, src, minus)
    assert not want.is_zero()
    assert _action_matrix(cancel, src, minus) == want
    message = "the module action leaves the target basis"
    for c in (wedge + detour, cancel + wedge):
        with pytest.raises(ValueError, match=message):
            _action_matrix_oracle(c, src, minus)
        with pytest.raises(ValueError, match=message):
            _action_matrix(c, src, minus)


def test_action_matrix_checks_the_element_like_act():
    basis = spin_basis(even_space(2), "full")
    with pytest.raises(TypeError, match="act expects a CliffordElement"):
        _action_matrix(GPinElement(CliffordElement.one(even_space(2))), basis, basis)
    with pytest.raises(ValueError, match="the exterior module is defined"):
        _action_matrix(gen(line_space(GaussRat(2)), 1), ((),), ((),))


# ---------------------------------------------------------------------------
# spin and half-spin matrices


def test_spin_matrix_identity():
    m = spin_matrix(unit(even_space(3)))
    assert m.epsilon == "full"
    assert m.mat == Mat.identity(8)


def test_half_spin_identity():
    for eps in ("+", "-", 1, -1):
        m = half_spin_matrix(unit(even_space(3)), eps)
        assert m.mat == Mat.identity(4)


def test_half_spin_rejects_odd_parity():
    sp = even_space(3)
    v = GPinElement(gen(sp, 1) + gen(sp, 4))
    with pytest.raises(ValueError, match="parity"):
        half_spin_matrix(v, "+")


def test_spin_matrix_of_theta_element():
    # theta swaps the half-spin blocks with scalars -i and +i.
    n = 3
    half = 2 ** (n - 1)
    m = spin_matrix(GPinElement(theta_element(even_space(n)))).mat
    eye = Mat.identity(half)
    for i in range(half):
        for j in range(half):
            assert m[i, j] == GaussRat(0)
            assert m[half + i, half + j] == GaussRat(0)
            assert m[i, half + j] == (-SQRT_M1 if i == j else GaussRat(0)) * eye[i, i]
            assert m[half + i, j] == (SQRT_M1 if i == j else GaussRat(0))


def test_spin_matrix_odd_space_anisotropic_generator():
    sp = odd_space(3)
    m = spin_matrix(GPinElement(gen(sp, 5))).mat
    assert m == Mat.diag([ONE, -ONE, -ONE, ONE])


def test_spin_matrix_multiplicative():
    rng = random.Random(21)
    for n in (3, 4):
        sp = even_space(n)
        for _ in range(6):
            x = random_gpin(sp, rng)
            y = random_gpin(sp, rng)
            assert spin_matrix(x * y).mat == spin_matrix(x).mat * spin_matrix(y).mat


def test_half_spin_multiplicative():
    rng = random.Random(22)
    sp = even_space(3)
    for _ in range(6):
        x = random_gspin(sp, rng)
        y = random_gspin(sp, rng)
        for eps in ("+", "-"):
            lhs = half_spin_matrix(x * y, eps).mat
            rhs = half_spin_matrix(x, eps).mat * half_spin_matrix(y, eps).mat
            assert lhs == rhs


def test_half_spin_block_of_full_spin():
    # The half-spin matrices are cut out of the full matrix, so the reference
    # for each block is the action on its own half basis.
    rng = random.Random(23)
    sp = even_space(3)
    x = random_gspin(sp, rng)
    full = spin_matrix(x).mat
    plus = _action_matrix(x.elt, spin_basis(sp, "+"), spin_basis(sp, "+"))
    minus = _action_matrix(x.elt, spin_basis(sp, "-"), spin_basis(sp, "-"))
    assert half_spin_matrix(x, "+").mat == plus
    assert half_spin_matrix(x, "-").mat == minus
    for i in range(4):
        for j in range(4):
            assert full[i, j] == plus[i, j]
            assert full[4 + i, 4 + j] == minus[i, j]
            assert full[i, 4 + j] == GaussRat(0)
            assert full[4 + i, j] == GaussRat(0)


def test_half_spin_torus_diagonal():
    n = 3
    sp = even_space(n)
    a = [GaussRat(2), GaussRat(3), GaussRat(-1)]
    b = [GaussRat(1), GaussRat(2), GaussRat(5)]
    c = GaussRat(1, 2)
    t = torus_element(sp, c, a, b)
    s0 = c * b[0] * b[1] * b[2]
    s = [a[i] / b[i] for i in range(n)]
    for eps in ("+", "-"):
        m = half_spin_matrix(t, eps).mat
        expected = []
        for u in spin_basis(sp, eps):
            val = s0
            for i in u:
                val = val * s[i - 1]
            expected.append(val)
        assert m == Mat.diag(expected)


def test_half_spin_torus_diagonal_n4():
    n = 4
    sp = even_space(n)
    rng = random.Random(24)
    a = [GaussRat(rng.randint(1, 6)) for _ in range(n)]
    b = [GaussRat(rng.randint(1, 6)) for _ in range(n)]
    c = GaussRat(3)
    t = torus_element(sp, c, a, b)
    s0 = c
    for x in b:
        s0 = s0 * x
    m = half_spin_matrix(t, "+").mat
    for k, u in enumerate(spin_basis(sp, "+")):
        val = s0
        for i in u:
            val = val * (a[i - 1] / b[i - 1])
        assert m[k, k] == val


def _z_eps(space, eps):
    """The central element with coordinates (eps, -1, ..., -1)."""
    s0 = GaussRat(eps)
    return torus_from_s_coords(space, s0, [GaussRat(-1)] * space.n)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("eps", [1, -1])
def test_half_spin_kernel_elements(n, eps):
    sp = even_space(n)
    z = _z_eps(sp, eps)
    same = half_spin_matrix(z, eps).mat
    other = half_spin_matrix(z, -eps).mat
    size = 2 ** (n - 1)
    assert same == Mat.identity(size)
    assert other == Mat.identity(size) * GaussRat(-1)


def test_half_spin_kernel_exhausts_center_torsion():
    # Over the 4 x 2 torsion of the center only 1 and z_eps act trivially
    # on the eps block, and only the identity acts trivially on everything.
    n = 3
    sp = even_space(n)
    eye = Mat.identity(4)
    fourth_roots = [GaussRat(1), SQRT_M1, GaussRat(-1), -SQRT_M1]
    for s0 in fourth_roots:
        for s1 in (GaussRat(1), GaussRat(-1)):
            z = torus_from_s_coords(sp, s0, [s1] * n)
            for eps in (1, -1):
                trivial = half_spin_matrix(z, eps).mat == eye
                is_identity = s0 == GaussRat(1) and s1 == GaussRat(1)
                is_z_eps = s0 == GaussRat(eps) and s1 == GaussRat(-1)
                assert trivial == (is_identity or is_z_eps)
            full_trivial = spin_matrix(z).mat == Mat.identity(8)
            assert full_trivial == (s0 == GaussRat(1) and s1 == GaussRat(1))


# ---------------------------------------------------------------------------
# theta intertwiner


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_theta_intertwiner_is_sqrt_m1_identity(n):
    assert theta_intertwiner(n) == Mat.identity(2 ** (n - 1)) * SQRT_M1


def test_theta_intertwiner_intertwines():
    rng = random.Random(31)
    for n in (3, 4):
        sp = even_space(n)
        th = theta_intertwiner(n)
        for _ in range(5):
            g = random_gspin(sp, rng)
            plus = half_spin_matrix(g, "+").mat
            minus_theta = half_spin_matrix(theta(g), "-").mat
            assert th * plus == minus_theta * th
            # with theta_intertwiner scalar this is an equality on the nose
            assert minus_theta == plus


# ---------------------------------------------------------------------------
# psi


def test_psi_matrix_small_cases():
    for n in (2, 3, 4, 5):
        assert_exact_pattern(psi_matrix(n))
    assert psi_matrix(2) == Mat.identity(2)
    expected = Mat(
        [
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
        ]
    )
    assert psi_matrix(3) == expected


def test_psi_matrix_vacuum_and_f1():
    n = 4
    psi = psi_matrix(n)
    plus = spin_basis(even_space(n), "+")
    src = spin_basis(odd_space(n), "full")
    # vacuum to vacuum
    assert psi[plus.index(()), src.index(())] == ONE
    # f_1 to e_1 ^ e_n
    assert psi[plus.index((1, n)), src.index((1,))] == ONE


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_psi_matrix_is_permutation(n):
    psi = psi_matrix(n)
    size = 2 ** (n - 1)
    assert rank(psi) == size
    for j in range(size):
        col = [psi[i, j] for i in range(size)]
        assert sum(1 for x in col if x) == 1
        assert all(x in (GaussRat(0), ONE) for x in col)


@pytest.mark.parametrize("n", [3, 4])
def test_psi_intertwines_restriction(n):
    rng = random.Random(41)
    psi = psi_matrix(n)
    psi_inv = inverse(psi)
    for _ in range(5):
        g = random_gspin(odd_space(n), rng)
        small = spin_matrix(g).mat
        big = half_spin_matrix(i_std(g), "+").mat
        assert big == psi * small * psi_inv


@pytest.mark.parametrize("n", [3, 4])
def test_restriction_minus_block_matches_plus(n):
    # theta fixes the embedded subgroup and the intertwiner is scalar, so
    # both half-spin restrictions coincide.
    rng = random.Random(42)
    for _ in range(4):
        g = random_gspin(odd_space(n), rng)
        emb = i_std(g)
        assert half_spin_matrix(emb, "-").mat == half_spin_matrix(emb, "+").mat


# ---------------------------------------------------------------------------
# invariant pairing


def _pairing_oracle(n):
    """The pairing's definition inside C(V): ((m_U, m_V)) is the coefficient
    of the top monomial e_1...e_n in beta(m_U) * m_V, one Clifford product
    per pair of basis monomials."""
    space = even_space(n)
    basis = spin_basis(space, "full")
    top = tuple(range(1, n + 1))
    rows = []
    for u in basis:
        bu = beta(CliffordElement.monomial(space, u))
        rows.append([(bu * CliffordElement.monomial(space, v)).coefficient(top) for v in basis])
    return Mat(rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pairing_gram_matches_oracle(n):
    assert assert_exact_pattern(pairing_gram(n)) == _pairing_oracle(n)


def test_pairing_normalization():
    for n in (3, 4):
        basis = spin_basis(even_space(n), "full")
        j = pairing_gram(n)
        assert j[basis.index(()), basis.index(tuple(range(1, n + 1)))] == ONE


@pytest.mark.parametrize("n,kind", [(3, "alternating"), (4, "symmetric"), (5, "symmetric"), (6, "alternating")])
def test_pairing_symmetry_type(n, kind):
    j = pairing_gram(n)
    t = j.transpose()
    if kind == "alternating":
        assert t == j * GaussRat(-1)
    else:
        assert t == j


@pytest.mark.parametrize("n,degenerate", [(3, True), (4, False), (5, True), (6, False)])
def test_pairing_plus_block_restriction(n, degenerate):
    j = pairing_gram(n)
    half = 2 ** (n - 1)
    block = Mat([[j[i, k] for k in range(half)] for i in range(half)])
    if degenerate:
        assert block.is_zero()
    else:
        assert rank(block) == half


def test_pairing_equivariance():
    rng = random.Random(51)
    for n in (3, 4):
        j = pairing_gram(n)
        sp = even_space(n)
        for _ in range(4):
            g = random_gpin(sp, rng)
            m = spin_matrix(g).mat
            assert m.transpose() * j * m == j * g.spinor_norm()


def test_pairing_adjunction():
    # ((c w1, w2)) = ((w1, beta(c) w2)) for arbitrary algebra elements.
    rng = random.Random(52)
    n = 3
    sp = even_space(n)
    j = pairing_gram(n)
    basis = spin_basis(sp, "full")

    def pair(v, w):
        total = GaussRat(0)
        for u, cu in v.items():
            for t, ct in w.items():
                total = total + cu * j[basis.index(u), basis.index(t)] * ct
        return total

    for _ in range(20):
        mono = tuple(sorted(rng.sample(range(1, 2 * n + 1), rng.randint(0, 3))))
        c = CliffordElement.monomial(sp, mono) * GaussRat(rng.randint(1, 4), 1)
        v = {u: GaussRat(rng.randint(-3, 3)) for u in rng.sample(basis, 3)}
        w = {u: GaussRat(rng.randint(-3, 3)) for u in rng.sample(basis, 3)}
        v = {u: x for u, x in v.items() if x}
        w = {u: x for u, x in w.items() if x}
        assert pair(act(c, v), w) == pair(v, act(beta(c), w))


# ---------------------------------------------------------------------------
# plumbing


def test_spin_matrix_type_checks():
    with pytest.raises(TypeError):
        spin_matrix(CliffordElement.one(even_space(3)))
    with pytest.raises(TypeError):
        half_spin_matrix(CliffordElement.one(even_space(3)), "+")
    with pytest.raises(ValueError):
        SpinMatrix("x", Mat.identity(2))


def test_spin_matrices_are_cached_on_the_element(monkeypatch):
    builds = []
    original = spinrep._action_matrix

    def counting(c, src, dst):
        builds.append(len(src))
        return original(c, src, dst)

    monkeypatch.setattr(spinrep, "_action_matrix", counting)
    g = random_gspin(even_space(3), random.Random(5))
    refs = sys.getrefcount(g)
    fingerprint(g)
    full = spin_matrix(g).mat
    plus = half_spin_matrix(g, 1).mat
    minus = half_spin_matrix(g, -1).mat
    assert sys.getrefcount(g) == refs
    assert builds == [8]
    assert spin_matrix(g).mat is full
    assert half_spin_matrix(g, "+").mat == plus
    assert half_spin_matrix(g, -1).mat == minus
    assert builds == [8]


def test_spin_matrix_eq_and_repr():
    m1 = spin_matrix(unit(even_space(2)))
    m2 = spin_matrix(unit(even_space(2)))
    assert m1 == m2
    assert "full" in repr(m1)
