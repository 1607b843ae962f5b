"""Tests for the Clifford algebra layer and the GPin/GSpin machinery."""

import importlib
import json
import pkgutil
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

import gspin
from gspin import clifford
from gspin.clifford import (
    CliffordElement,
    GPinElement,
    OrthogonalSplit,
    QuadSpace,
    beta,
    c_phi,
    even_space,
    i_std,
    line_space,
    odd_space,
    random_gpin,
    random_gspin,
    random_vector,
    std_split,
    theta,
    theta_circ_matrix,
    theta_element,
)
from gspin.exact import SQRT_M1, GaussRat, Mat, inverse
from gspin.rootdata import TorusCoordinates, torus_clifford_element, torus_point
from test_exact import assert_exact_pattern


def gen(space, j):
    return CliffordElement.generator(space, j)


def one(space):
    return CliffordElement.one(space)


def torus_element(space, c, a, b):
    # c * prod_i (a_i e_i e_{n+i} + b_i e_{n+i} e_i)
    n = space.n
    t = CliffordElement.scalar(space, c)
    for i in range(1, n + 1):
        ei, eni = gen(space, i), gen(space, n + i)
        t = t * (ei * eni * a[i - 1] + eni * ei * b[i - 1])
    return GPinElement(t)


# ------------------------------------------------------------------ spaces

def test_space_pairings_even():
    v = even_space(3)
    assert v.dim == 6
    assert v.pair(1, 4) == 1
    assert v.pair(4, 1) == 1
    assert v.pair(1, 2) == 0
    assert v.q(1) == 0
    assert v.quad([1, 0, 0, 1, 0, 0]) == GaussRat(1)


def test_space_pairings_odd():
    w = odd_space(3)
    assert w.dim == 5
    assert w.pair(1, 3) == 1
    assert w.pair(2, 4) == 1
    assert w.pair(1, 5) == 0
    assert w.q(5) == 1
    assert w.pair(5, 5) == 2
    assert w.quad([0, 0, 0, 0, 2]) == GaussRat(4)


def test_space_gram_symmetric():
    for space in (even_space(2), odd_space(3), line_space(GaussRat(-1))):
        g = space.gram()
        assert g == g.transpose()


def old_generator_table(space):
    """The per-generator table each space used to keep: g's partner p > g
    (0 if none) and the Gaussian-integer numerators of Q(g) * D^2 (None
    when Q(g) = 0), with h = dim // 2 and D = space.scale."""
    h, d = space.dim // 2, space.scale
    table = []
    for g in range(1, space.dim + 1):
        q = space.q(g) * d ** 2
        table.append((g + h if g <= h else 0, (q.re.numerator, q.im.numerator) if q else None))
    return table


TABLE_SPACES = ([even_space(n) for n in range(2, 6)] + [odd_space(n) for n in range(2, 6)]
                + [line_space(-1), line_space(GaussRat(-3)), line_space(GaussRat(1, 2)),
                   line_space(GaussRat(Fraction(2, 3), Fraction(1, 5)))])


@pytest.mark.parametrize("space", TABLE_SPACES, ids=repr)
def test_pairing_matches_the_old_generator_table(space):
    table = old_generator_table(space)
    for j in range(1, space.dim + 1):
        for k in range(1, space.dim + 1):
            want = (GaussRat(2) * space.q(j) if j == k
                    else GaussRat(int(table[min(j, k) - 1][0] == max(j, k))))
            assert space.pair(j, k) == want, (j, k)
    # only the top generator can be anisotropic, so a space keeps its Q alone
    assert [q for _, q in table[:-1]] == [None] * (space.dim - 1)
    assert space._top_q == table[-1][1]


def test_large_spaces_hold_constant_size_data():
    # QuadSpace._interned keeps every space for the life of the process, so
    # building one must not allocate anything that grows with n
    tracemalloc.start()
    try:
        even_space(5000)
        odd_space(5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    space = even_space(5000)
    assert space.pair(1, 5001) == 1 and space.pair(5000, 10000) == 1
    assert gen(space, 5001) * gen(space, 1) == CliffordElement(space, {(): 1, (1, 5001): -1})


@pytest.mark.parametrize("kind, n", [("even", 1), ("even", 4), ("odd", 2), ("odd", 5)])
def test_each_space_is_one_object(kind, n):
    space = {"even": even_space, "odd": odd_space}[kind](n)
    assert QuadSpace(kind, n) is space
    assert QuadSpace.from_json(space.to_json()) is space
    assert QuadSpace.from_json(json.loads(json.dumps(space.to_json()))) is space
    assert not {"__eq__", "__hash__"} & set(vars(QuadSpace))
    assert "_hash" not in QuadSpace.__slots__


def test_line_spaces_are_one_object_per_q():
    assert line_space(-1) is std_split(3).source2
    half = line_space(Fraction(1, 2))
    assert half is line_space(GaussRat(Fraction(1, 2)))
    assert QuadSpace.from_json(half.to_json()) is half
    assert half.scale == 2


def test_distinct_spaces_are_distinct_objects():
    spaces = [even_space(2), even_space(3), odd_space(2), odd_space(3), line_space(1),
              line_space(-1), line_space(GaussRat(1, 1)), line_space(Fraction(1, 2))]
    assert len({id(s) for s in spaces}) == len(spaces)
    assert even_space(2) != even_space(3)
    assert even_space(2) != odd_space(2)
    assert line_space(1) != line_space(-1)


@pytest.mark.parametrize("args, message", [
    (("even", 0), "even space needs n >= 1"),
    (("even", True), "even space needs n >= 1"),
    (("even", 2.0), "even space needs n >= 1"),
    (("even", "3"), "even space needs n >= 1"),
    (("odd", 1), "odd space needs n >= 2"),
    (("odd", False), "odd space needs n >= 2"),
    (("line",), "line space needs a Q-value"),
    (("plane", 2), "unknown space kind 'plane'"),
])
def test_space_validation_messages(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        QuadSpace(*args)


def test_spaces_survive_clearing_the_clifford_caches():
    # The intern table is not a functools cache: clearing those must not
    # split a space into two objects.
    x = gen(even_space(4), 1)
    for f in vars(clifford).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    assert even_space(4) is x.space
    assert x * gen(even_space(4), 5) == CliffordElement.monomial(even_space(4), (1, 5))


@pytest.mark.parametrize("mono", [(1.0,), (True,), (1, 2.0), ("1",)])
def test_monomial_indices_must_be_ints(mono):
    with pytest.raises(ValueError, match="out of range"):
        CliffordElement(even_space(2), {mono: 1})


def test_generator_index_must_be_an_int():
    with pytest.raises(ValueError, match="out of range"):
        CliffordElement.generator(even_space(2), True)


# -------------------------------------------------------------------- mul

def test_hyperbolic_pair_relation():
    v = even_space(3)
    e1, e4 = gen(v, 1), gen(v, 4)
    assert e1 * e4 + e4 * e1 == one(v)


def test_isotropic_square():
    v = even_space(3)
    assert (gen(v, 1) * gen(v, 1)).is_zero()


def test_odd_space_anisotropic_square():
    w = odd_space(3)
    assert gen(w, 5) * gen(w, 5) == one(w)


def test_theta_element_squares_to_one():
    v = even_space(3)
    th = theta_element(v)
    assert th * th == one(v)


def test_vector_squares_to_q():
    rng = Random(5)
    for n in (2, 3, 4):
        for space in (even_space(n), odd_space(n)):
            for _ in range(10):
                v = random_vector(space, rng, anisotropic=False)
                q = space.quad(v.as_vector())
                assert v * v == CliffordElement.scalar(space, q)


def test_anticommutator_is_pairing():
    rng = Random(7)
    for n in (3, 4):
        space = even_space(n)
        for _ in range(20):
            v = random_vector(space, rng, anisotropic=False)
            w = random_vector(space, rng, anisotropic=False)
            lhs = v * w + w * v
            assert lhs == CliffordElement.scalar(space, space.bilinear(v.as_vector(), w.as_vector()))


def test_mul_associative():
    rng = Random(9)
    space = even_space(3)
    for _ in range(8):
        x = random_gpin(space, rng).elt
        y = random_vector(space, rng)
        z = random_gpin(space, rng).elt
        assert (x * y) * z == x * (y * z)


def test_space_mismatch_rejected():
    with pytest.raises(ValueError):
        gen(even_space(3), 1) * gen(even_space(4), 1)


# ------------------------------------------------------------------- beta

def test_beta_examples():
    v = even_space(3)
    assert beta(one(v)) == one(v)
    e1e2 = gen(v, 1) * gen(v, 2)
    assert beta(e1e2) == -e1e2
    assert beta(theta_element(v)) == theta_element(v)


def test_beta_is_anti_involution():
    rng = Random(11)
    space = even_space(3)
    for _ in range(10):
        x = random_gpin(space, rng).elt
        y = random_gpin(space, rng).elt
        assert beta(beta(x)) == x
        assert beta(x * y) == beta(y) * beta(x)


# ------------------------------------------------- product kernel oracle

def push_generator_oracle(space, mono, g):
    """e_mono * e_g for the rescaled generators e = D * (basis vector),
    D = space.scale, as (monomial, kr, ki) terms with Gaussian-integer
    constants kr + ki*i.  Folding from the right with s = max(mono): if
    s < g append; if s = g contract to Q(e_g) = D^2 Q(g); if s > g use
    e_s e_g = <e_s, e_g> - e_g e_s and recurse."""
    if not mono:
        return [((g,), 1, 0)]
    s = mono[-1]
    if s < g:
        return [(mono + (g,), 1, 0)]
    if s == g:
        k = space.q(g) * space.scale ** 2
        return [(mono[:-1], k.re.numerator, k.im.numerator)] if k else []
    k = space.pair(s, g) * space.scale ** 2
    out = [(mono[:-1], k.re.numerator, k.im.numerator)] if k else []
    rest = push_generator_oracle(space, mono[:-1], g)
    return out + [(sub + (s,), -kr, -ki) for sub, kr, ki in rest]


def oracle_element(space, terms, length):
    """The element of oracle terms from a product of `length` rescaled generators."""
    d = space.scale
    acc = {}
    for m, kr, ki in terms:
        c = GaussRat(kr, ki) * GaussRat(Fraction(d ** len(m), d ** length))
        acc[m] = acc.get(m, GaussRat(0)) + c
    return CliffordElement(space, acc)


def all_monomials(space):
    return [m for r in range(space.dim + 1) for m in combinations(range(1, space.dim + 1), r)]


KERNEL_SPACES = [even_space(2), even_space(3), odd_space(2), odd_space(3), line_space(-1),
                 line_space(GaussRat(Fraction(2, 3), Fraction(1, 5)))]


@pytest.mark.parametrize("space", KERNEL_SPACES, ids=repr)
def test_product_kernel_matches_recursive_push(space):
    for mono in all_monomials(space):
        x = CliffordElement.monomial(space, mono)
        for g in range(1, space.dim + 1):
            want = oracle_element(space, push_generator_oracle(space, mono, g), len(mono) + 1)
            assert x * gen(space, g) == want, (mono, g)
        frontier = [((), 1, 0)]
        for g in reversed(mono):
            frontier = [(m2, r * kr - i * ki, r * ki + i * kr) for m, r, i in frontier
                        for m2, kr, ki in push_generator_oracle(space, m, g)]
        assert beta(x) == oracle_element(space, frontier, len(mono)), mono


# ----------------------------------------------------------- GPin, norms

def test_spinor_norm_of_scalar_is_square():
    v = even_space(3)
    for c in (GaussRat(2), GaussRat(-3), SQRT_M1, GaussRat(1, 2)):
        g = GPinElement(CliffordElement.scalar(v, c))
        assert g.spinor_norm() == c * c


def test_spinor_norm_of_theta_element():
    g = GPinElement(theta_element(even_space(4)))
    assert g.spinor_norm() == 1


def test_spinor_norm_of_torus_element():
    rng = Random(13)
    for n in (2, 3):
        space = even_space(n)
        c = GaussRat(rng.randint(1, 5))
        a = [GaussRat(rng.randint(1, 5)) for _ in range(n)]
        b = [GaussRat(rng.randint(1, 5)) for _ in range(n)]
        t = torus_element(space, c, a, b)
        want = c * c
        for ai, bi in zip(a, b):
            want = want * ai * bi
        assert t.spinor_norm() == want


def test_spinor_norm_multiplicative():
    rng = Random(17)
    for n in (3, 4):
        space = even_space(n)
        for _ in range(10):
            g, h = random_gpin(space, rng), random_gpin(space, rng)
            # fully checked product: g * h composes its norm from N(g) N(h)
            assert GPinElement(g.elt * h.elt).spinor_norm() == g.spinor_norm() * h.spinor_norm()


def test_gpin_rejects_bad_elements():
    v = even_space(3)
    # 2 + w1...w6 for an orthogonal basis of anisotropic vectors: its norm is
    # a nonzero scalar, but w1...w6 anticommutes with V
    volume = one(v)
    for j in (1, 2, 3):
        volume = volume * (gen(v, j) + gen(v, 3 + j)) * (gen(v, j) - gen(v, 3 + j))
    cases = [
        (CliffordElement(v, {}), "zero is not in GPin"),
        (one(v) + gen(v, 1), "GPin elements must be homogeneous in the grading"),
        (gen(v, 1), "spinor norm is zero: element is not invertible"),  # isotropic
        # x*beta(x) = -2 e1e2e3e4
        (gen(v, 1) * gen(v, 2) + gen(v, 3) * gen(v, 4),
         "x*beta(x) is not scalar: element is not in GPin"),
        (one(v) * 2 + volume, "conjugation does not stabilize V: element is not in GPin"),
    ]
    for elt, message in cases:
        with pytest.raises(ValueError) as err:
            GPinElement(elt)
        assert str(err.value) == message


def membership_oracle(elt):
    """The membership check through public arithmetic: beta(x), x * beta(x),
    then elt * e_j * inv for inv = beta(x)/N.  Returns (N, pr_circ) or raises
    ValueError with the check's message."""
    if elt.is_zero():
        raise ValueError("zero is not in GPin")
    if not elt.is_homogeneous():
        raise ValueError("GPin elements must be homogeneous in the grading")
    b = beta(elt)
    nrm = elt * b
    if any(m != () for m in nrm.terms):
        raise ValueError("x*beta(x) is not scalar: element is not in GPin")
    norm = nrm.coefficient(())
    if not norm:
        raise ValueError("spinor norm is zero: element is not invertible")
    inv = b / norm
    cols = []
    for j in range(1, elt.space.dim + 1):
        coords = (elt * gen(elt.space, j) * inv).as_vector()
        if coords is None:
            raise ValueError("conjugation does not stabilize V: element is not in GPin")
        cols.append(coords)
    return norm, Mat.from_cols(cols)


def _outcome(check, elt):
    try:
        return check(elt)
    except ValueError as err:
        return str(err)


def _fraction(rng):
    return GaussRat(Fraction(rng.randint(-7, 7), rng.randint(1, 6)),
                    Fraction(rng.randint(-7, 7), rng.randint(1, 6)))


def fractional_vector(space, rng):
    """An anisotropic vector with at most three Gaussian-rational coordinates."""
    while True:
        coords = [GaussRat(0)] * space.dim
        for j in rng.sample(range(space.dim), rng.randint(1, min(3, space.dim))):
            coords[j] = _fraction(rng)
        if space.quad(coords):
            return CliffordElement.vector(space, coords)


# lines with a Gaussian-integer Q and with scale 15
FRACTIONAL_LINE = line_space(GaussRat(Fraction(2, 3), Fraction(1, 5)))
CHECK_SPACES = [even_space(2), even_space(3), even_space(4), odd_space(2), odd_space(3),
                odd_space(4), line_space(GaussRat(-3)), line_space(GaussRat(1, 2)), FRACTIONAL_LINE]


@pytest.mark.parametrize("space", CHECK_SPACES, ids=repr)
def test_membership_check_matches_oracle_on_members(space):
    assert space.scale == (15 if space is FRACTIONAL_LINE else 1)
    rng = Random(83 + 10 * space.dim + len(space.kind))
    for _ in range(6):
        x = CliffordElement.scalar(space, _fraction(rng) or GaussRat(1))
        for _ in range(rng.randint(0, 3)):
            x = x * fractional_vector(space, rng)
        g = GPinElement(x)
        assert (g.spinor_norm(), g.pr_circ()) == membership_oracle(x)


@pytest.mark.parametrize("space", CHECK_SPACES, ids=repr)
def test_membership_check_matches_oracle_on_random_elements(space):
    # sums of a few random monomials of one parity, and products of vectors
    # with or without one such monomial added: members and non-members
    rng = Random(89 + 10 * space.dim + len(space.kind))
    monos = all_monomials(space)
    outcomes = set()
    for k in range(40):
        parity = rng.randint(0, 1)
        if k % 2:
            x = fractional_vector(space, rng)
            if parity == 0:
                x = x * fractional_vector(space, rng)
            terms = {} if k % 4 == 1 else {rng.choice(monos[1:] if parity else monos): 1}
        else:
            x, terms = CliffordElement(space, {}), {}
            for _ in range(rng.randint(1, 3)):
                terms[rng.choice([m for m in monos if len(m) % 2 == parity])] = 1
        x = x + CliffordElement(space, {m: _fraction(rng) for m in terms})
        fast = _outcome(lambda e: (lambda g: (g.spinor_norm(), g.pr_circ()))(GPinElement(e)), x)
        assert fast == _outcome(membership_oracle, x), x
        outcomes.add(fast if isinstance(fast, str) else "member")
    # on a line every nonzero homogeneous element is a member
    assert "member" in outcomes
    assert len(outcomes) >= (2 if space.kind == "line" else 3), outcomes


def odd_volume():
    v = odd_space(4)
    volume = one(v)
    for j in (1, 2, 3):
        volume = volume * (gen(v, j) + gen(v, 3 + j)) * (gen(v, j) - gen(v, 3 + j))
    return volume


NON_MEMBERS = [
    (CliffordElement(even_space(3), {}), "zero is not in GPin"),
    (one(odd_space(3)) + gen(odd_space(3), 1) * gen(odd_space(3), 2) * gen(odd_space(3), 5),
     "GPin elements must be homogeneous in the grading"),
    (one(FRACTIONAL_LINE) + gen(FRACTIONAL_LINE, 1),
     "GPin elements must be homogeneous in the grading"),
    (gen(even_space(3), 1) * gen(even_space(3), 2) + gen(even_space(3), 3) * gen(even_space(3), 4),
     "x*beta(x) is not scalar: element is not in GPin"),
    (gen(odd_space(3), 1) * gen(odd_space(3), 5) + gen(odd_space(3), 2) * gen(odd_space(3), 4) / 3,
     "x*beta(x) is not scalar: element is not in GPin"),
    (gen(even_space(3), 1) * GaussRat(Fraction(2, 3)), "spinor norm is zero: element is not invertible"),
    (gen(odd_space(3), 2), "spinor norm is zero: element is not invertible"),
    (gen(line_space(0), 1), "spinor norm is zero: element is not invertible"),
    # 2 + w1...w6 for an orthogonal basis w of span(f1..f6) in the odd space
    # of dim 7: w1...w6 anticommutes with that span
    (2 + odd_volume(), "conjugation does not stabilize V: element is not in GPin"),
]


@pytest.mark.parametrize("elt, message", NON_MEMBERS, ids=lambda v: repr(v)[:40])
def test_membership_check_messages_match_oracle(elt, message):
    assert _outcome(membership_oracle, elt) == message
    with pytest.raises(ValueError) as err:
        GPinElement(elt)
    assert str(err.value) == message


def test_product_across_spaces_of_equal_dimension_is_rejected():
    # both lines have dim 1, so the 1x1 pr_circ matrices would multiply
    g = GPinElement(gen(line_space(2), 1))
    h = GPinElement(gen(line_space(3), 1))
    with pytest.raises(ValueError, match="different quadratic spaces"):
        g * h
    with pytest.raises(ValueError, match="different quadratic spaces"):
        h * g


def _assert_matches_full_check(x):
    y = GPinElement(x.elt)
    assert x.elt == y.elt
    assert x.space == y.space
    assert x.parity == y.parity
    assert x.spinor_norm() == y.spinor_norm()
    assert x.pr_circ() == y.pr_circ()
    # equality of matrices is exact only on exact patterns
    assert_exact_pattern(x.pr_circ())
    assert_exact_pattern(y.pr_circ())
    assert x.elt * x.inverse().elt == CliffordElement.one(x.space)


ORACLE_SPACES = ([even_space(n) for n in (3, 4, 5)] + [odd_space(n) for n in (3, 4, 5)]
                 + [line_space(GaussRat(-3))])


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=repr)
def test_composed_elements_match_full_check(space):
    rng = Random(71 + 10 * space.dim + len(space.kind))
    g = random_gpin(space, rng, factors=1)
    h = random_gpin(space, rng, factors=2)
    assert (g.parity, h.parity) == (1, 0)
    composed = [g * h, h * g, g * g, h * h, g.inverse(), h.inverse()]
    composed += [x ** k for x in (g, h) for k in (-2, 0, 3)]
    if space.kind == "even":
        composed += [theta(g), theta(h), theta(g * h)]
        s = TorusCoordinates([GaussRat(rng.choice((-1, 1)) * rng.randint(2, 5))
                              for _ in range(space.n + 1)])
        # a factor with a_i = b_i is the scalar a_i and is folded into c (for
        # torus points, every s_i = 1); the points must still equal the
        # product of all n + 1 factors
        ones = [GaussRat(1)] * space.n
        for t in (s, TorusCoordinates([s[0]] + ones), TorusCoordinates([s[0], s[1]] + ones[1:])):
            assert torus_point(t).elt == torus_element(space, t[0], t.s[1:], ones).elt
            composed.append(torus_point(t))
        a, b = s.s[1:], [s[1]] + ones[1:]
        t = torus_clifford_element(s[0], a, b)
        assert t.elt == torus_element(space, s[0], a, b).elt
        composed += [t, torus_point(s) * g]
    for x in composed:
        _assert_matches_full_check(x)


def test_membership_check_grows_no_module_cache():
    # The product kernel keeps nothing between calls: a dense n = 5 check
    # leaves every module-level cache of gspin as it was, so no table grows
    # with the input.
    space = even_space(5)
    rng = Random(5)
    x = one(space)
    for _ in range(4):
        x = x * random_vector(space, rng, span=3, nnz=space.dim)
    assert len(x.terms) > 150
    modules = [gspin] + [importlib.import_module(f"gspin.{m.name}")
                         for m in pkgutil.iter_modules(gspin.__path__)]
    caches = [obj for module in modules for obj in vars(module).values()
              if hasattr(obj, "cache_info")]
    assert caches
    before = [f.cache_info().currsize for f in caches]
    GPinElement(x)
    assert [f.cache_info().currsize for f in caches] == before


def test_group_operations_derive_no_inverse(monkeypatch):
    # beta(x)/N is the inverse element; only inverse() builds it, from
    # beta's numerators in one pass.  Neither inverse() nor the membership
    # check calls beta or divides an element.
    space = even_space(4)
    rng = Random(23)
    g, h = random_gpin(space, rng), random_gpin(space, rng)
    s = TorusCoordinates((2, 3, 5, 7, 11))
    counts = {"beta": 0, "div": 0, "checks": 0}
    full_beta, full_div = clifford.beta, CliffordElement.__truediv__
    full_check = GPinElement.__init__

    def counting_beta(x):
        counts["beta"] += 1
        return full_beta(x)

    def counting_div(x, c):
        counts["div"] += 1
        return full_div(x, c)

    def counting_check(self, elt):
        counts["checks"] += 1
        full_check(self, elt)

    monkeypatch.setattr(clifford, "beta", counting_beta)
    monkeypatch.setattr(CliffordElement, "__truediv__", counting_div)
    monkeypatch.setattr(GPinElement, "__init__", counting_check)

    def cost(op):
        counts.update(beta=0, div=0, checks=0)
        op()
        return counts["beta"], counts["div"], counts["checks"]

    assert cost(lambda: g * h) == (0, 0, 0)
    assert cost(lambda: g ** 3) == (0, 0, 0)
    assert cost(lambda: theta(g)) == (0, 0, 0)
    assert cost(lambda: g.inverse()) == (0, 0, 0)
    assert cost(lambda: GPinElement(g.elt)) == (0, 0, 1)
    # a torus point checks one small factor per coordinate s_i != 1 in full
    # (the first takes s_0) and composes the rest; with every s_i = 1 it
    # checks the scalar s_0 alone
    assert cost(lambda: torus_point(s)) == (0, 0, 4)
    assert cost(lambda: torus_point(TorusCoordinates((2, 1, 1, 1, 1)))) == (0, 0, 1)
    assert cost(lambda: torus_point(TorusCoordinates((2, 3, 1, 1, 1)))) == (0, 0, 1)


def test_gpin_inverse_and_power():
    rng = Random(19)
    space = even_space(3)
    g = random_gpin(space, rng)
    assert (g * g.inverse()).elt == one(space)
    assert (g ** 3).elt == (g * g * g).elt
    assert (g ** -1) == g.inverse()


def _oracle_operands(space, rng):
    """Fully checked and composed elements with integer and fractional coefficients."""
    g, h = random_gpin(space, rng), random_gpin(space, rng, factors=1)
    f = GPinElement(fractional_vector(space, rng) * fractional_vector(space, rng))
    return [g, h, f, g * h, f * h, h.inverse() * f]


@pytest.mark.parametrize("space", CHECK_SPACES, ids=repr)
def test_inverse_pr_circ_matches_matrix_inverse(space):
    rng = Random(97 + 10 * space.dim + len(space.kind))
    for x in _oracle_operands(space, rng):
        assert x.inverse().pr_circ() == inverse(x.pr_circ())


@pytest.mark.parametrize("space", CHECK_SPACES, ids=repr)
def test_inverse_element_matches_beta_over_norm(space):
    # inverse() scales beta(x)'s numerators by 1/N in one pass; beta and an
    # element division are the slow route, term for term and in order
    rng = Random(103 + 10 * space.dim + len(space.kind))
    for x in _oracle_operands(space, rng):
        got = x.inverse().elt
        assert list(got.terms.items()) == list((beta(x.elt) / x.spinor_norm()).terms.items())
        assert x.elt * got == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_theta_pr_circ_matches_matrix_conjugation(n):
    space = even_space(n)
    rng = Random(101 + n)
    t = theta_circ_matrix(n)
    for x in _oracle_operands(space, rng):
        assert theta(x).pr_circ() == t * x.pr_circ() * t


# --------------------------------------------------------------- pr_circ

def test_pr_circ_of_scalar_is_identity():
    v = even_space(3)
    g = GPinElement(CliffordElement.scalar(v, GaussRat(7)))
    assert g.pr_circ() == Mat.identity(6)


def test_pr_circ_of_theta_element():
    for n in (2, 3, 4):
        g = GPinElement(theta_element(even_space(n)))
        assert g.pr_circ() == assert_exact_pattern(theta_circ_matrix(n))


def test_pr_circ_of_torus_is_diagonal():
    space = even_space(3)
    a = [GaussRat(2), GaussRat(3), GaussRat(5)]
    b = [GaussRat(1), GaussRat(1), GaussRat(2)]
    t = torus_element(space, GaussRat(1), a, b)
    s = [ai / bi for ai, bi in zip(a, b)]
    assert t.pr_circ() == Mat.diag(s + [GaussRat(1) / si for si in s])


def test_pr_circ_preserves_form():
    rng = Random(23)
    for n in (3, 4):
        for space in (even_space(n), odd_space(n)):
            gram = space.gram()
            for _ in range(6):
                m = random_gpin(space, rng).pr_circ()
                assert m.transpose() * gram * m == gram


def test_pr_circ_homomorphism():
    rng = Random(29)
    space = even_space(3)
    for _ in range(8):
        g, h = random_gpin(space, rng), random_gpin(space, rng)
        # fully checked product: g * h composes its pr_circ from those of g and h
        assert GPinElement(g.elt * h.elt).pr_circ() == g.pr_circ() * h.pr_circ()


def test_kernel_of_pr_circ_and_norm_is_mu2():
    # scalar candidates: pr_circ is I for all of them, norm c^2 = 1 cuts to +-1
    v = even_space(3)
    hits = []
    for c in (GaussRat(1), GaussRat(-1), SQRT_M1, -SQRT_M1, GaussRat(2)):
        g = GPinElement(CliffordElement.scalar(v, c))
        if g.pr_circ() == Mat.identity(6) and g.spinor_norm() == 1:
            hits.append(c)
    assert hits == [GaussRat(1), GaussRat(-1)]


# --------------------------------------------------------------------- pr

def _twisted(g):
    """Matrix of v -> x v beta(x), computed from the element."""
    x, bx = g.elt, beta(g.elt)
    return Mat.from_cols([(x * gen(g.space, j) * bx).as_vector() for j in range(1, g.space.dim + 1)])


def test_pr_examples():
    v = even_space(3)
    assert _twisted(GPinElement(one(v))) == Mat.identity(6)
    g = GPinElement(CliffordElement.scalar(v, GaussRat(3)))
    assert _twisted(g) == Mat.identity(6) * GaussRat(9)
    assert _twisted(GPinElement(theta_element(v))) == theta_circ_matrix(3)


def test_pr_factorization_and_similitude():
    rng = Random(31)
    for n in (3, 4):
        space = even_space(n)
        gram = space.gram()
        for _ in range(8):
            g = random_gpin(space, rng)
            m = _twisted(g)
            assert m == g.pr_circ() * g.spinor_norm()
            # sim(pr(g)) = N(g)^2: M^T G M = sim * G
            assert m.transpose() * gram * m == gram * (g.spinor_norm() ** 2)


# ------------------------------------------------------------------ c_phi

def test_c_phi_identity():
    split = std_split(3)
    assert c_phi(one(split.source1), one(split.source2), split) == one(split.target)


def test_c_phi_index_map_example():
    n = 3
    split = std_split(n)
    w = split.source1
    x = gen(w, 1) * gen(w, 2 * n - 1)     # f_1 f_{2n-1}
    got = c_phi(x, one(split.source2), split)
    v = split.target
    want = gen(v, 1) * (gen(v, n) + gen(v, 2 * n))
    assert got == want
    # e1' -> e_3 and e2' -> e_1 + e_2 in V_4, so e1'e2' -> 1 - e_1e_3 - e_2e_3
    # and the scalar of e1'e2' - 1 cancels in the embedding.
    v = even_space(2)
    split = OrthogonalSplit(v, even_space(1), [gen(v, 3), gen(v, 1) + gen(v, 2)],
                            even_space(1), [gen(v, 2), gen(v, 4) - gen(v, 3)])
    x = CliffordElement(split.source1, {(1, 2): 1, (): -1})
    got = split.embed1(x)
    assert got.terms == {(1, 3): GaussRat(-1), (2, 3): GaussRat(-1)}
    assert c_phi(x, one(split.source2), split) == got


def test_c_phi_rejects_non_orthogonal_split():
    v = even_space(2)
    with pytest.raises(ValueError):
        OrthogonalSplit(
            v,
            even_space(1), [gen(v, 1), gen(v, 3)],
            even_space(1), [gen(v, 1), gen(v, 4)],   # shares e_1: not orthogonal
        )


def test_c_phi_block_diagonal_on_even_pairs():
    # V_4 = V_2 perp V_2 via e1,e3 and e2,e4
    v = even_space(2)
    split = OrthogonalSplit(
        v,
        even_space(1), [gen(v, 1), gen(v, 3)],
        even_space(1), [gen(v, 2), gen(v, 4)],
    )
    rng = Random(37)
    p = split.change_of_basis()
    from gspin.exact import inverse
    pinv = inverse(p)
    for _ in range(8):
        g = random_gspin(split.source1, rng)
        h = random_gspin(split.source2, rng)
        big = GPinElement(c_phi(g.elt, h.elt, split))
        gm, hm = g.pr_circ(), h.pr_circ()
        block = Mat([[gm[0, 0], gm[0, 1], 0, 0],
                     [gm[1, 0], gm[1, 1], 0, 0],
                     [0, 0, hm[0, 0], hm[0, 1]],
                     [0, 0, hm[1, 0], hm[1, 1]]])
        assert big.pr_circ() == p * block * pinv


def test_c_phi_graded_beta_rule():
    # beta(c_phi(a,b)) = (-1)^{p(a) p(b)} c_phi(beta(a), beta(b))
    rng = Random(41)
    n = 3
    split = std_split(n)
    for pa in (0, 1):
        for pb in (0, 1):
            a = one(split.source1)
            for _ in range(2 + pa):
                a = a * random_vector(split.source1, rng)
            b = one(split.source2)
            if pb:
                b = b * gen(split.source2, 1)
            lhs = beta(c_phi(a, b, split))
            rhs = c_phi(beta(a), beta(b), split)
            if pa * pb % 2:
                rhs = -rhs
            assert lhs == rhs


# ------------------------------------------------------------------ i_std

def test_i_std_identity():
    w = odd_space(3)
    g = GPinElement(one(w))
    assert i_std(g).elt == one(even_space(3))


def test_i_std_index_map_example():
    n = 3
    w = odd_space(n)
    v = even_space(n)
    x = gen(w, 1) * gen(w, n)          # f_1 f_n, not invertible: algebra-level map
    assert std_split(n).embed1(x) == gen(v, 1) * gen(v, n + 1)
    with pytest.raises(TypeError):
        i_std(x)


def test_i_std_group_morphism():
    rng = Random(43)
    w = odd_space(3)
    for _ in range(6):
        g, h = random_gspin(w, rng), random_gspin(w, rng)
        assert i_std(g * h) == i_std(g) * i_std(h)


def test_theta_element_centralizes_i_std_image():
    rng = Random(47)
    for n in (3, 4):
        w = odd_space(n)
        for _ in range(8):
            g = random_gspin(w, rng)
            assert theta(i_std(g)) == i_std(g)


# ------------------------------------------------------------------ theta

def test_theta_identity_and_involution():
    rng = Random(53)
    space = even_space(3)
    assert theta(GPinElement(one(space))).elt == one(space)
    for _ in range(6):
        g = random_gpin(space, rng)
        assert theta(theta(g)) == g


def test_theta_on_vector_side():
    rng = Random(59)
    for n in (3, 4):
        space = even_space(n)
        tc = theta_circ_matrix(n)
        for _ in range(6):
            g = random_gpin(space, rng)
            # fully checked: theta(g) composes its pr_circ as tc * pr_circ(g) * tc
            assert GPinElement(theta(g).elt).pr_circ() == tc * g.pr_circ() * tc


def test_theta_on_torus_coordinates():
    # theta: (s0, s1, ..., sn) -> (s0*sn, s1, ..., s_{n-1}, sn^{-1})
    rng = Random(61)
    for n in (2, 3):
        space = even_space(n)
        c = GaussRat(rng.randint(1, 4))
        a = [GaussRat(rng.randint(1, 4)) for _ in range(n)]
        b = [GaussRat(rng.randint(1, 4)) for _ in range(n)]
        t = torus_element(space, c, a, b)
        s0 = c
        for bi in b:
            s0 = s0 * bi
        s = [ai / bi for ai, bi in zip(a, b)]
        tt = theta(t)
        diag = tt.pr_circ()
        assert diag.is_diagonal()
        got_s = [diag[i, i] for i in range(n)]
        assert got_s == s[:-1] + [GaussRat(1) / s[-1]]
        # s0 of the image is the coefficient of the empty monomial
        assert tt.elt.coefficient(()) == s0 * s[-1]


# ------------------------------------------------------------------- JSON

def test_clifford_json_roundtrip():
    rng = Random(67)
    for space in (even_space(3), odd_space(3)):
        x = random_gpin(space, rng).elt
        assert CliffordElement.from_json(x.to_json()) == x
