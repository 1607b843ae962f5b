"""Tests for the exact linear algebra kernel.

charpoly gets two independent oracles: a Faddeev-LeVerrier implementation
written from the trace recurrence (below), and sympy; its integer minor
recurrence is also checked against the same recurrence on lists of GaussRat
coefficients.  Poly products are checked against a GaussRat double loop
written here.  Expected values in the frozen examples were computed by hand.
"""

from fractions import Fraction
from random import Random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gspin.clifford import CliffordElement, GPinElement, even_space
from gspin.exact import (
    SQRT_M1,
    GaussRat,
    Mat,
    Poly,
    _components,
    _numerators,
    _over,
    charpoly,
    exp_nilpotent,
    inverse,
    jordan_partition,
    rank,
)
from gspin.rootdata import TorusCoordinates, torus_point
from gspin.spinrep import half_spin_matrix


def trace(m):
    return sum((m[i, i] for i in range(m.nrows)), GaussRat(0))


def charpoly_faddeev_leverrier(m):
    # oracle: c_{n-k} = -tr(A * M_{k-1}) / k, M_k = A*M_{k-1} + c_{n-k} I
    n = m.nrows
    coeffs = [GaussRat(0)] * (n + 1)
    coeffs[n] = GaussRat(1)
    mk = Mat.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        ck = -(trace(mk) * GaussRat(Fraction(1, k)))
        coeffs[n - k] = ck
        mk = mk + Mat.identity(n) * ck
    return Poly(coeffs)


def minus_scaled(p, c, q):
    """p - c*q on coefficient lists, lowest degree first."""
    out = list(p) + [GaussRat(0)] * (len(q) - len(p))
    for k, b in enumerate(q):
        out[k] = out[k] - c * b
    return out


def charpoly_minor_recurrence(m):
    # oracle: the same Hessenberg reduction, then the minor recurrence on
    # lists of GaussRat coefficients
    n = m.nrows
    H = [list(row) for row in m.rows]
    for k in range(n - 2):
        piv = next((r for r in range(k + 1, n) if H[r][k]), None)
        if piv is None:
            continue
        H[k + 1], H[piv] = H[piv], H[k + 1]
        for row in H:
            row[k + 1], row[piv] = row[piv], row[k + 1]
        for r in range(k + 2, n):
            f = H[r][k] / H[k + 1][k]
            H[r] = [a - f * b for a, b in zip(H[r], H[k + 1])]
            for row in H:
                row[k + 1] = row[k + 1] + f * row[r]
    polys = [[GaussRat(1)]]
    for k in range(1, n + 1):
        pk = minus_scaled([GaussRat(0)] + polys[k - 1], H[k - 1][k - 1], polys[k - 1])
        run = GaussRat(1)
        for j in range(k - 1, 0, -1):
            run = run * H[j][j - 1]
            if not run:
                break
            pk = minus_scaled(pk, H[j - 1][k - 1] * run, polys[j - 1])
        polys.append(pk)
    return Poly(polys[n])


def sympy_matrix(m):
    return sympy.Matrix(m.nrows, m.ncols,
                        lambda i, j: sympy.Rational(m[i, j].re) + sympy.Rational(m[i, j].im) * sympy.I)


def charpoly_sympy(m):
    sm = sympy_matrix(m)
    x = sympy.Symbol("x")
    coeffs = sympy.Poly(sm.charpoly(x).as_expr(), x).all_coeffs()[::-1]
    out = []
    for c in coeffs:
        re, im = c.as_real_imag()
        out.append(GaussRat(Fraction(str(re)), Fraction(str(im))))
    return Poly(out)


def rand_gauss(rng, span=4, complex_part=True):
    re = Fraction(rng.randint(-span, span))
    im = Fraction(rng.randint(-span, span)) if complex_part else Fraction(0)
    return GaussRat(re, im)


def rand_mat(rng, n, span=4, complex_part=True):
    return Mat([[rand_gauss(rng, span, complex_part) for _ in range(n)] for _ in range(n)])


def rand_frac(rng, span=9):
    """re + im*i with parts p/q, |p| <= span and q up to 9."""
    return GaussRat(Fraction(rng.randint(-span, span), rng.randint(1, 9)),
                    Fraction(rng.randint(-span, span), rng.randint(1, 9)))


def rand_frac_mat(rng, n):
    return Mat([[rand_frac(rng) for _ in range(n)] for _ in range(n)])


def rand_block_upper(rng, sizes):
    """Block upper triangular with random fractional blocks of the given sizes.

    Every entry below the diagonal blocks is zero, so the Hessenberg form
    keeps a zero subdiagonal entry at each block boundary.
    """
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    return Mat([[rand_frac(rng) if bi <= bj else GaussRat(0) for bj in block] for bi in block])


def is_monomial(m):
    """Exactly one nonzero entry in every row and every column."""
    return all(sum(1 for c in r if c) == 1 for r in m.rows) and \
        all(sum(1 for c in r if c) == 1 for r in m.transpose().rows)


def half_spin_examples(n, seed):
    """The two half-spin matrices (2^(n-1) square) of a torus point and of a
    product of four vectors a e_j + b e_(n+j), with fractional and imaginary
    parts: diagonal and monomial matrices."""
    rng = Random(seed)
    t = torus_point(TorusCoordinates([rand_frac(rng, 4) or GaussRat(1) for _ in range(n + 1)]))
    space = even_space(n)
    acc = CliffordElement.one(space)
    for _ in range(4):
        j = rng.randint(1, n)
        coords = [GaussRat(0)] * (2 * n)
        coords[j - 1] = GaussRat(Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 9)), 1)
        coords[n + j - 1] = GaussRat(Fraction(rng.choice((-7, 1, 4)), rng.randint(1, 9)))
        acc = acc * CliffordElement.vector(space, coords)
    g = GPinElement(acc)
    diag = [half_spin_matrix(t, eps).mat for eps in (1, -1)]
    mono = [half_spin_matrix(g, eps).mat for eps in (1, -1)]
    assert all(m.is_diagonal() for m in diag)
    assert all(is_monomial(m) and not m.is_diagonal() for m in mono)
    return diag + mono


def rand_invertible(rng, n):
    while True:
        m = rand_mat(rng, n, span=3)
        if rank(m) == n:
            return m


# ---------------------------------------------------------------- GaussRat

def test_gaussrat_field_ops():
    a = GaussRat(Fraction(3, 2), Fraction(-5, 4))
    b = GaussRat(2, 3)
    assert a + b - b == a
    assert (a * b) / b == a
    assert a * GaussRat(a.re, -a.im) == GaussRat(a.norm())
    assert SQRT_M1 * SQRT_M1 == GaussRat(-1)
    assert GaussRat(7) / GaussRat(7) == 1


def test_gaussrat_norm_zero_iff_zero():
    assert GaussRat(0, 0).norm() == 0
    assert not GaussRat(0)
    assert GaussRat(0, Fraction(1, 9)).norm() > 0


def test_gaussrat_text_roundtrip():
    cases = ["1+0*i", "0-1*i", "3/2-5/4*i", "0+0*i", "-7/3+1*i"]
    for s in cases:
        assert str(GaussRat.parse(s)) == s
    # tolerant input forms
    assert GaussRat.parse("3") == GaussRat(3)
    assert GaussRat.parse("-2/3") == GaussRat(Fraction(-2, 3))
    assert GaussRat.parse("i") == SQRT_M1
    assert GaussRat.parse("-i") == -SQRT_M1
    assert GaussRat.parse("2*i") == GaussRat(0, 2)
    assert GaussRat.parse("1-i") == GaussRat(1, -1)
    with pytest.raises(TypeError):
        GaussRat.parse(5)


@given(st.integers(-50, 50), st.integers(-50, 50),
       st.integers(1, 20), st.integers(1, 20))
def test_gaussrat_parse_str_roundtrip(a, b, p, q):
    g = GaussRat(Fraction(a, p), Fraction(b, q))
    assert GaussRat.parse(str(g)) == g


def test_gaussrat_reflected_subtraction():
    # int - GaussRat and Fraction - GaussRat go through __rsub__; nonzero
    # parts on both sides tell o - self from self - o in each part
    a = GaussRat(Fraction(3, 2), Fraction(-5, 4))
    assert 7 - a == GaussRat(Fraction(11, 2), Fraction(5, 4))
    assert Fraction(1, 3) - a == GaussRat(Fraction(-7, 6), Fraction(5, 4))
    assert -2 - GaussRat(1, 3) == GaussRat(-3, -3)


numerator_pairs = st.lists(st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
                           max_size=6)


@given(st.integers(1, 60), numerator_pairs)
@example(1, [(0, 0)])
@example(1, [(4, -7), (0, 3), (-2, 0)])
@example(12, [(0, 0), (0, -9), (-8, 0), (6, 4)])
@example(5, [])
def test_over_inverts_numerators(den, parts):
    values = _over(den, [a for a, _ in parts], [b for _, b in parts])
    want = [GaussRat(Fraction(a, den), Fraction(b, den)) for a, b in parts]
    assert values == want
    assert [(type(v.re), type(v.im)) for v in values] == [(Fraction, Fraction)] * len(parts)
    assert [str(v) for v in values] == [str(w) for w in want]
    assert [hash(v) for v in values] == [hash(w) for w in want]
    d, re, im = _numerators(values)
    assert d > 0 and den % d == 0
    assert _over(d, re, im) == values
    assert [(a * d, b * d) for a, b in parts] == [(r * den, s * den) for r, s in zip(re, im)]


def test_gaussrat_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussRat(1) / GaussRat(0)


@pytest.mark.parametrize("bad", [0.1, 0.5, 1e3, "3/4", "1", True, False, 1j, complex(2, 0)],
                         ids=repr)
def test_gaussrat_rejects_inexact_parts(bad):
    with pytest.raises(TypeError):
        GaussRat(bad)
    with pytest.raises(TypeError):
        GaussRat(1, bad)
    with pytest.raises(TypeError):
        Mat([[bad]])
    with pytest.raises(TypeError):
        Mat.diag([1, bad])
    with pytest.raises(TypeError):
        Poly([bad])
    with pytest.raises(TypeError):
        CliffordElement(even_space(3), {(): bad})
    # mixed arithmetic with a bad operand is refused, not coerced
    with pytest.raises(TypeError):
        GaussRat(1) * bad
    # text still goes through parse, and exact parts are accepted
    assert GaussRat.parse("3/4") == GaussRat(Fraction(3, 4)) == GaussRat(0, 0) + Fraction(3, 4)


# -------------------------------------------------------------------- Poly

def test_poly_normalizes_leading_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == Poly([1, 2]).coeffs
    assert Poly([0]).degree == -1
    assert not Poly([])


def test_poly_ring_ops():
    p = Poly([1, 1])       # 1 + x
    q = Poly([-1, 1])      # -1 + x
    assert p * q == Poly([-1, 0, 1])
    assert (p * q)(GaussRat(3)) == GaussRat(8)


def poly_product_schoolbook(p, q):
    # oracle: the GaussRat double loop over all coefficient pairs
    out = [GaussRat(0)] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for j, a in enumerate(p.coeffs):
        for k, b in enumerate(q.coeffs):
            out[j + k] = out[j + k] + a * b
    return Poly(out)


def rand_poly(rng, degree, max_den):
    def part():
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, max_den))
    return Poly([GaussRat(part(), part() if rng.random() < 0.7 else 0) for _ in range(degree + 1)])


def test_poly_product_against_schoolbook():
    rng = Random(53)
    polys = [Poly([]), Poly([5]), Poly([GaussRat(Fraction(-3, 7), 2)]), Poly([0, 0, 0, SQRT_M1]),
             Poly([1, 0, 0, Fraction(1, 999983)])]
    polys += [rand_poly(rng, degree, max_den) for degree in (0, 1, 4, 9, 16)
              for max_den in (1, 9, 10**6)]
    for p in polys:
        for q in polys:
            assert p * q == poly_product_schoolbook(p, q)


def test_poly_pretty():
    assert Poly([-1, -1, 0, 1]).pretty() == "x^3 - x - 1"
    assert Poly([6, -5, 1]).pretty() == "x^2 - 5*x + 6"
    assert Poly([GaussRat(0, 1)]).pretty() == "(0+1*i)"
    assert Poly([]).pretty() == "0"


def test_poly_json_roundtrip():
    p = Poly([GaussRat(1, 2), GaussRat(Fraction(-1, 3)), GaussRat(1)])
    assert Poly.from_json(p.to_json()) == p


# --------------------------------------------------------------------- Mat

def test_mat_shape_validation():
    with pytest.raises(ValueError):
        Mat([[1, 2], [3]])
    with pytest.raises(ValueError):
        Mat([])


def test_mat_basic_algebra():
    m = Mat([[1, 2], [3, 4]])
    assert m + m == m * 2
    assert m - m == Mat.zeros(2)
    assert m * Mat.identity(2) == m
    assert m.transpose().transpose() == m
    assert (m ** 0) == Mat.identity(2)
    assert (m ** 3) == m * m * m


def test_mat_json_roundtrip():
    m = Mat([[GaussRat(Fraction(1, 2), 1), GaussRat(0)],
             [SQRT_M1, GaussRat(-3)]])
    assert Mat.from_json(m.to_json()) == m


def dense_product(x, y):
    # oracle: the dense triple loop that Mat.__mul__ ran before it walked
    # nonzero patterns
    zero = GaussRat(0)
    out = []
    for row in x.rows:
        acc = [zero] * y.ncols
        for k, a in enumerate(row):
            if not a:
                continue
            for j, b in enumerate(y.rows[k]):
                if b:
                    acc[j] = acc[j] + a * b
        out.append(acc)
    return Mat(out)


def assert_exact_pattern(m):
    """The invariant that makes `Mat.__eq__` and `hash` exact: m has one
    pattern row per row, each a tuple of (column, entry) pairs with int
    columns strictly increasing and below ncols, and no entry is zero."""
    assert m.nrows == len(m._nz) >= 1 and m.ncols >= 1
    for row in m._nz:
        assert type(row) is tuple
        cols = [j for j, _ in row]
        assert all(type(j) is int for j in cols)
        assert all(0 <= a < b for a, b in zip(cols, cols[1:] + [m.ncols]))
        assert all(type(c) is GaussRat and c for _, c in row)
    return m


def test_exact_pattern_violations_are_caught():
    one = GaussRat(1)
    for nz in ([((1, one), (0, one))], [((0, one), (0, one))], [((2, one),)], [((-1, one),)],
               [((0, GaussRat(0)),)], [((0, 1),)], [((True, one),)]):
        with pytest.raises(AssertionError):
            assert_exact_pattern(Mat._sparse(2, nz))
    assert_exact_pattern(Mat._sparse(2, [((0, one), (1, one)), ()]))


def assert_product_matches_dense(x, y):
    p = x * y
    assert p.rows == dense_product(x, y).rows
    for m in (p, x, y):
        assert_exact_pattern(m)
    assert p.is_zero() == all(not c for r in p.rows for c in r)
    assert p.is_diagonal() == all(not c for i, r in enumerate(p.rows)
                                  for j, c in enumerate(r) if i != j)
    return p


# entries whose sums cancel often: +-1, +-i, 2 and two fractions
PATTERN_ENTRIES = st.sampled_from([GaussRat(1), GaussRat(-1), GaussRat(2), GaussRat(0, 1),
                                   GaussRat(0, -1), GaussRat(Fraction(1, 2)),
                                   GaussRat(Fraction(-1, 2), 1)])
DENSITIES = (0, 0.1, 0.5, 1)


@st.composite
def patterned_mat(draw, nrows, ncols, density):
    cells = nrows * ncols
    at = set(draw(st.permutations(range(cells)))[:round(density * cells)])
    entries = iter(draw(st.lists(PATTERN_ENTRIES, min_size=len(at), max_size=len(at))))
    zero = GaussRat(0)
    return Mat([[next(entries) if i * ncols + j in at else zero for j in range(ncols)]
                for i in range(nrows)])


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([(1, 1, 1), (12, 12, 12), (1, 12, 12), (12, 12, 1),
                                   (12, 1, 12)]),
       st.sampled_from(DENSITIES), st.sampled_from(DENSITIES))
def test_pattern_product_matches_dense_product(data, shape, left_density, right_density):
    r, k, c = shape
    x = data.draw(patterned_mat(r, k, left_density))
    y = data.draw(patterned_mat(k, c, right_density))
    p = assert_product_matches_dense(x, y)
    # a product of products walks the patterns the products carried
    assert_product_matches_dense(p, y.transpose())


def _random_patterned(rng, n, density):
    # real entries in +-1, +-2 keep the dense 64 x 64 oracle product cheap
    zero = GaussRat(0)
    return Mat([[GaussRat(rng.choice((-2, -1, 1, 2))) if rng.random() < density else zero
                 for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("density", DENSITIES)
def test_pattern_product_matches_dense_product_at_64(density):
    rng = Random(64 + int(10 * density))
    x, y = _random_patterned(rng, 64, density), _random_patterned(rng, 64, density)
    assert_product_matches_dense(x, y)


def test_monomial_products_at_64():
    rng = Random(640)
    perms = [rng.sample(range(64), 64) for _ in range(2)]
    x, y = (Mat([[rand_gauss(rng, 3) or GaussRat(1) if j == perm[i] else GaussRat(0)
                  for j in range(64)] for i in range(64)]) for perm in perms)
    p = assert_product_matches_dense(x, y)
    assert all(sum(1 for c in r if c) == 1 for r in p.rows)
    assert assert_product_matches_dense(Mat.identity(64), p) == p


@pytest.mark.parametrize("x, y, expected", [
    ([[1, 1]], [[1], [-1]], [[0]]),
    ([[SQRT_M1, 1]], [[SQRT_M1], [1]], [[0]]),
    ([[1, 1], [0, 1]], [[1, 0], [-1, 1]], [[0, 1], [-1, 1]]),
    ([[1, 1], [1, -1]], [[1, 1], [-1, 1]], [[0, 2], [2, 0]]),
    ([[1] * 12] * 12, [[(-1) ** k] * 12 for k in range(12)], [[0] * 12] * 12),
])
def test_pattern_product_drops_cancelled_entries(x, y, expected):
    p = assert_product_matches_dense(Mat(x), Mat(y))
    assert p == Mat(expected)


def test_pattern_constructors_carry_their_pattern():
    for m in (Mat.identity(3), Mat.diag([2, 0, 1]), Mat.zeros(2, 3), Mat.zeros(3),
              Mat([[0, SQRT_M1], [Fraction(1, 2), 0]])):
        assert_exact_pattern(m)
    assert Mat.identity(3) == Mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert Mat.zeros(2, 3) == Mat([[0, 0, 0], [0, 0, 0]])
    assert Mat.diag([2, 0, 1]) == Mat([[2, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert Mat.diag([2, 0, 1]).is_diagonal() and Mat.zeros(3).is_zero()
    assert hash(Mat.identity(2)) == hash(Mat([[1, 0], [0, 1]]))
    for bad in (lambda: Mat.identity(0), lambda: Mat.zeros(2, 0), lambda: Mat.diag([])):
        with pytest.raises(ValueError):
            bad()


def test_equality_and_hash_see_the_shape():
    # the pattern of a zero matrix is one empty tuple per row: the column
    # count is not in it
    assert Mat.zeros(2, 3) != Mat.zeros(2, 4)
    assert Mat.zeros(2, 3) != Mat.zeros(3, 3)
    assert Mat([[1, 0]]) != Mat([[1, 0, 0]])
    dense = Mat([[1, 0, SQRT_M1], [0, 0, 0]])
    sparse = Mat._sparse(3, [((0, GaussRat(1)), (2, SQRT_M1)), ()])
    assert dense == sparse and hash(dense) == hash(sparse)
    assert hash(Mat.diag([2, 0])) == hash(Mat([[2, 0], [0, 0]]))


def dense_entrywise(f, *ms):
    return tuple(tuple(f(*cs) for cs in zip(*rs)) for rs in zip(*(m.rows for m in ms)))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([(1, 1), (3, 5), (12, 12)]), st.sampled_from(DENSITIES),
       st.sampled_from(DENSITIES), PATTERN_ENTRIES | st.just(GaussRat(0)))
def test_pattern_arithmetic_matches_dense(data, shape, x_density, y_density, c):
    x = assert_exact_pattern(data.draw(patterned_mat(*shape, x_density)))
    y = assert_exact_pattern(data.draw(patterned_mat(*shape, y_density)))
    for got, want in ((x + y, dense_entrywise(lambda a, b: a + b, x, y)),
                      (x - y, dense_entrywise(lambda a, b: a - b, x, y)),
                      (-x, dense_entrywise(lambda a: -a, x)),
                      (x * c, dense_entrywise(lambda a: a * c, x)),
                      (c * x, dense_entrywise(lambda a: c * a, x)),
                      (x.transpose(), tuple(zip(*x.rows)))):
        assert got.rows == want
        assert_exact_pattern(got)
    assert x - x == x + -x == x * 0 == Mat.zeros(*shape)


def test_entries_and_rows_read_the_pattern():
    m = Mat([[1, 0, 2], [0, SQRT_M1, 0]])
    assert [m[i, j] for i in range(2) for j in range(3)] == [c for r in m.rows for c in r]
    assert m.rows == ((1, 0, 2), (0, SQRT_M1, 0))
    assert m[-1, -2] == SQRT_M1 and m[0, -1] == 2 and m[1, 0] == 0
    for ij in ((2, 0), (0, 3), (0, -4)):
        with pytest.raises(IndexError):
            m[ij]
    with pytest.raises(AttributeError):
        m.rows = ((1,),)
    assert Mat(m.rows) == m


def test_block_and_relabel_match_dense():
    rng = Random(66)
    m = assert_exact_pattern(_random_patterned(rng, 6, 0.5))
    for rows, cols in ((range(3), range(3)), (range(3, 6), range(3)), ([5], range(6)),
                       (range(6), [0, 4]), ([1, 2], [5])):
        b = assert_exact_pattern(m.block(rows, cols))
        assert b.rows == tuple(tuple(m.rows[i][j] for j in cols) for i in rows)
    p = rng.sample(range(6), 6)
    perm = Mat([[int(a == p[b]) for b in range(6)] for a in range(6)])
    assert assert_exact_pattern(m._relabel(p)) == perm * m * perm.transpose()


# ---------------------------------------------------------------- charpoly

def test_charpoly_identity():
    assert charpoly(Mat.identity(2)) == Poly([1, -2, 1])


def test_charpoly_diag():
    assert charpoly(Mat.diag([2, 3])) == Poly([6, -5, 1])


def test_charpoly_companion():
    # companion matrix of x^3 - x - 1
    c = Mat([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    assert charpoly(c) == Poly([-1, -1, 0, 1])


def test_charpoly_against_faddeev_leverrier():
    rng = Random(11)
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(6):
            m = rand_mat(rng, n)
            assert charpoly(m) == charpoly_faddeev_leverrier(m) == charpoly_minor_recurrence(m)


def test_charpoly_against_sympy():
    rng = Random(13)
    for n in (2, 3, 4):
        for _ in range(3):
            m = rand_mat(rng, n, span=3)
            assert charpoly(m) == charpoly_sympy(m)


def test_charpoly_fractional_entries_against_faddeev_leverrier():
    # distinct denominators up to 9 on both parts: the recurrence's
    # per-polynomial denominators and gcd reduction
    rng = Random(31)
    for n in (1, 2, 3, 4, 5, 6, 8):
        for _ in range(3):
            m = rand_frac_mat(rng, n)
            assert charpoly(m) == charpoly_faddeev_leverrier(m) == charpoly_minor_recurrence(m)


def test_charpoly_fractional_entries_against_sympy():
    rng = Random(37)
    for n in (1, 2, 3, 4):
        for _ in range(2):
            m = rand_frac_mat(rng, n)
            assert charpoly(m) == charpoly_sympy(m)


@pytest.mark.parametrize("sizes", [(1, 1), (2, 3), (3, 1, 2), (1, 4, 1), (2, 2, 2, 2)])
def test_charpoly_block_upper_triangular(sizes):
    # a zero subdiagonal entry ends the recurrence's inner sum early
    rng = Random(sum(sizes) * 41 + len(sizes))
    m = rand_block_upper(rng, sizes)
    p = charpoly(m)
    assert p == charpoly_faddeev_leverrier(m) == charpoly_minor_recurrence(m)
    if m.nrows <= 4:
        assert p == charpoly_sympy(m)
    # the characteristic polynomial is the product over the diagonal blocks
    start, expected = 0, Poly([1])
    for size in sizes:
        block = Mat([r[start:start + size] for r in m.rows[start:start + size]])
        expected = expected * charpoly(block)
        start += size
    assert p == expected


@pytest.mark.parametrize("n", [5, 6])
def test_charpoly_half_spin_diagonal_and_monomial(n):
    for m in half_spin_examples(n, 43 + n):
        assert m.nrows == 1 << (n - 1)
        assert charpoly(m) == charpoly_faddeev_leverrier(m) == charpoly_minor_recurrence(m)


def monomial_mat(perm, entries):
    """Column j holds entries[j] in row perm[j]; every other entry is zero."""
    n = len(perm)
    rows = [[GaussRat(0)] * n for _ in range(n)]
    for j, (i, c) in enumerate(zip(perm, entries)):
        rows[i][j] = c
    return Mat(rows)


def test_charpoly_signed_24_cycle():
    # one relabelled 24-cycle: only the cycle's closing entry uses the
    # subdiagonal run, and every earlier step is a plain shift
    rng = Random(53)
    labels = list(range(24))
    rng.shuffle(labels)
    perm = [0] * 24
    for k in range(24):
        perm[labels[k]] = labels[(k + 1) % 24]
    signs = [GaussRat(rng.choice((-1, 1))) for _ in range(24)]
    m = monomial_mat(perm, signs)
    prod = GaussRat(1)
    for c in signs:
        prod = prod * c
    p = charpoly(m)
    assert p == Poly([-prod] + [0] * 23 + [1])
    assert p == charpoly_faddeev_leverrier(m) == charpoly_minor_recurrence(m)


@pytest.mark.parametrize("fractional", [False, True], ids=["units", "fractional"])
def test_charpoly_monomial_one_and_two_cycles(fractional):
    # rep-conj's half-spin shape: 32-square, fixed points and transpositions;
    # the polynomial is the product of x - c and x^2 - ab over the cycles
    rng = Random(57 + fractional)
    labels = list(range(32))
    rng.shuffle(labels)
    perm = list(range(32))
    for a, b in zip(labels[:20:2], labels[1:20:2]):
        perm[a], perm[b] = b, a
    if fractional:
        entries = [rand_frac(rng, 4) or GaussRat(1) for _ in range(32)]
    else:
        entries = [rng.choice((GaussRat(1), GaussRat(-1), SQRT_M1, -SQRT_M1)) for _ in range(32)]
    m = monomial_mat(perm, entries)
    expected = Poly([1])
    for j in range(32):
        if perm[j] == j:
            expected = expected * Poly([-entries[j], 1])
        elif perm[j] > j:
            expected = expected * Poly([-entries[j] * entries[perm[j]], 0, 1])
    p = charpoly(m)
    assert p == expected
    assert p == charpoly_faddeev_leverrier(m) == charpoly_minor_recurrence(m)


@pytest.mark.parametrize("fractional", [False, True], ids=["integer", "fractional"])
def test_charpoly_hessenberg_with_zero_subdiagonal(fractional):
    # already Hessenberg, sparse above the diagonal so the subdiagonal run
    # waits over several rows before an entry uses it, and zero at H[6][5]
    # and H[11][10], so the polynomial is the product over three diagonal
    # blocks
    rng = Random(59 + fractional)
    entry = rand_frac if fractional else rand_gauss
    n, cuts = 14, (6, 11)
    rows = [[GaussRat(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(max(0, i - 1), n):
            if i == j + 1:
                rows[i][j] = GaussRat(0) if i in cuts else entry(rng) or GaussRat(1)
            elif rng.random() < 0.4:
                rows[i][j] = entry(rng)
    m = Mat(rows)
    p = charpoly(m)
    assert p == charpoly_faddeev_leverrier(m) == charpoly_minor_recurrence(m)
    expected = Poly([1])
    for lo, hi in zip((0,) + cuts, cuts + (n,)):
        expected = expected * charpoly_faddeev_leverrier(Mat([r[lo:hi] for r in rows[lo:hi]]))
    assert p == expected


def rand_strong_blocks(rng, sizes, zero_diagonal):
    """Block upper triangular, with diagonal blocks of the given sizes that
    are strongly connected: every off-diagonal entry inside a block is a
    nonzero fractional or imaginary entry, and with zero_diagonal every
    other diagonal entry is 0.  About half the entries above the blocks are
    nonzero."""
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    rows = []
    for i, bi in enumerate(block):
        row = []
        for j, bj in enumerate(block):
            if bi > bj or (bi < bj and rng.random() < 0.5) or (i == j and zero_diagonal and i % 2):
                row.append(GaussRat(0))
            else:
                row.append(rand_frac(rng, 5) or GaussRat(1, 1))
        rows.append(row)
    return Mat(rows)


@pytest.mark.parametrize("sizes", [(1,) * 6, (2, 2, 2), (1, 2, 1, 2), (3, 1, 2), (2, 4, 1),
                                   (1, 5, 2, 3), (7,), (3, 3, 2, 1, 1)])
@pytest.mark.parametrize("zero_diagonal", [False, True], ids=["full-diagonal", "zero-diagonal"])
def test_charpoly_of_relabelled_block_triangular(sizes, zero_diagonal):
    # P B P^-1 for a random permutation P: the diagonal blocks of B are the
    # strongly connected components of the pattern, with their rows
    # scattered, and every entry between two blocks lies outside both
    rng = Random(len(sizes) * 67 + sum(sizes) + 7 * zero_diagonal)
    b = rand_strong_blocks(rng, sizes, zero_diagonal)
    perm = list(range(b.nrows))
    rng.shuffle(perm)
    m = b._relabel(perm)
    succ = [[j for j, _ in row if j != i] for i, row in enumerate(m._nz)]
    assert sorted(map(len, _components(succ))) == sorted(sizes)
    p = charpoly(m)
    assert p == charpoly(b) == charpoly_faddeev_leverrier(m) == charpoly_minor_recurrence(m)
    if m.nrows <= 6:
        assert p == charpoly_sympy(m)


def test_charpoly_dense_block_skips_entries_outside_it():
    # two interleaved components, {0, 3, 5, 6} and {1, 2, 4, 7}, each a
    # dense block, with every entry from the first to the second nonzero:
    # filling a block densely must skip the columns of the other one
    rng = Random(71)
    first = {0, 3, 5, 6}
    rows = [[rand_frac(rng) or GaussRat(1) if (i in first) >= (j in first) else GaussRat(0)
             for j in range(8)] for i in range(8)]
    m = Mat(rows)
    succ = [[j for j, _ in row if j != i] for i, row in enumerate(m._nz)]
    assert sorted(map(sorted, _components(succ))) == [[0, 3, 5, 6], [1, 2, 4, 7]]
    assert charpoly(m) == charpoly_faddeev_leverrier(m) == charpoly_minor_recurrence(m)


def test_charpoly_one_dense_component():
    rng = Random(73)
    m = rand_frac_mat(rng, 5)
    succ = [[j for j, _ in row if j != i] for i, row in enumerate(m._nz)]
    assert len(_components(succ)) == 1
    assert charpoly(m) == charpoly_faddeev_leverrier(m) == charpoly_sympy(m)


def test_charpoly_one_by_one_and_zero():
    rng = Random(47)
    for _ in range(5):
        c = rand_frac(rng)
        m = Mat([[c]])
        assert charpoly(m) == Poly([-c, 1]) == charpoly_faddeev_leverrier(m) == charpoly_sympy(m)
    for n in (1, 2, 3, 7):
        z = Mat.zeros(n)
        assert charpoly(z) == Poly([0] * n + [1]) == charpoly_faddeev_leverrier(z)
    assert charpoly(Mat.zeros(3)) == charpoly_sympy(Mat.zeros(3))


def test_charpoly_cayley_hamilton():
    rng = Random(17)
    for n in (2, 3, 4):
        m = rand_mat(rng, n)
        assert charpoly(m)(m).is_zero()


def test_charpoly_monic_and_degree():
    rng = Random(19)
    for n in (1, 3, 5):
        p = charpoly(rand_mat(rng, n))
        assert p.is_monic()
        assert p.degree == n


def test_charpoly_conjugation_invariant():
    rng = Random(23)
    for n in (2, 3, 4):
        for _ in range(4):
            m = rand_mat(rng, n)
            p = rand_invertible(rng, n)
            assert charpoly(p * m * inverse(p)) == charpoly(m)


def test_charpoly_non_square():
    with pytest.raises(ValueError):
        charpoly(Mat.zeros(2, 3))


# -------------------------------------------------------------------- rank

def test_rank_examples():
    assert rank(Mat.zeros(3)) == 0
    assert rank(Mat.identity(4)) == 4
    assert rank(Mat([[GaussRat(1), SQRT_M1], [SQRT_M1, GaussRat(-1)]])) == 1


def test_rank_matches_sympy():
    rng = Random(29)
    for n in (2, 3, 4):
        for _ in range(6):
            m = rand_mat(rng, n, span=2)
            assert rank(m) == sympy_matrix(m).rank()


@pytest.mark.parametrize("rows, inner, cols", [
    (2, 5, 6), (3, 2, 7), (4, 4, 9),    # wide
    (6, 5, 2), (7, 2, 3), (9, 3, 4),    # tall
    (5, 2, 5), (6, 3, 6), (8, 1, 8),    # square, rank-deficient
])
def test_rank_matches_sympy_on_thin_products(rows, inner, cols):
    # A product of a rows x inner and an inner x cols factor has rank at
    # most inner, so wide, tall and rank-deficient shapes all come up;
    # fractional entries make the elimination divide, and a zero column
    # in the right factor moves later pivots off the diagonal.
    rng = Random(1000 * rows + 10 * inner + cols)
    for _ in range(3):
        left = Mat([[rand_gauss(rng, 2) * GaussRat(Fraction(1, rng.randint(1, 3)))
                     for _ in range(inner)] for _ in range(rows)])
        zero_col = rng.randrange(cols)
        right = Mat([[GaussRat(0) if j == zero_col else rand_gauss(rng, 2) for j in range(cols)]
                     for _ in range(inner)])
        m = left * right
        assert rank(m) == sympy_matrix(m).rank()
        assert rank(m.transpose()) == rank(m)


def test_rank_with_fractions():
    m = Mat([[GaussRat(Fraction(1, 2)), GaussRat(Fraction(1, 3))],
             [GaussRat(Fraction(3, 2)), GaussRat(1)]])
    assert rank(m) == 1


# ----------------------------------------------------------------- inverse

def test_inverse_examples():
    assert inverse(Mat.identity(3)) == Mat.identity(3)
    assert inverse(Mat.diag([2, -1])) == Mat.diag([Fraction(1, 2), -1])
    swap = Mat([[0, 1], [1, 0]])
    assert inverse(swap) == swap


def test_inverse_roundtrip():
    rng = Random(31)
    for n in (2, 3, 4, 5):
        m = rand_invertible(rng, n)
        assert m * inverse(m) == Mat.identity(n)
        assert inverse(inverse(m)) == m


def test_inverse_singular():
    with pytest.raises(ValueError):
        inverse(Mat([[1, 2], [2, 4]]))


def test_inverse_rejects_non_square():
    with pytest.raises(ValueError):
        inverse(Mat.zeros(2, 3))


# -------------------------------------------------------- jordan_partition

def test_jordan_partition_examples():
    assert jordan_partition(Mat.identity(3)) == [1, 1, 1]
    assert jordan_partition(Mat([[1, 1], [0, 1]])) == [2]


def test_jordan_partition_five_one():
    # one 5-chain and one fixed vector inside a 6x6 unipotent
    n6 = Mat.zeros(6)
    rows = [list(r) for r in n6.rows]
    for k in range(4):
        rows[k][k + 1] = GaussRat(1)
    u = exp_nilpotent(Mat(rows))
    assert jordan_partition(u) == [5, 1]


def test_jordan_partition_conjugation_invariant():
    rng = Random(37)
    rows = [[GaussRat(int(j == i + 1)) for j in range(4)] for i in range(4)]
    u = exp_nilpotent(Mat(rows))
    p = rand_invertible(rng, 4)
    assert jordan_partition(p * u * inverse(p)) == [4]


def test_jordan_partition_rejects_non_unipotent():
    with pytest.raises(ValueError):
        jordan_partition(Mat.diag([2, 1]))


# ----------------------------------------------------------- exp_nilpotent

def test_exp_nilpotent_examples():
    assert exp_nilpotent(Mat.zeros(3)) == Mat.identity(3)
    assert exp_nilpotent(Mat([[0, 1], [0, 0]])) == Mat([[1, 1], [0, 1]])


def test_exp_nilpotent_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        exp_nilpotent(Mat.identity(2))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_exp_nilpotent_inverse_property(n, seed):
    rng = Random(seed)
    rows = [[GaussRat(rng.randint(-3, 3)) if j > i else GaussRat(0) for j in range(n)]
            for i in range(n)]
    nmat = Mat(rows)
    assert exp_nilpotent(nmat) * exp_nilpotent(-nmat) == Mat.identity(n)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_exp_nilpotent_partition_matches_n_plus_i(n, seed):
    rng = Random(seed)
    rows = [[GaussRat(rng.randint(-2, 2)) if j > i else GaussRat(0) for j in range(n)]
            for i in range(n)]
    nmat = Mat(rows)
    assert jordan_partition(exp_nilpotent(nmat)) == jordan_partition(nmat + Mat.identity(n))
