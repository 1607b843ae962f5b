"""Tests for the exact linear algebra kernel.

charpoly gets two independent oracles: a Faddeev-LeVerrier implementation
written from the trace recurrence (below), and sympy.  Expected values in
the frozen examples were computed by hand.
"""

from fractions import Fraction
from random import Random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gspin.exact import (
    SQRT_M1,
    GaussRat,
    Mat,
    Poly,
    charpoly,
    exp_nilpotent,
    inverse,
    jordan_partition,
    rank,
)


def charpoly_faddeev_leverrier(m):
    # oracle: c_{n-k} = -tr(A * M_{k-1}) / k, M_k = A*M_{k-1} + c_{n-k} I
    n = m.nrows
    coeffs = [GaussRat(0)] * (n + 1)
    coeffs[n] = GaussRat(1)
    mk = Mat.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        ck = -(mk.trace() * GaussRat(Fraction(1, k)))
        coeffs[n - k] = ck
        mk = mk + Mat.identity(n) * ck
    return Poly(coeffs)


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
    assert a * a.conj() == GaussRat(a.norm())
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


def test_gaussrat_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussRat(1) / GaussRat(0)


# -------------------------------------------------------------------- Poly

def test_poly_normalizes_leading_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == Poly([1, 2]).coeffs
    assert Poly([0]).degree == -1
    assert not Poly([])


def test_poly_ring_ops():
    p = Poly([1, 1])       # 1 + x
    q = Poly([-1, 1])      # -1 + x
    assert p * q == Poly([-1, 0, 1])
    assert p + q == Poly([0, 2])
    assert p.shift(2) == Poly([0, 0, 1, 1])
    assert (p * q)(GaussRat(3)) == GaussRat(8)


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
    assert m.trace() == GaussRat(5)
    assert (m ** 0) == Mat.identity(2)
    assert (m ** 3) == m * m * m


def test_mat_json_roundtrip():
    m = Mat([[GaussRat(Fraction(1, 2), 1), GaussRat(0)],
             [SQRT_M1, GaussRat(-3)]])
    assert Mat.from_json(m.to_json()) == m


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
            assert charpoly(m) == charpoly_faddeev_leverrier(m)


def test_charpoly_against_sympy():
    rng = Random(13)
    for n in (2, 3, 4):
        for _ in range(3):
            m = rand_mat(rng, n, span=3)
            assert charpoly(m) == charpoly_sympy(m)


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
