"""Round trips through the JSON forms of spaces, Clifford and group elements,
polynomials and matrices: ``from_json(json.loads(json.dumps(x.to_json())))``
must give back an equal value."""

import json
from fractions import Fraction
from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gspin.clifford import (
    CliffordElement,
    GPinElement,
    QuadSpace,
    even_space,
    line_space,
    odd_space,
    random_gpin,
)
from gspin.exact import GaussRat, Mat, Poly

gauss = st.builds(
    lambda a, p, b, q: GaussRat(Fraction(a, p), Fraction(b, q)),
    st.integers(-30, 30), st.integers(1, 12), st.integers(-30, 30), st.integers(1, 12),
)

spaces = st.one_of(
    st.integers(1, 4).map(even_space),
    st.integers(2, 4).map(odd_space),
    gauss.map(line_space),
)


@st.composite
def clifford_elements(draw):
    space = draw(spaces)
    monomials = st.sets(st.integers(1, space.dim)).map(lambda s: tuple(sorted(s)))
    return CliffordElement(space, draw(st.dictionaries(monomials, gauss, max_size=8)))


def _through_json(x):
    return type(x).from_json(json.loads(json.dumps(x.to_json())))


@settings(max_examples=60, deadline=None)
@given(spaces)
@example(line_space(GaussRat(Fraction(2, 3), Fraction(1, 5))))
def test_quad_space_json_roundtrip(space):
    back = _through_json(space)
    assert back == space
    fields = ("kind", "n", "dim", "scale")
    assert [getattr(back, f) for f in fields] == [getattr(space, f) for f in fields]


@settings(max_examples=60, deadline=None)
@given(clifford_elements())
@example(CliffordElement(line_space(GaussRat(Fraction(2, 3), Fraction(1, 5))),
                         {(): GaussRat(Fraction(1, 7)), (1,): GaussRat(3, Fraction(-5, 2))}))
def test_clifford_element_json_roundtrip(x):
    back = _through_json(x)
    assert back == x
    assert back.space == x.space


@settings(max_examples=60, deadline=None)
@given(st.lists(gauss, max_size=6))
def test_poly_json_roundtrip(coeffs):
    p = Poly(coeffs)
    assert _through_json(p) == p


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda c: st.lists(st.lists(gauss, min_size=c, max_size=c), min_size=1, max_size=4)))
def test_mat_json_roundtrip(rows):
    m = Mat(rows)
    assert _through_json(m) == m


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.integers(2, 4).map(even_space), st.integers(2, 4).map(odd_space),
                 gauss.filter(bool).map(line_space)),
       st.integers(1, 3), st.integers(0, 10 ** 6))
def test_gpin_element_rebuilt_from_json(space, factors, seed):
    g = random_gpin(space, Random(seed), factors=factors)
    h = GPinElement(CliffordElement.from_json(json.loads(json.dumps(g.elt.to_json()))))
    assert h == g
    assert (h.parity, h.spinor_norm(), h.pr_circ()) == (g.parity, g.spinor_norm(), g.pr_circ())
