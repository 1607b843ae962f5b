"""The exterior-algebra module of C(V) and the (half-)spin matrix models.

The module is the exterior algebra on W = span(e_1..e_n) inside V_2n:
W-generators act by wedging, W'-generators (e_{n+1}..e_{2n}) by
contraction against the pairing.  Module vectors are sparse dicts mapping
index subsets U of {1..n} (strictly increasing tuples) to coefficients;
the monomial for U is m_U = e_{u_1} ^ ... ^ e_{u_r}.  Each subset is
walked as the bitmask of the Clifford product kernel (`clifford._mask`,
bit j - 1 for index j), so a wedge or a contraction is one bit operation
signed by the number of set bits below it.  `clifford` owns the walk:
it compiles each term of an element once, on Gaussian-integer
numerators (`clifford._compiled`, as for the membership check), and its
one walker, `clifford._column`, sums the images of a basis mask on ints,
one test per term.  `act` sums its columns with the vector's numerators,
and a spin matrix is one walk per column, written straight into the
matrix (`_action_matrix`); sums stay integers until one `exact._over`.

Basis bookkeeping follows the signed vectors b_U = (-1)^{#U} m_U.  The
even-degree b_U (where the sign is +1, so b_U = m_U) are ordered
colexicographically, which is ascending mask order; the k-th odd-block
basis vector is defined as the image of the k-th even one under
x -> (theta element)*x / sqrt(-1), which works out to the plain monomial
of U xor {n}.  That choice makes the theta intertwiner literally
sqrt(-1) times the identity and turns the restriction triangle through
psi into an on-the-nose matrix identity.  spin_basis is the one place
that fixes these orders.

The odd-dimensional space V_{2n-1} gets the analogous module on subsets
of {1..n-1}, with the anisotropic generator f_{2n-1} acting by parity:
+1 on even degrees, -1 on odd ones.
"""

from __future__ import annotations

from .clifford import (
    CliffordElement, GPinElement, _column, _compiled, _mask, _mono, _term_numerators, even_space,
    odd_space, theta_element,
)
from .exact import GaussRat, Mat, _as_gauss, _numerators, _over, _Value
from .rootdata import _eps_value, parity_subsets

_NO_MODULE = "the exterior module is defined for the even and odd spaces"


def vacuum():
    """The vacuum vector of either module."""
    return {(): GaussRat(1)}


def _walk_data(c):
    """(w, den, terms) for the element c, after act's type and space-kind
    checks: w = dim W and c's terms compiled (`_compiled`) over den."""
    if not isinstance(c, CliffordElement):
        raise TypeError("act expects a CliffordElement")
    space = c.space
    if space.kind not in ("even", "odd"):
        raise ValueError(_NO_MODULE)
    w = space.n if space.kind == "even" else space.n - 1
    den, re, im = _term_numerators(c)
    return w, den, _compiled(w, c.terms, re, im)


def act(c, vec):
    """Apply a Clifford element to a module vector (sparse subset dict of
    int, Fraction or GaussRat coefficients)."""
    w, den, terms = _walk_data(c)
    for u in vec:
        if any(type(j) is not int or not 1 <= j <= w for j in u):
            raise ValueError("module vector indices out of range for this space")
        if any(a >= b for a, b in zip(u, u[1:])):
            raise ValueError("module vector keys must be strictly increasing index tuples")
    coeffs = list(map(_as_gauss, vec.values()))
    if None in coeffs:
        raise TypeError("module vector coefficients must be int, Fraction or GaussRat")
    vden, vre, vim = _numerators(coeffs)
    acc = {}
    for u, a, b in zip(vec, vre, vim):
        for m, (r, i) in _column(terms, _mask(u)).items():
            vr, vi = a * r - b * i, a * i + b * r
            prev = acc.get(m)
            acc[m] = (vr, vi) if prev is None else (prev[0] + vr, prev[1] + vi)
    hits = [m for m, (r, i) in acc.items() if r or i]
    values = _over(den * vden, [acc[m][0] for m in hits], [acc[m][1] for m in hits])
    return dict(zip(map(_mono, hits), values))


def _action_matrix(c, src, dst):
    """Matrix of v -> c*v from span(src) to span(dst).

    src and dst are sequences of module basis subsets; column k is the
    image of src[k] in dst coordinates, one `_column` walk per column.
    Walking the columns in order appends each row's entries in increasing
    column order, so the walk writes the nonzero pattern directly.  The
    distinct nonzero sums, which repeat for a sparse element, become
    GaussRat values in one `_over` call.
    Raises ValueError if an image has a nonzero component outside dst.
    """
    _, den, terms = _walk_data(c)
    index = {_mask(u): k for k, u in enumerate(dst)}
    hits = []
    for j, u in enumerate(src):
        for m, x in _column(terms, _mask(u)).items():
            if x[0] or x[1]:
                k = index.get(m)
                if k is None:
                    raise ValueError("the module action leaves the target basis")
                hits.append((k, j, x))
    sums = dict.fromkeys(x for _, _, x in hits)
    value = dict(zip(sums, _over(den, [r for r, _ in sums], [i for _, i in sums])))
    nz = [[] for _ in dst]
    for k, j, x in hits:
        nz[k].append((j, value[x]))
    return Mat._sparse(len(src), nz)


class SpinMatrix(_Value):
    """A spin or half-spin matrix together with its block label."""

    __slots__ = ("epsilon", "mat")

    def __init__(self, epsilon, mat):
        if epsilon not in ("+", "-", "full"):
            raise ValueError("epsilon must be '+', '-' or 'full'")
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "mat", mat)

    def __repr__(self):
        return f"SpinMatrix({self.epsilon}, {self.mat.nrows}x{self.mat.ncols})"


def _eps_label(eps):
    return "+" if _eps_value(eps) == 1 else "-"


def spin_basis(space, label):
    """The module basis subsets indexing the matrices labelled "full", "+" or
    "-" of elements of space.

    Even space: "+" is the even-degree subsets of {1..n} in colex order,
    "-" their images U xor {n} in the same order, "full" the "+" block
    followed by the "-" block.  Odd space: every subset of {1..n-1} in
    colex order, whatever the label.  A line space has no module, and any
    other label is an error; both raise ValueError.
    """
    if label not in ("full", "+", "-"):
        raise ValueError("label must be 'full', '+' or '-'")
    n = space.n
    if space.kind == "odd":
        return tuple(_mono(m) for m in range(1 << (n - 1)))
    if space.kind != "even":
        raise ValueError(_NO_MODULE)
    plus = parity_subsets(n, 1)
    if label == "+":
        return plus
    minus = tuple(u[:-1] if u and u[-1] == n else u + (n,) for u in plus)
    return plus + minus if label == "full" else minus


def spin_matrix(x):
    """The full spin matrix of a GPin element in the fixed Fock ordering.

    For the even space this is 2^n-square (even-parity elements are block
    diagonal, odd-parity ones block anti-diagonal); for the odd space it is
    the 2^{n-1}-square matrix on the full module.  It is computed once and
    kept on the element.
    """
    if not isinstance(x, GPinElement):
        raise TypeError("spin_matrix expects a GPinElement")
    if x.space.kind not in ("even", "odd"):
        raise ValueError("spin_matrix needs an even- or odd-space element")
    if x._spin is None:
        basis = spin_basis(x.space, "full")
        x._spin = _action_matrix(x.elt, basis, basis)
    return SpinMatrix("full", x._spin)


def half_spin_matrix(x, eps):
    """The half-spin matrix of an even GPin element on the epsilon block.

    It is the "+" (first) or "-" (second) diagonal block of spin_matrix(x).
    """
    if not isinstance(x, GPinElement):
        raise TypeError("half_spin_matrix expects a GPinElement")
    if x.space.kind != "even":
        raise ValueError("half-spin representations live on the even space")
    if x.parity != 0:
        raise ValueError("odd-parity element has no half-spin matrix")
    label = _eps_label(eps)
    full = spin_matrix(x).mat
    half = full.nrows // 2
    block = range(half) if label == "+" else range(half, 2 * half)
    return SpinMatrix(label, full.block(block, block))


def theta_intertwiner(n):
    """Matrix of x -> (theta element) * x from the + block to the - block.

    With this package's basis ordering it equals sqrt(-1) * I by
    construction; the matrix is still computed from the module action.
    """
    space = even_space(n)
    return _action_matrix(theta_element(space), spin_basis(space, "+"), spin_basis(space, "-"))


def psi_matrix(n):
    """Change-of-module matrix from the V_{2n-1} module to the + block of V_2n.

    Even-degree monomials map to themselves, odd-degree ones pick up a
    trailing wedge with e_n; both land in even degrees of the big module.
    """
    if n < 2:
        raise ValueError("psi_matrix needs n >= 2")
    offsets = {u: k for k, u in enumerate(spin_basis(even_space(n), "+"))}
    src = spin_basis(odd_space(n), "full")
    one = GaussRat(1)
    nz = [[] for _ in src]
    for j, s in enumerate(src):
        nz[offsets[s if len(s) % 2 == 0 else s + (n,)]].append((j, one))
    return Mat._sparse(len(src), nz)


def pairing_gram(n):
    """Gram matrix of the invariant pairing on the full Fock basis.

    ((w1, w2)) is the coefficient of the top monomial e_1...e_n in
    beta(w1) * w2.  On W-only monomials the Clifford product is the wedge
    product, so ((m_U, m_V)) vanishes unless V is the complement U^c, and
    beta(m_U) = (-1)^{k(k-1)/2} m_U for k = #U (reversing k anticommuting
    generators).  Row U therefore has one entry, at U^c: that sign times
    the shuffle sign of (U, U^c).  The shuffle sign counts, for each j in
    U, the j - 1 - #(U below j) indices of U^c below it, so the product
    of the two signs is (-1)^{sum of (j - 1) over j in U}.  This is the
    definition evaluated exactly, one bit count per row.
    """
    basis = [_mask(u) for u in spin_basis(even_space(n), "full")]
    col = {m: j for j, m in enumerate(basis)}
    full = (1 << n) - 1
    signs = (GaussRat(1), GaussRat(-1))
    # sum of (j - 1) over j in U has the parity of the set bits at odd positions
    odd = int("10" * n, 2) & full
    return Mat._sparse(len(basis), [((col[full ^ m], signs[(m & odd).bit_count() & 1]),)
                                    for m in basis])
