"""The exterior-algebra module of C(V) and the (half-)spin matrix models.

The module is the exterior algebra on W = span(e_1..e_n) inside V_2n:
W-generators act by wedging, W'-generators (e_{n+1}..e_{2n}) by
contraction against the pairing.  Module vectors are sparse dicts mapping
index subsets U of {1..n} (strictly increasing tuples) to coefficients;
the monomial for U is m_U = e_{u_1} ^ ... ^ e_{u_r}.  Each subset is
walked as the bitmask of the Clifford product kernel (`clifford._mask`,
bit j - 1 for index j), so a wedge or a contraction is one bit operation
signed by the number of set bits below it.  A whole monomial is compiled
once into a mask test, a flip and a sign mask (`_compile`), and one
walker, `_column`, takes a basis mask through every compiled term of an
element, one test per term; `act` sums its columns with the vector's
coefficients, and a spin matrix is one such walk per column, written
straight into the matrix (`_action_matrix`).

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
    CliffordElement, GPinElement, _mask, _mono, even_space, odd_space, theta_element,
)
from .exact import GaussRat, Mat, _Value
from .rootdata import _eps_value, parity_subsets

_NO_MODULE = "the exterior module is defined for the even and odd spaces"


def vacuum():
    """The vacuum vector of either module."""
    return {(): GaussRat(1)}


def _compile(w, mono):
    """The action of a Clifford monomial on the basis masks of the module
    with dim W = w, as (need, want, flip, smask, odd), or None when the
    monomial kills every mask.

    Masks have bit j - 1 for index j (`clifford._mask`).  The generators
    act last first: g <= w wedges on bit g - 1 (0 if the bit is set),
    g <= 2w contracts bit g - w - 1 (0 if it is clear), each signed by the
    number of set bits below it, and 2w + 1, the odd space's anisotropic
    f_{2n-1}, multiplies by (-1)^{#U}.  Each bit's first use fixes its
    value in the input, so the image of u is nonzero exactly when
    u & need == want, and is then (-1)^(#(u & smask) + odd) times the
    mask u ^ flip: each sign counts the set bits of u ^ f under some mask
    s, where f is the part of flip made so far, and #((u ^ f) & s) has
    the parity of #(u & s) + #(f & s).
    """
    need = want = flip = smask = odd = 0
    for g in reversed(mono):
        if g > 2 * w:
            below = (1 << w) - 1
        else:
            # wedge: the bit must be clear; contraction: it must be set
            bit = 1 << (g - 1 if g <= w else g - w - 1)
            must = 0 if g <= w else bit
            if need & bit:
                if (want ^ flip) & bit != must:
                    return None
            else:
                need |= bit
                want |= must ^ (flip & bit)
            below = bit - 1
            flip ^= bit
        smask ^= below
        odd ^= (flip & below).bit_count() & 1
    return need, want, flip, smask, odd


def _walk_data(c):
    """(w, terms) for the element c, after act's type and space-kind checks:
    w = dim W, and the terms of `_column`: (need, want, flip, smask, x, -x)
    for each term x m whose monomial m does not kill every mask
    (`_compile`), with x and -x swapped when odd is 1, so a signed image
    is picked, never multiplied."""
    if not isinstance(c, CliffordElement):
        raise TypeError("act expects a CliffordElement")
    space = c.space
    if space.kind not in ("even", "odd"):
        raise ValueError(_NO_MODULE)
    w = space.n if space.kind == "even" else space.n - 1
    terms = []
    for mono, x in c.terms.items():
        walk = _compile(w, mono)
        if walk is not None:
            need, want, flip, smask, odd = walk
            terms.append((need, want, flip, smask) + ((-x, x) if odd else (x, -x)))
    return w, terms


def _column(terms, u):
    """The image of the basis mask u as {mask: coefficient}, zero sums kept:
    one test per term."""
    acc = {}
    for need, want, flip, smask, pos, neg in terms:
        if u & need == want:
            target = u ^ flip
            x = neg if (u & smask).bit_count() & 1 else pos
            prev = acc.get(target)
            acc[target] = x if prev is None else prev + x
    return acc


def act(c, vec):
    """Apply a Clifford element to a module vector (sparse subset dict)."""
    w, terms = _walk_data(c)
    for u in vec:
        if any(not (1 <= j <= w) for j in u):
            raise ValueError("module vector indices out of range for this space")
        if any(a >= b for a, b in zip(u, u[1:])):
            raise ValueError("module vector keys must be strictly increasing index tuples")
    acc = {}
    for u, v in vec.items():
        unit = v == 1  # a unit coefficient needs no product
        for m, x in _column(terms, _mask(u)).items():
            if not unit:
                x = v * x
            prev = acc.get(m)
            acc[m] = x if prev is None else prev + x
    return {_mono(m): v for m, v in acc.items() if v}


def _action_matrix(c, src, dst):
    """Matrix of v -> c*v from span(src) to span(dst).

    src and dst are sequences of module basis subsets; column k is the
    image of src[k] in dst coordinates, one `_column` walk per column.
    Walking the columns in order appends each row's entries in increasing
    column order, so the walk writes the nonzero pattern directly.
    Raises ValueError if an image has a nonzero component outside dst.
    """
    _, terms = _walk_data(c)
    index = {_mask(u): k for k, u in enumerate(dst)}
    nz = [[] for _ in dst]
    for j, u in enumerate(src):
        for m, x in _column(terms, _mask(u)).items():
            if not x:
                continue
            k = index.get(m)
            if k is None:
                raise ValueError("the module action leaves the target basis")
            nz[k].append((j, x))
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
