"""Semisimple conjugacy testing and related unipotent/orbit utilities.

Two even-space group elements are compared through the fingerprint
(N, charpoly on the standard representation, charpolys on the two
half-spin representations); for the full twisted group the two half-spin
polynomials collapse to the one full-spin polynomial, which is also the
only option for odd-parity elements.  On semisimple inputs fingerprint
equality decides conjugacy; the functions never attempt to semisimplify,
so callers are expected to feed torus-generated elements (or products
they know to be semisimple).

The module also provides the principal nilpotent of the odd orthogonal
subalgebra pushed into the even one (whose exponential is the standard
witness for a regular unipotent of type [2n-1, 1]), a regular-unipotent
tester, and two weight-multiset computations for the n = 4 triality
phenomena: the orbit discriminator separating a spin-composed embedding
from its outer twist, and the decomposition check identifying the two
half-spin restrictions with std (+) trivial and the 8-dimensional spin
representation.
"""

from collections import Counter
from itertools import product

from .clifford import GPinElement, even_space, std_split, theta
from .exact import GaussRat, Mat, _Value, charpoly, inverse, jordan_partition
from .spinrep import half_spin_matrix, spin_matrix


class Fingerprint(_Value):
    """Conjugacy invariants of an even-space GPin element.

    ``cp_spin_plus`` / ``cp_spin_minus`` are set for even-parity elements,
    ``cp_spin_full`` for odd-parity ones (the half-spin blocks are not
    preserved in that case).
    """

    __slots__ = ("norm", "cp_std", "cp_spin_plus", "cp_spin_minus", "cp_spin_full")

    def __init__(self, norm, cp_std, cp_spin_plus=None, cp_spin_minus=None, cp_spin_full=None):
        halves = cp_spin_plus is not None and cp_spin_minus is not None
        if halves == (cp_spin_full is not None):
            raise ValueError("provide either both half-spin polynomials or the full one")
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "cp_std", cp_std)
        object.__setattr__(self, "cp_spin_plus", cp_spin_plus)
        object.__setattr__(self, "cp_spin_minus", cp_spin_minus)
        object.__setattr__(self, "cp_spin_full", cp_spin_full)

    @property
    def is_even(self):
        return self.cp_spin_full is None

    def full_spin_poly(self):
        """Characteristic polynomial on the full spin representation."""
        if self.cp_spin_full is not None:
            return self.cp_spin_full
        return self.cp_spin_plus * self.cp_spin_minus

    def __repr__(self):
        if self.is_even:
            spins = f"spin+: {self.cp_spin_plus.pretty()}, spin-: {self.cp_spin_minus.pretty()}"
        else:
            spins = f"spin: {self.cp_spin_full.pretty()}"
        return f"Fingerprint(N={self.norm}, std: {self.cp_std.pretty()}, {spins})"

    def to_json(self):
        out = {"norm": str(self.norm), "cp_std": self.cp_std.to_json()}
        if self.is_even:
            out["cp_spin_plus"] = self.cp_spin_plus.to_json()
            out["cp_spin_minus"] = self.cp_spin_minus.to_json()
        else:
            out["cp_spin_full"] = self.cp_spin_full.to_json()
        return out


def _check_fingerprint_input(g):
    if not isinstance(g, GPinElement):
        raise TypeError("fingerprint expects a GPinElement")
    if g.space.kind != "even":
        raise ValueError("fingerprint is defined on the even-space group")


def fingerprint(g):
    """The invariant tuple (N, std, spin) of an even-space GPin element.

    Equality of fingerprints decides conjugacy for semisimple elements;
    the caller is responsible for semisimplicity.
    """
    _check_fingerprint_input(g)
    cp_std = charpoly(g.pr_circ())
    if g.parity == 0:
        cp_plus = charpoly(half_spin_matrix(g, 1).mat)
        cp_minus = charpoly(half_spin_matrix(g, -1).mat)
        return Fingerprint(g.spinor_norm(), cp_std, cp_spin_plus=cp_plus, cp_spin_minus=cp_minus)
    cp_full = charpoly(spin_matrix(g).mat)
    return Fingerprint(g.spinor_norm(), cp_std, cp_spin_full=cp_full)


def _same_invariants(g, h, spin_polys):
    """Whether g and h agree in the spinor norm, then the standard
    polynomial, then each spin polynomial that spin_polys(x) yields in
    turn: the fingerprint comparison, stopping at the first difference."""
    if g.spinor_norm() != h.spinor_norm() or charpoly(g.pr_circ()) != charpoly(h.pr_circ()):
        return False
    return all(p == q for p, q in zip(spin_polys(g), spin_polys(h)))


def is_conjugate_gspin(g, h):
    """Fingerprint equality on the connected group (even parity required)."""
    for x in (g, h):
        if not (isinstance(x, GPinElement) and x.space.kind == "even"):
            raise ValueError("is_conjugate_gspin expects even-space GPin elements")
        if x.parity:
            raise ValueError("is_conjugate_gspin expects even-parity elements")
    return _same_invariants(g, h, lambda x: (charpoly(half_spin_matrix(x, eps).mat)
                                             for eps in (1, -1)))


def is_conjugate_gpin(g, h):
    """Fingerprint equality for the full twisted group: (N, std, full spin).

    The full spin polynomial of an even element is the product of its two
    half-spin polynomials, the characteristic polynomial of its block
    diagonal spin matrix.
    """
    _check_fingerprint_input(g)
    _check_fingerprint_input(h)
    return _same_invariants(g, h, lambda x: (charpoly(spin_matrix(x).mat),))


def is_outer_conjugate(g, h):
    """Conjugacy of g to the outer twist of h (both even parity)."""
    return is_conjugate_gspin(g, theta(h))


def principal_nilpotent(n):
    """Sum of simple root vectors of the odd orthogonal subalgebra, in so_2n.

    The matrix acts on the standard 2n-dimensional space; it is the image
    of a principal nilpotent of so_{2n-1} under the vector-level embedding
    (zero on the orthogonal complement line), so its exponential has
    Jordan type [2n-1, 1].
    """
    if not (isinstance(n, int) and n >= 3):
        raise ValueError("principal_nilpotent needs an integer n >= 3")
    d = 2 * n - 1
    zero, one = GaussRat(0), GaussRat(1)
    rows = [[zero] * (d + 1) for _ in range(d + 1)]
    for i in range(1, n - 1):
        rows[i - 1][i] = one
        rows[n - 1 + i][n - 2 + i] = -one
    rows[2 * n - 2][2 * n - 3] = one
    rows[n - 2][2 * n - 2] = GaussRat(-2)
    block = Mat(rows)
    p = std_split(n).change_of_basis()
    return p * block * inverse(p)


def is_regular_unipotent_so(u):
    """True iff u is unipotent, preserves the split form, and has type [2n-1, 1].

    Raises ValueError when u is not an orthogonal unipotent matrix of even
    size at least 6.
    """
    if not isinstance(u, Mat):
        raise TypeError("is_regular_unipotent_so expects a Mat")
    if not u.is_square or u.nrows % 2 or u.nrows < 6:
        raise ValueError("expected a 2n x 2n matrix with n >= 3")
    n = u.nrows // 2
    gram = even_space(n).gram()
    if u.transpose() * gram * u != gram:
        raise ValueError("matrix does not preserve the standard form")
    parts = jordan_partition(u)
    return parts == [2 * n - 1, 1]


def _check_spin_cocharacter(a1, a2, a3):
    for a in (a1, a2, a3):
        if not isinstance(a, int) or isinstance(a, bool):
            raise TypeError("cocharacter entries must be integers")
    if (a1 + a2 + a3) % 2:
        raise ValueError("a1 + a2 + a3 must be even (cocharacter of the spin group)")


def spin7_orbit_discriminator(a1, a2, a3):
    """Whether the spin-composed cocharacter and its outer twist stay conjugate.

    The eight values (e1*a1 + e2*a2 + e3*a3)/2 split by the parity of the
    number of sign flips into the weight multisets of the two half-spin
    compositions; the outer twist swaps the halves, so the two embeddings
    agree on this cocharacter exactly when the multisets coincide.
    """
    _check_spin_cocharacter(a1, a2, a3)
    even, odd = Counter(), Counter()
    for signs in product((1, -1), repeat=3):
        value = (signs[0] * a1 + signs[1] * a2 + signs[2] * a3) // 2
        if signs.count(-1) % 2 == 0:
            even[value] += 1
        else:
            odd[value] += 1
    return even == odd


def spin_minus_irreducibility_weight_check(n, a):
    """Identify each half-spin restriction (as a weight multiset) at n = 4.

    ``a`` is a cocharacter triple of the 7-variable spin group; the return
    value maps "+" and "-" to the tuple of reference multisets matched,
    drawn from "std+1" (standard 7-dimensional plus trivial) and "spin"
    (8-dimensional spin).  Generic ``a`` matches exactly one on each side;
    degenerate ``a`` may match both.
    """
    if n != 4:
        raise ValueError("the weight check is only meaningful for n = 4")
    a1, a2, a3 = a
    _check_spin_cocharacter(a1, a2, a3)
    b = (
        (a1 + a2 + a3) // 2,
        (a1 + a2 - a3) // 2,
        (a1 - a2 + a3) // 2,
        (a1 - a2 - a3) // 2,
    )
    halves = {1: Counter(), -1: Counter()}
    for signs in product((1, -1), repeat=4):
        eps = signs[0] * signs[1] * signs[2] * signs[3]
        value = sum(s * c for s, c in zip(signs, b)) // 2
        halves[eps][value] += 1
    std_plus_one = Counter([a1, -a1, a2, -a2, a3, -a3, 0, 0])
    spin_ref = Counter(
        (s1 * a1 + s2 * a2 + s3 * a3) // 2 for s1, s2, s3 in product((1, -1), repeat=3)
    )
    references = (("std+1", std_plus_one), ("spin", spin_ref))
    return {
        "+": tuple(label for label, ref in references if halves[1] == ref),
        "-": tuple(label for label, ref in references if halves[-1] == ref),
    }
