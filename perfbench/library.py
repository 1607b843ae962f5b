"""The in-process workloads: `group-ops` and `rep-conj`.

Both are a closed loop from one caller thread: the next call starts when
the previous one returns.  The timed phase is a sequence of passes.  A
pass is a fixed list of operations at n = 5 and n = 6; only the values in
it come from the seed, so the cost of a pass hardly depends on the seed.
Each pass gets freshly built operands, made between passes and outside
every timed span, so no pass can profit from state that a cache kept on
an element queried in an earlier pass.  Every result is checked outside
its timed span; a failed check or an exception is counted, never raised.

group-ops stresses `clifford`: torus points, theta, GPin products and
inverses each build a `GPinElement` (membership check plus 2n
conjugations).  rep-conj is its control: every element it queries is
built before its timed span, so the timed calls (`fingerprint`,
`is_conjugate_*`, `spin_matrix`) run `spinrep.act` and `exact.charpoly`
but no Clifford product.  Three of its six `is_conjugate_*` calls per n
query an element already queried in the same pass, so the library's
spin-matrix caches see hits beside misses.
"""

from dataclasses import dataclass
from typing import Callable

import gspin
from gspin import spinrep
from gspin.clifford import GPinElement
from gspin.exact import GaussRat, Mat

NS = (5, 6)
# Number of torus coordinates other than 1, cycled by pass index; a torus
# element with k such coordinates has 2^k Clifford terms.  Cycling spreads
# the operation costs over many levels, so that the latency percentiles of
# a run do not sit on a jump between two levels.
TORUS_K = (2, 3, 4)
SPAN = 9


@dataclass
class Op:
    kind: str
    n: int
    call: Callable[[], object]
    check: Callable[[object], bool]


# -- operand builders (never timed) --------------------------------------

def _nonunit(rng):
    return GaussRat(rng.choice((-1, 1)) * rng.randint(2, SPAN))


def torus_coords(rng, n, index):
    """Spinor-side coordinates with s_i != 1 exactly at k cyclically
    consecutive positions.  k and the positions, which decide the Clifford
    monomials a computation touches, depend on the pass index and not on
    the seed, so the cost of a pass does not depend on the seed."""
    k, offset = TORUS_K[index % len(TORUS_K)], index
    s = [GaussRat(1)] * (n + 1)
    s[0] = _nonunit(rng)
    for j in range(k):
        s[(offset + j) % n + 1] = _nonunit(rng)
    return gspin.TorusCoordinates(s)


def vectors(rng, space, count):
    return [gspin.random_vector(space, rng, nnz=2) for _ in range(count)]


def product_of(vecs):
    acc = vecs[0]
    for v in vecs[1:]:
        acc = acc * v
    return GPinElement(acc)


def random_weyl(rng, n):
    perm = rng.sample(range(1, n + 1), n)
    signs = [rng.choice((1, -1)) for _ in range(n - 1)]
    last = 1
    for x in signs:
        last *= x
    return gspin.WeylElement(perm, signs + [last])


def _std_eigenvalues(s):
    out = []
    for x in s.s[1:]:
        out += [x.re, 1 / x.re]
    return sorted(out)


def same_norm_other_torus(s):
    """Coordinates with the spinor norm of s but another multiset of
    standard eigenvalues {s_i, 1/s_i}, so the torus points cannot be
    conjugate in GPin."""
    for a in range(2, 10):
        t = gspin.TorusCoordinates((s[0] * a,) + (s[1] / (a * a),) + tuple(s.s[2:]))
        if _std_eigenvalues(t) != _std_eigenvalues(s):
            return t
    raise ValueError("no same-norm torus point with other eigenvalues")


# -- checks (never timed) -------------------------------------------------

def product_ok(r, x, y):
    return (r.spinor_norm() == x.spinor_norm() * y.spinor_norm()
            and r.pr_circ() == x.pr_circ() * y.pr_circ())


def inverse_ok(r, x):
    return (r.pr_circ() * x.pr_circ() == Mat.identity(x.space.dim)
            and r.spinor_norm() * x.spinor_norm() == 1)


def vector_norm(vecs):
    out = GaussRat(1)
    for v in vecs:
        out = out * v.space.quad(v.as_vector())
    return out


def fingerprint_ok(fp, n, norm):
    half = 1 << (n - 1)
    return (fp.norm == norm and fp.cp_std.is_monic() and fp.cp_std.degree == 2 * n
            and fp.cp_std(GaussRat(0)) == 1
            and fp.cp_spin_plus.degree == half and fp.cp_spin_minus.degree == half)


def spin_matrix_ok(sm, vecs):
    """The spin representation is multiplicative: S(v_1...v_k) = S(v_1)...S(v_k)."""
    mats = [gspin.spin_matrix(GPinElement(v)).mat for v in vecs]
    acc = mats[-1]
    for m in reversed(mats[:-1]):
        acc = m * acc
    return sm.mat == acc


# -- passes ---------------------------------------------------------------

def group_ops_pass(rng, index):
    ops = []
    for n in NS:
        ops += _group_ops_n(rng, n, index)
    return ops


def _group_ops_n(rng, n, index):
    space = gspin.even_space(n)
    sa, sb = torus_coords(rng, n, index), torus_coords(rng, n, index + 1)
    g = product_of(vectors(rng, space, 2))
    box = {}

    def make(name, s):
        def call():
            box[name] = gspin.torus_point(s)
            return box[name]
        return call

    return [
        Op("torus_point", n, make("ta", sa), lambda r: gspin.coords_of(r) == sa),
        Op("torus_point", n, make("tb", sb), lambda r: gspin.coords_of(r) == sb),
        Op("coords_of", n, lambda: gspin.coords_of(box["ta"]), lambda r: r == sa),
        Op("theta", n, lambda: gspin.theta(box["ta"]),
           lambda r: gspin.coords_of(r) == gspin.theta_on_coords(sa)),
        Op("product", n, lambda: g * box["tb"], lambda r: product_ok(r, g, box["tb"])),
        Op("product", n, lambda: box["ta"] * box["tb"],
           lambda r: product_ok(r, box["ta"], box["tb"]) and gspin.coords_of(r) == sa * sb),
        Op("inverse", n, lambda: box["tb"].inverse(), lambda r: inverse_ok(r, box["tb"])),
        Op("inverse", n, lambda: g.inverse(), lambda r: inverse_ok(r, g)),
    ]


def rep_conj_pass(rng, index):
    ops = []
    for n in NS:
        ops += _rep_conj_n(rng, n, index)
    return ops


def _rep_conj_n(rng, n, index):
    space = gspin.even_space(n)
    f1, f2, f3 = vectors(rng, space, 2), vectors(rng, space, 2), vectors(rng, space, 4)
    g1, g2, g3 = product_of(f1), product_of(f2), product_of(f3)
    u = product_of(vectors(rng, space, 2))
    v, w = (GPinElement(x) for x in vectors(rng, space, 2))
    h1 = u * g1 * u.inverse()
    h1v = w * g1 * w.inverse()
    h2 = v * g2 * v.inverse()
    s = torus_coords(rng, n, index)
    t = gspin.torus_point(s)
    t_w = gspin.torus_point(gspin.weyl_act_spinor(random_weyl(rng, n), s))
    t_neg = gspin.torus_point(same_norm_other_torus(s))
    t_w_theta = gspin.theta(t_w)
    norm3 = vector_norm(f3)
    conj = gspin.is_conjugate_gspin
    conj_pin = gspin.is_conjugate_gpin
    return [
        Op("fingerprint", n, lambda: gspin.fingerprint(g3), lambda r: fingerprint_ok(r, n, norm3)),
        Op("spin_matrix", n, lambda: gspin.spin_matrix(g3), lambda r: spin_matrix_ok(r, f3)),
        # conjugate by a GSpin element, by a vector, and by a Weyl translate
        Op("is_conjugate_gspin", n, lambda: conj(g1, h1), lambda r: r is True),
        Op("is_conjugate_gpin", n, lambda: conj_pin(g2, h2), lambda r: r is True),
        Op("is_conjugate_gspin", n, lambda: conj(t, t_w), lambda r: r is True),
        # each of the next three queries an element already queried above
        Op("is_conjugate_gspin", n, lambda: conj(t, t_neg), lambda r: r is False),
        Op("is_conjugate_gpin", n, lambda: conj_pin(t_w, t_w_theta), lambda r: r is True),
        Op("is_conjugate_gpin", n, lambda: conj_pin(g1, h1v), lambda r: r is True),
    ]


# Per-element memo tables of the library that a pass must not inherit
# from the previous one; looked up by name so that a version without them
# still runs.
_ELEMENT_CACHES = ("_spin_mat_cached", "_half_spin_mat_cached")


def forget_elements():
    for name in _ELEMENT_CACHES:
        cache = getattr(spinrep, name, None)
        if cache is not None and hasattr(cache, "cache_clear"):
            cache.cache_clear()


WORKLOADS = {
    "group-ops": (group_ops_pass, lambda: None),
    "rep-conj": (rep_conj_pass, forget_elements),
}
