"""Root datum of the even orthogonal similitude group and its dual.

Everything is written in the similitude coordinates e_0, ..., e_n.  A
weight either lives in the character lattice of the similitude group
(dual=False, where the roots are +-(e_i - e_j) and +-(e_i + e_j - e_0))
or in the dual lattice (dual=True, home of the coroots, the minuscule
cocharacters mu_eps and the half-spin weights e_0* + sum_{i in U} e_i*).

Torus points carry the same ambiguity, so two multiplicative Weyl
actions coexist: `weyl_act` on TorusCoordinates applies the similitude
convention (t_0, ..., t_n) -> (t_0, ..., t_0 t_j^{-1}, ...), while
`weyl_act_spinor` is the action on spinor-side points (s_0, ..., s_n)
where the spinor norm s_0^2 s_1 ... s_n is invariant.  The two are
contragredient to each other, which the tests pin down by evaluating
characters against moved points.

The module also provides the bridge to concrete Clifford elements:
`torus_clifford_element` builds c * prod_i (a_i e_i e_{n+i} +
b_i e_{n+i} e_i) and `coords_of` reads the coordinates back off a group
element (diagonal of the vector action, plus the coefficient of the
empty monomial for s_0).
"""

from __future__ import annotations

import itertools

from .clifford import CliffordElement, GPinElement, _mono, even_space
from .exact import SQRT_M1, GaussRat, _as_gauss, _Value

_ZERO = GaussRat(0)
_ONE = GaussRat(1)


def _coerce_scalar(x):
    g = _as_gauss(x)
    if g is None:
        raise TypeError(f"cannot use {x!r} as a torus coordinate")
    return g


class WeightVector(_Value):
    """Integer weight vector in the coordinates e_0..e_n (or e_0*..e_n*).

    dual=False places the vector in the character lattice of the
    similitude group; dual=True in the cocharacter lattice (equal to the
    character lattice of the spinor side).
    """

    __slots__ = ("coords", "dual")

    def __init__(self, coords, dual=False):
        coords = tuple(coords)
        for c in coords:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError("weight coordinates must be integers")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "dual", bool(dual))

    @property
    def n(self):
        return len(self.coords) - 1

    def _check_compatible(self, other, same_side):
        if not isinstance(other, WeightVector):
            raise TypeError("expected a WeightVector")
        if len(other.coords) != len(self.coords):
            raise ValueError("weight length mismatch")
        if same_side and other.dual != self.dual:
            raise ValueError("weights live in different lattices")
        if not same_side and other.dual == self.dual:
            raise ValueError("pairing needs one weight from each lattice")

    def __add__(self, other):
        self._check_compatible(other, True)
        return WeightVector(tuple(a + b for a, b in zip(self.coords, other.coords)), self.dual)

    def __sub__(self, other):
        self._check_compatible(other, True)
        return WeightVector(tuple(a - b for a, b in zip(self.coords, other.coords)), self.dual)

    def __neg__(self):
        return WeightVector(tuple(-a for a in self.coords), self.dual)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return WeightVector(tuple(k * a for a in self.coords), self.dual)

    __rmul__ = __mul__

    def __repr__(self):
        star = "*" if self.dual else ""
        return f"WeightVector{star}{self.coords}"

    def evaluate(self, point):
        """The character value prod_i point_i ** coords_i."""
        if isinstance(point, TorusCoordinates):
            point = point.s
        vals = [_coerce_scalar(p) for p in point]
        if len(vals) != len(self.coords):
            raise ValueError("point length mismatch")
        out = _ONE
        for p, c in zip(vals, self.coords):
            if c:
                out = out * p**c
        return out


def pairing(a, b):
    """Canonical pairing between the two lattices."""
    a._check_compatible(b, False)
    return sum(x * y for x, y in zip(a.coords, b.coords))


class TorusCoordinates(_Value):
    """A point of a rank-(n+1) torus: an (n+1)-tuple of nonzero scalars."""

    __slots__ = ("s",)

    def __init__(self, s):
        s = tuple(_coerce_scalar(x) for x in s)
        if len(s) < 2:
            raise ValueError("need at least two coordinates")
        if any(not x for x in s):
            raise ValueError("torus coordinates must be invertible")
        object.__setattr__(self, "s", s)

    @classmethod
    def identity(cls, n):
        return cls((_ONE,) * (n + 1))

    @property
    def n(self):
        return len(self.s) - 1

    def __getitem__(self, i):
        return self.s[i]

    def __len__(self):
        return len(self.s)

    def __iter__(self):
        return iter(self.s)

    def __mul__(self, other):
        if not isinstance(other, TorusCoordinates):
            return NotImplemented
        if len(other.s) != len(self.s):
            raise ValueError("rank mismatch")
        return TorusCoordinates(tuple(a * b for a, b in zip(self.s, other.s)))

    def inverse(self):
        return TorusCoordinates(tuple(_ONE / a for a in self.s))

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return TorusCoordinates(tuple(a**k for a in self.s))

    def __repr__(self):
        return "TorusCoordinates(" + ", ".join(str(x) for x in self.s) + ")"

    def to_json(self):
        """The coordinates in canonical text form; also the canonical sort key."""
        return [str(x) for x in self.s]

    def spinor_norm(self):
        """s_0^2 s_1 ... s_n, the spinor norm in spinor-side coordinates."""
        out = self.s[0] * self.s[0]
        for x in self.s[1:]:
            out = out * x
        return out


class WeylElement(_Value):
    """An element (sigma, a) of the Weyl group {+-1}^{n,'} x| S_n.

    perm is the tuple (sigma(1), ..., sigma(n)); signs has an even
    number of -1 entries (the similitude constraint).
    """

    __slots__ = ("perm", "signs")

    def __init__(self, perm, signs):
        perm = tuple(perm)
        signs = tuple(signs)
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise ValueError("perm must be a permutation of 1..n")
        if len(signs) != n or any(x not in (1, -1) for x in signs):
            raise ValueError("signs must be a tuple over {1,-1}")
        flips = sum(1 for x in signs if x == -1)
        if flips % 2:
            raise ValueError("odd number of sign flips is not in the Weyl group")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(1, n + 1)), (1,) * n)

    @property
    def n(self):
        return len(self.perm)

    def __mul__(self, other):
        """Composition: (self * other) acts as self after other."""
        if not isinstance(other, WeylElement):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("rank mismatch")
        perm = tuple(other.perm[self.perm[i] - 1] for i in range(self.n))
        signs = tuple(self.signs[i] * other.signs[self.perm[i] - 1] for i in range(self.n))
        return WeylElement(perm, signs)

    def inverse(self):
        inv = [0] * self.n
        signs = [1] * self.n
        for i in range(self.n):
            inv[self.perm[i] - 1] = i + 1
            signs[self.perm[i] - 1] = self.signs[i]
        return WeylElement(tuple(inv), tuple(signs))

    def __repr__(self):
        return f"WeylElement(perm={self.perm}, signs={self.signs})"


def weyl_group(n):
    """All n! * 2^(n-1) Weyl elements."""
    for perm in itertools.permutations(range(1, n + 1)):
        for raw in itertools.product((1, -1), repeat=n - 1):
            last = 1
            for x in raw:
                last *= x
            yield WeylElement(perm, raw + (last,))


def _permute(w, values):
    """values indexed 0..n; returns the tuple with entry i reading sigma(i)."""
    return (values[0],) + tuple(values[w.perm[i - 1]] for i in range(1, w.n + 1))


def weyl_act(w, x):
    """Weyl action in the similitude convention.

    On TorusCoordinates (similitude-side points): permute, then
    t_j -> t_0 t_j^{-1} on flipped coordinates.  On dual=True weights the
    same rule additively (c_j -> c_0 - c_j); on dual=False weights the
    contragredient rule c_0 -> c_0 + sum of flipped entries,
    c_j -> -c_j.
    """
    if isinstance(x, TorusCoordinates):
        if x.n != w.n:
            raise ValueError("rank mismatch")
        d = _permute(w, x.s)
        out = [d[0]]
        for j in range(1, w.n + 1):
            out.append(d[0] / d[j] if w.signs[j - 1] == -1 else d[j])
        return TorusCoordinates(tuple(out))
    if isinstance(x, WeightVector):
        if x.n != w.n:
            raise ValueError("rank mismatch")
        d = _permute(w, x.coords)
        if x.dual:
            out = [d[0]]
            for j in range(1, w.n + 1):
                out.append(d[0] - d[j] if w.signs[j - 1] == -1 else d[j])
        else:
            shift = sum(d[j] for j in range(1, w.n + 1) if w.signs[j - 1] == -1)
            out = [d[0] + shift]
            for j in range(1, w.n + 1):
                out.append(-d[j] if w.signs[j - 1] == -1 else d[j])
        return WeightVector(tuple(out), x.dual)
    raise TypeError("weyl_act expects TorusCoordinates or WeightVector")


def weyl_act_spinor(w, s):
    """Weyl action on spinor-side torus points.

    Permute, then s_0 -> s_0 * prod of flipped entries and
    s_j -> s_j^{-1} on flipped coordinates; the spinor norm
    s_0^2 s_1 ... s_n is invariant.  This is the conjugation action on
    the maximal torus of the Clifford model.
    """
    if not isinstance(s, TorusCoordinates):
        raise TypeError("weyl_act_spinor expects TorusCoordinates")
    if s.n != w.n:
        raise ValueError("rank mismatch")
    d = _permute(w, s.s)
    s0 = d[0]
    out = []
    for j in range(1, w.n + 1):
        if w.signs[j - 1] == -1:
            s0 = s0 * d[j]
            out.append(_ONE / d[j])
        else:
            out.append(d[j])
    return TorusCoordinates((s0,) + tuple(out))


# ---------------------------------------------------------------------------
# roots and coroots


def _wv(n, pairs, dual):
    coords = [0] * (n + 1)
    for idx, val in pairs:
        coords[idx] = val
    return WeightVector(tuple(coords), dual)


def _root_system(n, dual):
    """+-(e_i - e_j) and +-(e_i + e_j), sorted by coordinates.

    Roots (dual=False) carry -+e_0 on +-(e_i + e_j); coroots carry no e_0*.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for s in (1, -1):
                out.append(_wv(n, [(i, s), (j, -s)], dual))
                out.append(_wv(n, [(i, s), (j, s), (0, 0 if dual else -s)], dual))
    return sorted(out, key=lambda v: v.coords)


def roots(n):
    """All 2n(n-1) roots, sorted lexicographically by coordinates."""
    return _root_system(n, False)


def coroots(n):
    """All coroots +-(e_i* - e_j*), +-(e_i* + e_j*), sorted."""
    return _root_system(n, True)


def _simple_system(n, dual):
    """e_i - e_{i+1} for i < n, then e_{n-1} + e_n (minus e_0 for roots)."""
    if n < 3:
        raise ValueError("n >= 3 required")
    out = [_wv(n, [(i, 1), (i + 1, -1)], dual) for i in range(1, n)]
    out.append(_wv(n, [(n - 1, 1), (n, 1), (0, 0 if dual else -1)], dual))
    return out


def simple_roots(n):
    """alpha_1 .. alpha_n in indexed order."""
    return _simple_system(n, False)


def simple_coroots(n):
    """alpha_1^vee .. alpha_n^vee in indexed order."""
    return _simple_system(n, True)


# ---------------------------------------------------------------------------
# theta


def theta_on_coords(s):
    """(s_0, ..., s_n) -> (s_0 s_n, s_1, ..., s_{n-1}, s_n^{-1})."""
    if not isinstance(s, TorusCoordinates):
        raise TypeError("expected TorusCoordinates")
    sn = s.s[-1]
    return TorusCoordinates((s.s[0] * sn,) + s.s[1:-1] + (_ONE / sn,))


def theta_on_weights(v):
    """The involution on either weight lattice.

    dual=True: fixes e_1*..e_{n-1}*, sends e_n* to -e_n* and e_0* to
    e_0* + e_n* (so c_n -> c_0 - c_n in coordinates).  dual=False:
    fixes e_1..e_{n-1}, sends e_n to e_0 - e_n.
    """
    if not isinstance(v, WeightVector):
        raise TypeError("expected a WeightVector")
    c = v.coords
    if v.dual:
        return WeightVector(c[:-1] + (c[0] - c[-1],), True)
    return WeightVector((c[0] + c[-1],) + c[1:-1] + (-c[-1],), False)


# ---------------------------------------------------------------------------
# minuscule weights and half-spin weight multisets


def _eps_value(eps):
    if eps in (1, "+"):
        return 1
    if eps in (-1, "-"):
        return -1
    raise ValueError("epsilon must be +1/-1 or '+'/'-'")


def mu_eps(n, eps):
    """The minuscule (co)weight with highest-weight role for spin^eps."""
    eps = _eps_value(eps)
    last = 1 if eps == (-1) ** n else 0
    return WeightVector((1,) * n + (last,), dual=True)


def parity_subsets(n, eps):
    """Subsets U of {1..n} with (-1)^{#U} = eps, in colex order."""
    odd = _eps_value(eps) == -1
    return tuple(_mono(m) for m in range(1 << n) if m.bit_count() % 2 == odd)


def spin_weights(n, eps):
    """The 2^{n-1} weights e_0* + sum_{i in U} e_i*, sorted by coordinates."""
    if n < 3:
        raise ValueError("n >= 3 required")
    out = []
    for u in parity_subsets(n, eps):
        coords = [1] + [0] * n
        for i in u:
            coords[i] = 1
        out.append(WeightVector(tuple(coords), dual=True))
    return sorted(out, key=lambda v: v.coords)


def central_char(n, eps, a, b):
    """Value of the spin^eps central character at (a, b) in Gm x {+-1}."""
    eps = _eps_value(eps)
    a = _coerce_scalar(a)
    b = _coerce_scalar(b)
    if b * b != _ONE:
        raise ValueError("b must be +-1")
    k = n if eps == (-1) ** n else n - 1
    return a * b**k


# ---------------------------------------------------------------------------
# centers


class CenterDescriptor:
    """Structure of the center for one of the four groups.

    Coordinates are full (n+1)-tuples: spinor-side (s_0, ..., s_n) for
    the Spin/GSpin tags, similitude-side (t_0, ..., t_n) for SO/GSO.
    torsion() lists the rational torsion points (fourth roots of unity
    at most, since the scalars are Gaussian rationals).
    """

    __slots__ = ("tag", "n", "has_gm", "structure", "generators", "orders", "theta_images")

    def __init__(self, tag, n, has_gm, structure, generators, orders, theta_images):
        self.tag = tag
        self.n = n
        self.has_gm = has_gm
        self.structure = structure
        self.generators = generators
        self.orders = orders
        self.theta_images = theta_images

    def torsion(self):
        """All rational torsion elements, generated by `generators`."""
        points = {TorusCoordinates.identity(self.n)}
        frontier = list(points)
        while frontier:
            new = []
            for p in frontier:
                for g in self.generators:
                    q = p * g
                    if q not in points:
                        points.add(q)
                        new.append(q)
            frontier = new
        if self.tag in ("gspin", "gso") and self.has_gm:
            extra = set()
            for p in points:
                for z in (SQRT_M1, -_ONE, -SQRT_M1):
                    extra.add(p * self._gm_point(z))
            points |= extra
        return sorted(points, key=TorusCoordinates.to_json)

    def _gm_point(self, z):
        if self.tag == "gspin":
            return TorusCoordinates((z,) + (_ONE,) * self.n)
        return TorusCoordinates((z * z,) + (z,) * self.n)

    def to_json(self):
        return {
            "group": self.tag,
            "n": self.n,
            "structure": self.structure,
            "has_gm": self.has_gm,
            "generators": [g.to_json() for g in self.generators],
            "orders": self.orders,
            "theta_images": [g.to_json() for g in self.theta_images],
        }


def _expand(n, s0, rest):
    return TorusCoordinates((s0,) + (rest,) * n)


def z_eps(n, eps):
    """The kernel element (eps, -1) of spin^eps, in full coordinates."""
    return _expand(n, GaussRat(_eps_value(eps)), -_ONE)


def scalar_in_coords(n, c):
    """The central scalar c of the Clifford algebra: (c, 1, ..., 1)."""
    return _expand(n, _coerce_scalar(c), _ONE)


def center(tag, n):
    """Center structure for tag in {so, gso, spin, gspin}."""
    key = str(tag).lower()
    if n < 3:
        raise ValueError("n >= 3 required")
    if key == "gspin":
        zplus = _expand(n, _ONE, -_ONE)
        return CenterDescriptor(
            key,
            n,
            True,
            "Gm x Z/2",
            [zplus],
            [2],
            [_expand(n, -_ONE, -_ONE)],
        )
    if key == "spin":
        if n % 2 == 0:
            zplus = _expand(n, _ONE, -_ONE)
            zminus = _expand(n, -_ONE, -_ONE)
            return CenterDescriptor(
                key,
                n,
                False,
                "Z/2 x Z/2",
                [zplus, zminus],
                [2, 2],
                [zminus, zplus],
            )
        zeta = _expand(n, SQRT_M1, -_ONE)
        return CenterDescriptor(key, n, False, "Z/4", [zeta], [4], [_expand(n, -SQRT_M1, -_ONE)])
    if key == "so":
        minus_id = _expand(n, _ONE, -_ONE)
        return CenterDescriptor(key, n, False, "Z/2", [minus_id], [2], [minus_id])
    if key == "gso":
        return CenterDescriptor(key, n, True, "Gm", [], [], [])
    raise ValueError(f"unknown group tag {tag!r}")


# ---------------------------------------------------------------------------
# Clifford torus bridge


def torus_clifford_element(c, a, b):
    """The group element c * prod_i (a_i e_i e_{n+i} + b_i e_{n+i} e_i).

    A factor with a_i = b_i is the scalar a_i (e_i e_{n+i} + e_{n+i} e_i = 1)
    and is folded into c; any other is (a_i - b_i) e_i e_{n+i} + b_i by the
    same relation, and the first of those also takes c.  Each such factor
    is small and fully checked; their product composes the norm and
    pr_circ of the point from theirs.  When every a_i = b_i the point is
    the scalar c, checked alone.
    """
    a = [_coerce_scalar(x) for x in a]
    b = [_coerce_scalar(x) for x in b]
    c = _coerce_scalar(c)
    if len(a) != len(b) or not a:
        raise ValueError("a and b must be nonempty tuples of equal length")
    if not c or any(not x for x in a) or any(not x for x in b):
        raise ValueError("torus parameters must be nonzero")
    n = len(a)
    space = even_space(n)
    for ai, bi in zip(a, b):
        if ai == bi:
            c = c * ai
    factors = [CliffordElement(space, {(i, n + i): ai - bi, (): bi})
               for i, (ai, bi) in enumerate(zip(a, b), 1) if ai != bi]
    if not factors:
        return GPinElement(CliffordElement.scalar(space, c))
    t = GPinElement(c * factors[0])
    for f in factors[1:]:
        t = t * GPinElement(f)
    return t


def torus_point(s):
    """The Clifford torus element with spinor-side coordinates s."""
    if not isinstance(s, TorusCoordinates):
        s = TorusCoordinates(s)
    return torus_clifford_element(s.s[0], s.s[1:], (_ONE,) * s.n)


def coords_of(g):
    """Spinor-side coordinates (s_0, ..., s_n) of a torus element.

    s_1..s_n are read off the diagonal of the vector action and s_0 is
    the coefficient of the empty monomial (the weight of the vacuum);
    the spinor norm identity s_0^2 s_1 ... s_n = N(g) is verified.
    """
    if not isinstance(g, GPinElement):
        raise TypeError("expected a GPinElement")
    if g.space.kind != "even":
        raise ValueError("torus coordinates are defined on the even space")
    n = g.space.n
    m = g.pr_circ()
    if not m.is_diagonal():
        raise ValueError("element is not in the standard maximal torus")
    s = [m[i, i] for i in range(n)]
    for i in range(n):
        if m[n + i, n + i] * s[i] != _ONE:
            raise ValueError("element is not in the standard maximal torus")
    s0 = g.elt.coefficient(())
    if not s0:
        raise ValueError("element is not in the standard maximal torus")
    coords = TorusCoordinates((s0,) + tuple(s))
    if coords.spinor_norm() != g.spinor_norm():
        raise ValueError("element is not in the standard maximal torus")
    return coords
