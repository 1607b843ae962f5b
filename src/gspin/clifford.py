"""Clifford algebras of the split quadratic spaces and the groups GPin/GSpin.

The spaces come in three shapes: the even space of dimension 2n (basis
e_1..e_2n, hyperbolic pairs e_j/e_{n+j}), the odd space of dimension 2n-1
(basis f_1..f_{2n-1}, pairs f_j/f_{n-1+j} plus the anisotropic line
f_{2n-1} with Q = 1), and one-dimensional lines with a chosen Q-value.

Clifford elements are finite sums of monomials e_{s_1}...e_{s_r} with
strictly increasing indices; multiplication folds generators into a
monomial one at a time using e_j e_k = <e_j,e_k> - e_k e_j for j > k and
e_j^2 = Q(e_j).  Each basis vector pairs with at most one other, so
e_S e_g has a closed form with at most two terms (`_fold`), computed on
`int` bitmasks and Gaussian-integer numerators that never leave this
module.  `exact._numerators` and `exact._over` convert coefficients to
numerators and back, so this module never reads how a ``GaussRat`` is
stored; ``terms`` keys stay sorted tuples, and nothing is memoized.
Products and ``beta`` share that kernel (`_product`, `_beta_terms`,
`_merge`).  The membership check of ``GPinElement`` reads candidate
images of the basis vectors in the Fock module (`_compiled` terms on
the same masks and numerators, walked by `_column`, which `spinrep`
shares) and certifies them with the kernel, in O(n^2 T + K T) for T
terms and K masks of a vacuum image (`_certificate`).  On top of the
algebra sit the group elements (``GPinElement``: homogeneous, invertible,
stabilizing V under conjugation), the spinor norm, the vector representation pr_circ
(twisted conjugation v -> x v beta(x) is spinor_norm() * pr_circ()), the
graded embedding ``c_phi`` of an orthogonal decomposition, the standard
embedding ``i_std`` of the odd group into the even one, and the outer
automorphism ``theta`` given by conjugation with
theta_elt = sqrt(-1)*(e_n - e_{2n}).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .exact import SQRT_M1, GaussRat, Mat, _as_gauss, _numerators, _over, rank


class QuadSpace:
    """A split quadratic space with a distinguished basis.

    kind "even": dim 2n, Q(e_j) = 0, <e_j, e_{n+j}> = 1.
    kind "odd":  dim 2n-1, Q(f_j) = 0 for j <= 2n-2, <f_j, f_{n-1+j}> = 1,
                 Q(f_{2n-1}) = 1 (so <f_{2n-1}, f_{2n-1}> = 2).
    kind "line": dim 1 with a prescribed Q-value on its basis vector.

    ``scale`` is the least positive integer D with D*Q in Z[i] on a line,
    and 1 otherwise; the product kernel rescales generators by it.  With
    h = dim // 2 the partner of g <= h is g + h on even and odd spaces,
    and no other basis vectors pair.  The top generator g = dim is the
    only one with Q(g) != 0 (on odd spaces and lines), so ``_top_q``
    holds the Gaussian-integer numerators of its Q(g) * D^2, or None
    when Q is zero on every generator.

    There is one object per space: every construction returns the
    instance for its (kind, n, Q), so spaces compare by identity.
    """

    __slots__ = ("kind", "n", "q_val", "dim", "scale", "_top_q")
    _interned = {}

    def __new__(cls, kind, n=None, q_val=None):
        if kind == "even" or kind == "odd":
            least = 1 if kind == "even" else 2
            if not (type(n) is int and n >= least):
                raise ValueError(f"{kind} space needs n >= {least}")
            key, dim, scale = (kind, n, None), 2 * n if kind == "even" else 2 * n - 1, 1
            top = None if kind == "even" else (1, 0)
        elif kind == "line":
            q = _as_gauss(q_val)
            if q is None:
                raise ValueError("line space needs a Q-value")
            # Q = (re + im*i) / D, so Q * D^2 = D * (re + im*i)
            scale, (re,), (im,) = _numerators([q])
            key, dim, top = (kind, 1, q), 1, (re * scale, im * scale) if q else None
        else:
            raise ValueError(f"unknown space kind {kind!r}")
        self = cls._interned.get(key)
        if self is None:
            self = cls._interned[key] = object.__new__(cls)
            (self.kind, self.n, self.q_val), self.dim, self.scale = key, dim, scale
            self._top_q = top
        return self

    def q(self, j):
        """Q on the j-th basis vector (1-based)."""
        self._check_index(j)
        if self.kind == "even":
            return GaussRat(0)
        if self.kind == "odd":
            return GaussRat(1) if j == 2 * self.n - 1 else GaussRat(0)
        return self.q_val

    def pair(self, j, k):
        """The bilinear pairing <v_j, v_k> of basis vectors (1-based)."""
        self._check_index(j)
        self._check_index(k)
        if j == k:
            return GaussRat(2) * self.q(j)
        lo, h = min(j, k), self.dim // 2
        return GaussRat(int(lo <= h and max(j, k) == lo + h))

    def _check_index(self, j):
        if not (type(j) is int and 1 <= j <= self.dim):
            raise ValueError(f"basis index {j} out of range for dim {self.dim}")

    def gram(self):
        """Gram matrix of the bilinear pairing."""
        d = self.dim
        return Mat([[self.pair(i + 1, j + 1) for j in range(d)] for i in range(d)])

    def bilinear(self, v, w):
        """<v, w> for coordinate sequences."""
        v, w = list(v), list(w)
        if len(v) != self.dim or len(w) != self.dim:
            raise ValueError("coordinate length mismatch")
        return sum((a * b * self.pair(j + 1, k + 1) for j, a in enumerate(v) if a
                    for k, b in enumerate(w) if b), GaussRat(0))

    def quad(self, v):
        """Q(v) for a coordinate sequence, in closed form: the sum of
        v_i v_{i+h} over the hyperbolic pairs (h = dim // 2), plus
        Q(top) v_top^2 for the top vector of an odd space or a line."""
        v = list(v)
        if len(v) != self.dim:
            raise ValueError("coordinate length mismatch")
        h = self.dim // 2
        out = sum((a * b for a, b in zip(v[:h], v[h:2 * h]) if a and b), GaussRat(0))
        if self.dim % 2 and v[-1]:
            out = out + self.q(self.dim) * v[-1] * v[-1]
        return out

    def basis_letter(self):
        return {"even": "e", "odd": "f", "line": "u"}[self.kind]

    def __repr__(self):
        if self.kind == "line":
            return f"QuadSpace(line, Q={self.q_val})"
        return f"QuadSpace({self.kind}, n={self.n}, dim={self.dim})"

    def to_json(self):
        if self.kind == "line":
            return {"kind": "line", "q": str(self.q_val)}
        return {"kind": self.kind, "n": self.n}

    @classmethod
    def from_json(cls, data):
        if data["kind"] == "line":
            return cls("line", q_val=GaussRat.parse(data["q"]))
        return cls(data["kind"], data["n"])


def even_space(n):
    return QuadSpace("even", n)


def odd_space(n):
    return QuadSpace("odd", n)


def line_space(q_val):
    return QuadSpace("line", q_val=q_val)


def _term_numerators(x):
    """(den, re, im): x's coefficients, in the order of ``x.terms``, as
    Gaussian-integer numerators over their least common denominator
    (`exact._numerators`).

    A line space's generator is rescaled to u' = D u with D = ``space.scale``,
    so Q(u') = D^2 Q(u) is a Gaussian integer and the coefficient of a
    length-L monomial is divided by D^L here (and multiplied back in
    `_from_numerators`).  Even and odd spaces have D = 1.
    """
    scale = x.space.scale
    return _numerators(x.terms.values() if scale == 1
                       else [c / scale ** len(m) for m, c in x.terms.items()])


def _mask(mono):
    """The bitmask of a strictly increasing monomial: bit j - 1 for index j."""
    m = 0
    for j in mono:
        m |= 1 << (j - 1)
    return m


def _mono(m):
    """The strictly increasing monomial of a bitmask, lowest set bit first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length())
        m ^= low
    return tuple(out)


def _fold(space, frontier, gens):
    """The terms of (sum of frontier terms) * e_g1 * e_g2 * ..., g in gens.

    frontier lists (mask, re, im) terms, the monomial a bitmask (`_mask`)
    and re + im*i a Gaussian-integer numerator (`_term_numerators`).  Each
    generator g is folded in by the closed form of e_S e_g: moving e_g
    left past the e_s with s > g flips the sign once per such s and, at
    g's partner p > g, contracts to <e_p, e_g> = 1, so
      e_S e_g = (-1)^#{s in S: s > g} e_{S xor g}   (times Q(g) if g in S)
              + (-1)^#{s in S: s > p} e_{S minus p}  (if p in S),
    with p = g + h for g <= h = dim // 2 and Q(g) rescaled as in
    `_term_numerators` (nonzero only at g = dim: ``space._top_q``).  gens
    are distinct (a basis monomial, or one reversed), so the terms that
    grow out of one monomial never land on the same monomial within a
    step: a plain list loses no merging, and equal monomials from
    different starting terms are summed once, at the end (`_merge`).
    Products and `beta` work on such lists, and `_from_numerators` turns
    them back into tuples.  The membership check of `GPinElement` uses
    `_fold` and its left-hand mirror `_fold_left` to certify x e_j ==
    w_j x (`_certificate`), and reads the candidates w_j in the Fock
    module on the same masks (`_column`).  `_mask` and `_mono` are the
    only conversions.
    """
    dim, h, top = space.dim, space.dim // 2, space._top_q
    for g in gens:
        bit = 1 << (g - 1)
        p, pbit = (g + h, bit << h) if g <= h else (0, 0)
        q = top if g == dim else None
        out = []
        add = out.append
        for m, re, im in frontier:
            if m & pbit:
                add((m ^ pbit, -re, -im) if (m >> p).bit_count() & 1 else (m ^ pbit, re, im))
            if m & bit:
                if q is None:
                    continue
                re, im = re * q[0] - im * q[1], re * q[1] + im * q[0]
            add((m ^ bit, -re, -im) if (m >> g).bit_count() & 1 else (m ^ bit, re, im))
        frontier = out
    return frontier


def _fold_left(space, g, frontier):
    """The terms of e_g * (sum of frontier terms): the mirror of `_fold`.

    Moving e_g right past the e_s with s < g flips the sign once per such
    s and, at g's partner p < g, contracts to <e_g, e_p> = 1, so
      e_g e_S = (-1)^#{s in S: s < g} e_{S xor g}   (times Q(g) if g in S)
              + (-1)^#{s in S: s < p} e_{S minus p}  (if p in S),
    with p = g - h for h < g <= 2h, h = dim // 2.
    """
    h, bit = space.dim // 2, 1 << (g - 1)
    pbit = bit >> h if h < g <= 2 * h else 0
    q = space._top_q if g == space.dim else None
    below, pbelow = bit - 1, pbit - 1
    out = []
    add = out.append
    for m, re, im in frontier:
        if m & pbit:
            add((m ^ pbit, -re, -im) if (m & pbelow).bit_count() & 1 else (m ^ pbit, re, im))
        if m & bit:
            if q is None:
                continue
            re, im = re * q[0] - im * q[1], re * q[1] + im * q[0]
        add((m ^ bit, -re, -im) if (m & below).bit_count() & 1 else (m ^ bit, re, im))
    return out


def _compile(w, mono):
    """The action of a sequence of generators on the basis masks of the
    Fock module with dim W = w, as (need, want, flip, smask, odd), or None
    when it kills every mask.

    The module is the exterior algebra on W = span(e_1..e_w); its masks
    have bit j - 1 for index j, as in `_mask`.  The generators act last
    first: g <= w wedges on bit g - 1 (0 if the bit is set), g <= 2w
    contracts bit g - w - 1 (0 if it is clear), each signed by the number
    of set bits below it, and 2w + 1, the odd space's anisotropic
    f_{2n-1}, multiplies by (-1)^{#U}.  Each bit's first use fixes its
    value in the input, so the image of u is nonzero exactly when
    u & need == want, and is then (-1)^(#(u & smask) + odd) times the
    mask u ^ flip: each sign counts the set bits of u ^ f under some mask
    s, where f is the part of flip made so far, and #((u ^ f) & s) has
    the parity of #(u & s) + #(f & s).  Only `_compiled` calls it.
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


def _compiled(w, words, re, im):
    """(need, want, flip, smask, re, im) for each generator sequence of
    words with numerator re + im*i that does not kill every mask
    (`_compile`), the numerator negated when odd is 1."""
    out = []
    for word, r, i in zip(words, re, im):
        walk = _compile(w, word)
        if walk is not None:
            need, want, flip, smask, odd = walk
            out.append((need, want, flip, smask, -r, -i) if odd else (need, want, flip, smask, r, i))
    return out


def _column(terms, u):
    """{mask: (re, im)}: the compiled terms applied to the basis mask u,
    summed on ints per target mask, zero sums kept: one test per term.
    The one walker of the Fock module, for `spinrep` too; on the vacuum,
    u = 0, a term hits exactly when want == 0 and lands on flip."""
    acc = {}
    for need, want, flip, smask, r, i in terms:
        if u & need == want:
            if (u & smask).bit_count() & 1:
                r, i = -r, -i
            target = u ^ flip
            prev = acc.get(target)
            acc[target] = (r, i) if prev is None else (prev[0] + r, prev[1] + i)
    return acc


def _vector_reads(w, terms, ket, low, odd):
    """{(j, k): (re, im)}: for each generator e_{j+1}, the component of
    (sum of compiled terms) * e_{j+1} * ket that reads coordinate k.

    The singleton mask {b} reads k = b + low: low = 0 in the vacuum
    module, and low = w in the dual one, where each generator acts as its
    partner does (`_certificate`).  In the vacuum module of the odd space
    the empty mask reads k = 2w, the top coordinate.  The generator that
    wedges bit b is e_{b+1+low} and the one that contracts it
    e_{b+1+w-low}; in closed form (`_compile` of one generator) they flip
    bit b of a ket mask u0, whichever of them can act, and on the odd
    space e_{2w+1} flips nothing.  A term with flip f' then lands on
    u0 ^ f ^ f', so a hit is a ket mask u0, a generator flip f and a read
    mask t with u0 ^ f ^ f' == t: t has at most one bit and f one, so
    only the ket masks within two bits of f' can hit.
    """
    empty = odd and not low
    reads = [1 << b for b in range(w)] + [0] * empty
    ket = [(u0, kr, ki) for u0, (kr, ki) in ket.items() if kr or ki]
    acc = {}
    for need, want, flip, smask, r, i in terms:
        hits = []
        for u0, kr, ki in ket:
            d = u0 ^ flip
            pc = d.bit_count()
            if pc > 2:
                continue
            v = r * kr - i * ki, r * ki + i * kr
            if pc == 0:
                hits += [(u0, t, t, v) for t in reads if (u0 ^ t) & need == want]
            elif pc == 1:
                if empty and (u0 ^ d) & need == want:
                    hits.append((u0, 0, d, v))
                if odd and u0 & need == want:
                    hits.append((u0, d, 0, v))
            else:
                lo = d & -d
                hits += [(u0, t, d ^ t, v) for t in (lo, d ^ lo) if (u0 ^ d ^ t) & need == want]
        for u0, t, f, (vr, vi) in hits:
            if f:
                j = f.bit_length() - 1 + (w - low if u0 & f else low)
                sign = (u0 & (f - 1)).bit_count() + ((u0 ^ f) & smask).bit_count()
            else:
                j, sign = 2 * w, u0.bit_count() + (u0 & smask).bit_count()
            key = j, (t.bit_length() - 1 + low if t else 2 * w)
            prev = acc.get(key, (0, 0))
            acc[key] = (prev[0] - vr, prev[1] - vi) if sign & 1 else (prev[0] + vr, prev[1] + vi)
    return acc


def _certificate(space, monos, x, re, im):
    """((nr, ni), cols) when the element x is in GPin(V), else None.

    x lists the element's (mask, re, im) terms on the monomials monos of
    an even or odd space.  For a member, x e_j beta(x) = N w_j with w_j =
    x e_j x^-1 in V, and a vector's coordinates can be read in the Fock
    module (`_compile`): its W-coordinates are the singleton-mask
    components of its image of the vacuum, its W'-coordinates the same
    components in the dual module, where each generator acts as its
    partner does, and on the odd space the top coordinate is the vacuum
    component.  The reads of every x e_j beta(x) take one pass over x's
    compiled terms per module (`_vector_reads`), each term meeting the K
    masks of beta(x)'s image of the vacuum (or of its dual), K <= 2^n.

    These candidates W_j are then certified.  With c = <0| beta(x) x |0>
    != 0 and c x e_j == W_j x for every j, exactly on every monomial
    (`_fold`, `_fold_left`), beta of each identity gives
    e_j beta(x) = beta(x) W_j / c, so beta(x) x commutes with every e_j;
    it is even, hence a scalar, namely c.  So x is invertible,
    x beta(x) = c = N, and x e_j x^-1 = W_j / c.  A member always passes
    (c = N), and anything that passes is a member.  Returns c and, for
    each j, the nonzero W_j coordinates as (k, re, im); all numerators
    are over den^2 for x's den.  The work is O(n^2 T + K T) for T terms.
    """
    dim = space.dim
    w = dim // 2
    odd = dim % 2
    partner = [0] + [g + w if g <= w else g - w if g <= 2 * w else g for g in range(1, dim + 1)]
    dual = [[partner[g] for g in m] for m in monos]
    xs = _compiled(w, monos, re, im)
    bs = _compiled(w, [m[::-1] for m in monos], re, im)
    # c: beta(x)'s terms take the mask u of x|0> to 0 exactly when u == flip
    xket = _column(xs, 0)
    nr = ni = 0
    for need, want, flip, smask, r, i in bs:
        k = xket.get(flip)
        if k is not None and flip & need == want:
            vr, vi = r * k[0] - i * k[1], r * k[1] + i * k[0]
            if (flip & smask).bit_count() & 1:
                vr, vi = -vr, -vi
            nr, ni = nr + vr, ni + vi
    if not (nr or ni):
        return None
    reads = _vector_reads(w, xs, _column(bs, 0), 0, odd)
    reads.update(_vector_reads(w, _compiled(w, dual, re, im),
                               _column(_compiled(w, [m[::-1] for m in dual], re, im), 0), w, odd))
    cols = [[] for _ in range(dim)]
    for (j, k), (r, s) in reads.items():
        if r or s:
            cols[j].append((k, r, s))
    # every e_k x, once: a member's W is invertible, so each k is used
    left = [_fold_left(space, k, x) for k in range(1, dim + 1)]
    for j, col in enumerate(cols):
        # c x e_j - W_j x, summed per monomial
        acc = {}
        for m, r, s in _fold(space, x, (j + 1,)):
            vr, vi = nr * r - ni * s, nr * s + ni * r
            prev = acc.get(m)
            acc[m] = (vr, vi) if prev is None else (prev[0] + vr, prev[1] + vi)
        for k, wr, wi in col:
            for m, r, s in left[k]:
                vr, vi = wr * r - wi * s, wr * s + wi * r
                prev = acc.get(m)
                acc[m] = (-vr, -vi) if prev is None else (prev[0] - vr, prev[1] - vi)
        if any(map(any, acc.values())):
            return None
    return (nr, ni), cols


def _merge(terms):
    """(mask, re, im) terms with equal masks summed and zero sums dropped."""
    acc = {}
    for m, re, im in terms:
        prev = acc.get(m)
        acc[m] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    return [(m, re, im) for m, (re, im) in acc.items() if re or im]


def _product(space, left, right):
    """The unmerged terms of (sum of left) * (sum of right).

    left lists (mask, re, im) terms; right lists (monomial, re, im) terms,
    the monomial any increasing sequence of generator indices.  Each right
    term folds its generators into the scaled left terms (`_fold`).
    """
    return chain.from_iterable(
        _fold(space, [(m, r1 * r2 - i1 * i2, r1 * i2 + i1 * r2) for m, r1, i1 in left], mono)
        for mono, r2, i2 in right)


def _beta_terms(space, monos, re, im):
    """The unmerged terms of beta of the element with numerators re + im*i
    on the monomials monos: each monomial folded out in reverse order."""
    return chain.from_iterable(_fold(space, [(0, r, i)], reversed(m))
                               for m, r, i in zip(monos, re, im))


def _from_numerators(space, terms, den):
    """The element sum of (mask, re, im) terms over den, undoing the line
    rescaling; each distinct mask becomes a monomial tuple once."""
    terms, scale = _merge(terms), space.scale
    if scale != 1:
        terms = [(m, re * f, im * f) for m, re, im in terms for f in (scale ** m.bit_count(),)]
    masks, re, im = zip(*terms) if terms else ((), (), ())
    return CliffordElement._raw(space, dict(zip(map(_mono, masks), _over(den, re, im))))


class CliffordElement:
    """An element of C(V): a finite sum of basis monomials with Q(i) coefficients."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms):
        self.space = space
        clean = {}
        for mono, c in terms.items():
            cc = c if isinstance(c, GaussRat) else GaussRat(c)
            if not cc:
                continue
            mono = tuple(mono)
            if any(type(j) is not int or not 1 <= j <= space.dim for j in mono):
                raise ValueError(f"monomial {mono} out of range")
            if any(mono[k] >= mono[k + 1] for k in range(len(mono) - 1)):
                raise ValueError(f"monomial {mono} not strictly increasing")
            clean[mono] = cc
        self.terms = clean

    @classmethod
    def _raw(cls, space, terms):
        """An element from kernel output: nonzero GaussRat coefficients on valid monomials."""
        self = object.__new__(cls)
        self.space, self.terms = space, terms
        return self

    @classmethod
    def scalar(cls, space, c):
        return cls(space, {(): c})

    @classmethod
    def one(cls, space):
        return cls.scalar(space, GaussRat(1))

    @classmethod
    def generator(cls, space, j):
        space._check_index(j)
        return cls(space, {(j,): GaussRat(1)})

    @classmethod
    def vector(cls, space, coords):
        coords = list(coords)
        if len(coords) != space.dim:
            raise ValueError("coordinate length mismatch")
        return cls(space, {(j + 1,): c for j, c in enumerate(coords)})

    @classmethod
    def monomial(cls, space, indices, c=1):
        return cls(space, {tuple(indices): c})

    def _require_same_space(self, other):
        if self.space != other.space:
            raise ValueError("elements live in different quadratic spaces")

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), GaussRat(0))

    def is_zero(self):
        return not self.terms

    def as_vector(self):
        """Coordinates if the element is a pure vector, else None."""
        if not all(len(m) == 1 for m in self.terms):
            return None
        coords = [GaussRat(0)] * self.space.dim
        for (j,), c in self.terms.items():
            coords[j - 1] = c
        return coords

    def parity(self):
        """0 for even, 1 for odd; raises on mixed terms.  Zero counts as even."""
        ps = {len(m) % 2 for m in self.terms}
        if len(ps) > 1:
            raise ValueError("element is not homogeneous")
        return ps.pop() if ps else 0

    def is_homogeneous(self):
        return len({len(m) % 2 for m in self.terms}) <= 1

    def __add__(self, other):
        if isinstance(other, CliffordElement):
            self._require_same_space(other)
            terms = dict(self.terms)
            for m, c in other.terms.items():
                terms[m] = terms.get(m, GaussRat(0)) + c
            return CliffordElement(self.space, terms)
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return self + CliffordElement.scalar(self.space, o)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CliffordElement):
            return self + (-other)
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CliffordElement(self.space, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            self._require_same_space(other)
            da, ar, ai = _term_numerators(self)
            db, br, bi = _term_numerators(other)
            left = [(_mask(m), r, i) for m, r, i in zip(self.terms, ar, ai)]
            return _from_numerators(self.space,
                                    _product(self.space, left, zip(other.terms, br, bi)),
                                    da * db)
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return CliffordElement._raw(self.space,
                                    {m: c * o for m, c in self.terms.items()} if o else {})

    def __rmul__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return self * o

    def __truediv__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return self * (GaussRat(1) / o)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = CliffordElement.one(self.space)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, CliffordElement):
            return self.space == other.space and self.terms == other.terms
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return self == CliffordElement.scalar(self.space, o)

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __repr__(self):
        letter = self.space.basis_letter()
        return " + ".join(f"({c})" + "".join(f"*{letter}{j}" for j in m)
                          for m, c in self._sorted_terms()) or "0"

    def to_json(self):
        terms = [{"indices": list(m), "coeff": str(c)} for m, c in self._sorted_terms()]
        return {"space": self.space.to_json(), "terms": terms}

    @classmethod
    def from_json(cls, data):
        space = QuadSpace.from_json(data["space"])
        terms = {tuple(t["indices"]): GaussRat.parse(t["coeff"]) for t in data["terms"]}
        return cls(space, terms)


def beta(x):
    """The involution that fixes V pointwise and reverses products.

    beta(e_{s_1}...e_{s_r}) = e_{s_r}...e_{s_1}, renormalized through the
    Clifford relations.  (The familiar sign (-1)^(r(r-1)/2) applies only to
    monomials of pairwise-orthogonal generators; basis monomials here may
    contain hyperbolic partners, so the reversed product is folded out in
    full.)
    """
    den, re, im = _term_numerators(x)
    return _from_numerators(x.space, _beta_terms(x.space, x.terms, re, im), den)


class GPinElement:
    """An element of GPin(V): homogeneous, invertible, with x V x^{-1} = V.

    Membership is verified eagerly at construction: the element must be
    homogeneous, x*beta(x) must be a nonzero scalar (the spinor norm), and
    conjugation must send every basis vector back into V.  The check runs
    on Gaussian-integer numerators in O(n^2 T + K T) for T terms and
    the K <= 2^n masks of beta(x)'s image of the vacuum (`_certificate`):
    it reads the candidate images W_j = x e_j beta(x) and
    c = <0| beta(x) x |0> in the Fock module and certifies
    c x e_j == W_j x on every monomial, which makes x beta(x) = c the
    norm and W_j / c the columns of pr_circ.  On a line, N = x * x and
    pr_circ = [1].  Only when the certificate fails is x*beta(x) formed,
    once, to name the failure: not scalar, zero, or (a nonzero scalar)
    conjugation leaving V.  Only the norm and the image coordinates
    become `GaussRat` values.  An
    element holds what that check verified: `elt`, `space`, `parity`,
    `_norm` (the spinor norm, read by `spinor_norm()`) and `_pr_circ` (the
    matrix of v -> x v x^{-1}, read by `pr_circ()`), plus `_spin`, the full
    spin matrix once spinrep has computed it (None before), so it lives as
    long as the element does; the half-spin matrices are its diagonal
    blocks.

    The group is closed under products, inverses, powers and theta, so
    those operations derive the data of their result from verified
    operands (`_composed`) instead of checking membership again: a product
    or power composes the Clifford element, the parity, the norm and
    pr_circ (a `Mat` product), while `inverse()` and `theta` move pr_circ's
    entries by index maps.  Every pr_circ carries its nonzero pattern (the
    check's image positions, or the pattern of the operands'), so none of
    these operations tests an entry it does not touch for zero.  The
    inverse element beta(x)/N is computed only by `inverse()`.
    """

    __slots__ = ("elt", "space", "parity", "_norm", "_pr_circ", "_spin")

    def __init__(self, elt):
        if not isinstance(elt, CliffordElement):
            raise TypeError("GPinElement wraps a CliffordElement")
        if elt.is_zero():
            raise ValueError("zero is not in GPin")
        if not elt.is_homogeneous():
            raise ValueError("GPin elements must be homogeneous in the grading")
        space = elt.space
        self.elt, self.space, self.parity = elt, space, elt.parity()
        # numerators over den (x) and den^2 (N and the images W_j)
        den, re, im = _term_numerators(elt)
        x = [(_mask(m), r, i) for m, r, i in zip(elt.terms, re, im)]
        if space.kind == "line":
            # one term: N = x * x = x beta(x), and conjugation fixes the line
            nrm = _merge(_product(space, x, zip(elt.terms, re, im)))
            if not nrm:
                raise ValueError("spinor norm is zero: element is not invertible")
            cert = (nrm[0][1], nrm[0][2]), [[(0, nrm[0][1], nrm[0][2])]]
        else:
            cert = _certificate(space, list(elt.terms), x, re, im)
        if cert is None:
            # not a member: x beta(x), once, picks the message
            b = [(_mono(m), r, i) for m, r, i in _merge(_beta_terms(space, elt.terms, re, im))]
            nrm = _merge(_product(space, x, b))
            if any(m for m, _, _ in nrm):
                raise ValueError("x*beta(x) is not scalar: element is not in GPin")
            if not nrm:
                raise ValueError("spinor norm is zero: element is not invertible")
            raise ValueError("conjugation does not stabilize V: element is not in GPin")
        (nr, ni), cols = cert
        self._norm = _over(den * den, [nr], [ni])[0]
        # pr_circ's column j is W_j / N, with coordinates (r + s i) / (nr + ni i):
        # the den^2 cancels.  Zero coordinates are left out and j grows
        # along `at`, so the positions are the matrix's nonzero pattern
        nn, d = nr * nr + ni * ni, space.dim
        at, cr, ci = [], [], []
        for j, col in enumerate(cols):
            for i, r, s in col:
                at.append((i, j))
                cr.append(r * nr + s * ni)
                ci.append(s * nr - r * ni)
        nz = [[] for _ in range(d)]
        for (i, j), c in zip(at, _over(nn, cr, ci)):
            nz[i].append((j, c))
        self._pr_circ = Mat._sparse(d, nz)
        self._spin = None

    @classmethod
    def _composed(cls, elt, parity, norm, pr_circ):
        """An element whose data follow from verified operands; nothing is checked."""
        self = object.__new__(cls)
        self.elt, self.space, self.parity, self._norm = elt, elt.space, parity, norm
        self._pr_circ, self._spin = pr_circ, None
        return self

    def pr_circ(self):
        """Matrix of v -> x v x^{-1} on the basis of V."""
        return self._pr_circ

    def spinor_norm(self):
        """The scalar x * beta(x)."""
        return self._norm

    def inverse(self):
        """x^{-1} = beta(x)/N, built from beta(x)'s numerators (`_beta_terms`)
        times 1/N in one pass.  pr_circ preserves the pairing (M^T G M = G for
        M = pr_circ(x) and the Gram matrix G), so pr_circ(x^{-1}) = G^{-1} M^T G.
        G pairs basis vector i with one partner p(i) (itself on a line and
        on the odd space's last vector, where <f, f> = 2), so that product
        is M^T with both indices relabelled by p (`Mat._relabel`), conjugated
        by diag(1, ..., 1, 2) on the odd space."""
        space = self.space
        d, h = space.dim, space.dim // 2
        p = [i + h if i < h else i - h if i < 2 * h else i for i in range(d)]
        circ = self._pr_circ.transpose()._relabel(p)
        if space.kind == "odd":
            ones = [1] * (d - 1)
            circ = Mat.diag(ones + [GaussRat(1) / 2]) * circ * Mat.diag(ones + [2])
        # beta(x)/N in one pass: with N = (a + b i)/dN, 1/N = dN (a - b i)/(a^2 + b^2)
        den, re, im = _term_numerators(self.elt)
        dn, (a,), (b,) = _numerators([self._norm])
        inv = _from_numerators(space, ((m, (r * a + s * b) * dn, (s * a - r * b) * dn)
                                       for m, r, s in _beta_terms(space, self.elt.terms, re, im)),
                               den * (a * a + b * b))
        return GPinElement._composed(inv, self.parity, 1 / self._norm, circ)

    def __mul__(self, other):
        if not isinstance(other, GPinElement):
            return NotImplemented
        return GPinElement._composed(self.elt * other.elt, (self.parity + other.parity) % 2,
                                     self._norm * other._norm, self._pr_circ * other._pr_circ)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** -k
        return GPinElement._composed(self.elt ** k, self.parity * k % 2, self._norm ** k,
                                     self._pr_circ ** k)

    def __eq__(self, other):
        if not isinstance(other, GPinElement):
            return NotImplemented
        return self.elt == other.elt

    def __hash__(self):
        return hash(self.elt)

    def __repr__(self):
        return f"GPin<{self.elt!r}>"


def theta_element(space):
    """theta_elt = sqrt(-1)*(e_n - e_{2n}) in C(V_2n); squares to 1."""
    if space.kind != "even":
        raise ValueError("theta element lives in the even Clifford algebra")
    n = space.n
    return CliffordElement(space, {(n,): SQRT_M1, (2 * n,): -SQRT_M1})


def theta_circ_matrix(n):
    """The vector-side involution: fixes the line through e_n - e_{2n}, negates
    its orthogonal complement.  On the basis: e_n -> -e_{2n}, e_{2n} -> -e_n,
    e_j -> -e_j otherwise.

    This is pr_circ of the theta element: conjugation by a vector w acts on
    V as v -> (<v,w>/Q(w)) w - v, the negated reflection in w.
    """
    swap = {n - 1: 2 * n - 1, 2 * n - 1: n - 1}
    return Mat._sparse(2 * n, [((swap.get(i, i), GaussRat(-1)),) for i in range(2 * n)])


def theta(g):
    """The outer automorphism: conjugation by the theta element."""
    if g.space.kind != "even":
        raise ValueError("theta is defined on the even-space group")
    th = theta_element(g.space)
    # T M T for T = theta_circ_matrix(n): the signs cancel, leaving the swap
    # of the indices n and 2n on rows and columns
    n = g.space.n
    p = list(range(2 * n))
    p[n - 1], p[2 * n - 1] = 2 * n - 1, n - 1
    return GPinElement._composed(th * g.elt * th, g.parity, g._norm, g._pr_circ._relabel(p))


class OrthogonalSplit:
    """An orthogonal decomposition V = W_1 perp W_2 given by generator images.

    images1[j-1] (resp. images2) is the image in C(V) of the j-th basis
    vector of source1 (resp. source2).  Construction checks that the
    images are vectors, that each factor map is an isometry, that the two
    factors are orthogonal, and that together they span V.
    """

    __slots__ = ("target", "source1", "source2", "images1", "images2")

    def __init__(self, target, source1, images1, source2, images2):
        if source1.dim + source2.dim != target.dim:
            raise ValueError("decomposition dimensions do not add up")
        coords1 = _vector_coords(target, images1, source1)
        coords2 = _vector_coords(target, images2, source2)
        for src, coords in ((source1, coords1), (source2, coords2)):
            for j in range(src.dim):
                for k in range(j, src.dim):
                    want = src.pair(j + 1, k + 1)
                    got = target.bilinear(coords[j], coords[k])
                    if got != want:
                        raise ValueError("factor map is not an isometry")
        for cj in coords1:
            for ck in coords2:
                if target.bilinear(cj, ck):
                    raise ValueError("factors are not orthogonal")
        if rank(Mat.from_cols(coords1 + coords2)) != target.dim:
            raise ValueError("images do not span the target space")
        self.target = target
        self.source1, self.images1 = source1, list(images1)
        self.source2, self.images2 = source2, list(images2)

    def embed1(self, x):
        return _embed(x, self.source1, self.target, self.images1)

    def embed2(self, y):
        return _embed(y, self.source2, self.target, self.images2)

    def change_of_basis(self):
        """Columns = image coordinates of all source basis vectors, factor 1 then 2."""
        cols = [img.as_vector() for img in self.images1 + self.images2]
        return Mat.from_cols(cols)


def _vector_coords(target, images, source):
    if len(images) != source.dim:
        raise ValueError("one image per source basis vector required")
    out = []
    for img in images:
        if img.space != target:
            raise ValueError("images must live in the target space")
        coords = img.as_vector()
        if coords is None:
            raise ValueError("images must be vectors")
        out.append(coords)
    return out


def _embed(x, source, target, images):
    if x.space != source:
        raise ValueError("element does not live in the declared source space")
    acc = {}
    for mono, c in x.terms.items():
        prod = CliffordElement.scalar(target, c)
        for j in mono:
            prod = prod * images[j - 1]
        for m, d in prod.terms.items():
            acc[m] = acc[m] + d if m in acc else d
    return CliffordElement(target, acc)


def c_phi(x, y, split):
    """The graded-product map on an orthogonal decomposition: x (x) y -> x*y.

    Both arguments are mapped into C(target) along the split and then
    multiplied there; Clifford anticommutation supplies the graded signs.
    """
    return split.embed1(x) * split.embed2(y)


@lru_cache(maxsize=None)
def std_split(n):
    """V_2n = phi(V_{2n-1}) perp U with phi, phi' as fixed index maps.

    phi: f_i -> e_i (i <= n-1), f_{n-1+j} -> e_{n+j} (j <= n-1),
    f_{2n-1} -> e_n + e_{2n}; phi': u -> e_n - e_{2n} with Q(u) = -1.
    """
    target = even_space(n)
    source1 = odd_space(n)
    images1 = []
    for i in range(1, n):
        images1.append(CliffordElement.generator(target, i))
    for j in range(1, n):
        images1.append(CliffordElement.generator(target, n + j))
    images1.append(CliffordElement(target, {(n,): GaussRat(1), (2 * n,): GaussRat(1)}))
    source2 = line_space(GaussRat(-1))
    images2 = [CliffordElement(target, {(n,): GaussRat(1), (2 * n,): GaussRat(-1)})]
    return OrthogonalSplit(target, source1, images1, source2, images2)


def i_std(g):
    """Embed the odd-space group into the even one.

    The algebra map underneath is ``std_split(n).embed1``.
    """
    if not isinstance(g, GPinElement):
        raise TypeError("i_std expects a GPinElement")
    if g.space.kind != "odd":
        raise ValueError("i_std embeds the odd-space group")
    return GPinElement(std_split(g.space.n).embed1(g.elt))


# ------------------------------------------------------------- randomness

def random_vector(space, rng, anisotropic=True, span=9, nnz=None):
    """A random vector with nonzero coordinates in [-span, span] \\ {0}.

    At most ``nnz`` coordinates are nonzero (default 3; pass ``space.dim``
    for dense vectors); Q != 0 is enforced when ``anisotropic``.  Sparse
    support keeps products of many vectors from blowing up in term count.
    """
    if nnz is None:
        nnz = min(3, space.dim)
    while True:
        support = rng.sample(range(space.dim), rng.randint(1, nnz))
        coords = [GaussRat(0)] * space.dim
        for j in support:
            c = 0
            while c == 0:
                c = rng.randint(-span, span)
            coords[j] = GaussRat(c)
        if anisotropic and not space.quad(coords):
            continue
        return CliffordElement.vector(space, coords)


def random_gpin(space, rng, factors=None, span=9):
    """A random GPin element: a product of `factors` anisotropic vectors."""
    if factors is None:
        factors = rng.choice((2, 3))
    acc = CliffordElement.one(space)
    for _ in range(factors):
        acc = acc * random_vector(space, rng, anisotropic=True, span=span)
    return GPinElement(acc)


def random_gspin(space, rng, span=9):
    """A random GSpin element: a product of an even number of vectors."""
    return random_gpin(space, rng, factors=rng.choice((2, 4)), span=span)
