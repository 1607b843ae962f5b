"""Exact scalar and matrix algebra over the Gaussian rationals.

Scalars are ``GaussRat`` values: pairs of ``fractions.Fraction`` real and
imaginary parts, so every number of the form a/b + (c/d)*i is represented
exactly.  Matrices (`Mat`) are immutable and store only their nonzero
pattern; dense rows are built on demand.  All algorithms here
(characteristic polynomial, rank, inversion, Jordan partitions, nilpotent
exponentials) are pivot-exact.  Nothing in this module touches floating
point.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, gcd, lcm


def _as_gauss(x):
    if isinstance(x, GaussRat):
        return x
    if type(x) in (int, Fraction):
        return GaussRat(x)
    return None


def _numerators(values):
    """(den, re, im): a collection of GaussRat values as Gaussian-integer
    numerators re[k] + im[k]*i over their least common denominator den > 0."""
    den = lcm(*[d for c in values for d in (c.re.denominator, c.im.denominator)])
    if den == 1:
        return 1, [c.re.numerator for c in values], [c.im.numerator for c in values]
    return (den, [c.re.numerator * (den // c.re.denominator) for c in values],
            [c.im.numerator * (den // c.im.denominator) for c in values])


def _over(den, re, im):
    """The GaussRat values (re[k] + im[k]*i) / den for Gaussian-integer
    numerators over a positive denominator den: the inverse of `_numerators`."""
    if den == 1:
        # Fraction(int) skips the gcd that Fraction(int, 1) takes
        return list(map(GaussRat._fast, map(Fraction, re), map(Fraction, im)))
    return [GaussRat._fast(Fraction(a, den), Fraction(b, den)) for a, b in zip(re, im)]


def _convolve(ar, ai, br, bi):
    """(re, im): the Gaussian-integer coefficients of the product of the
    polynomials with coefficients ar + ai*i and br + bi*i, lowest degree
    first."""
    if len(ar) > len(br):
        # the loop runs over the shorter factor
        ar, ai, br, bi = br, bi, ar, ai
    re = [0] * (len(ar) + len(br) - 1)
    im = list(re)
    if not any(ai) and not any(bi):
        # real coefficients: the imaginary parts stay zero
        for j, x in enumerate(ar):
            if x:
                top = j + len(br)
                re[j:top] = [r + x * u for r, u in zip(re[j:top], br)]
        return re, im
    for j, (x, y) in enumerate(zip(ar, ai)):
        if x or y:
            top = j + len(br)
            re[j:top] = [r + x * u - y * v for r, u, v in zip(re[j:top], br, bi)]
            im[j:top] = [s + x * v + y * u for s, u, v in zip(im[j:top], br, bi)]
    return re, im


class _Value:
    """Base of the package's immutable value types.

    Subclasses declare their fields in ``__slots__`` and set them once in
    ``__init__`` through ``object.__setattr__``; instances compare and
    hash by those field values, and only against the same type.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


class GaussRat:
    """A Gaussian rational ``re + im*i`` with exact ``Fraction`` parts.

    Each part must be of type ``int`` or ``Fraction`` (so not ``bool``);
    anything else, floats and strings included, raises TypeError (text
    goes through :meth:`parse`).  Mixed arithmetic with ``int`` and
    ``Fraction`` is supported.  The canonical text form always shows both
    parts ("3/2-5/4*i", "1+0*i"); :meth:`parse` additionally accepts plain
    rationals ("7", "-2/3") and bare imaginary parts ("i", "-i", "2*i").
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if type(re) not in (int, Fraction) or type(im) not in (int, Fraction):
            raise TypeError(f"GaussRat parts must be int or Fraction, not "
                            f"{type(re).__name__} and {type(im).__name__}")
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _fast(cls, re, im):
        # internal: both arguments must already be Fractions
        self = object.__new__(cls)
        self.re = re
        self.im = im
        return self

    @classmethod
    def parse(cls, text):
        """Parse a Gaussian rational from its text form."""
        if not isinstance(text, str):
            raise TypeError(f"Gaussian rational literal must be a str, not {type(text).__name__}")
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty Gaussian rational literal")
        if "e" in s or "E" in s:
            raise ValueError(f"exponent literals are not accepted: {text!r}")
        if not s.endswith("i"):
            return cls(Fraction(s))
        body = s[:-1]
        cut = 0
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-*/":
                cut = k
                break
        re_text, im_text = body[:cut], body[cut:]
        if im_text.endswith("*"):
            im_text = im_text[:-1]
        if im_text in ("", "+"):
            im_text = "1"
        elif im_text == "-":
            im_text = "-1"
        re_part = Fraction(re_text) if re_text else Fraction(0)
        return cls(re_part, Fraction(im_text))

    def norm(self):
        """The field norm re^2 + im^2, a non-negative Fraction."""
        return self.re * self.re + self.im * self.im

    def is_rational(self):
        return self.im == 0

    def __add__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return GaussRat._fast(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return GaussRat._fast(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return GaussRat._fast(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        a, b = self.re, self.im
        c, d = o.re, o.im
        if not b and not d:
            return GaussRat._fast(a * c, b)
        return GaussRat._fast(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRat._fast((self.re * o.re + self.im * o.im) / n,
                              (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GaussRat._fast(-self.re, -self.im)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base = GaussRat(1) / self
            k = -k
        out = GaussRat(1)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __str__(self):
        sign = "-" if self.im < 0 else "+"
        return f"{self.re}{sign}{abs(self.im)}*i"

    __repr__ = __str__


#: the chosen square root of -1 in Q(i)
SQRT_M1 = GaussRat(0, 1)


class Poly:
    """Polynomial over Q(i); coefficients stored lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, GaussRat) else GaussRat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly(())
        # convolve the Gaussian-integer numerators over the product of the
        # two denominators
        da, ar, ai = _numerators(self.coeffs)
        db, br, bi = _numerators(other.coeffs)
        return Poly(_over(da * db, *_convolve(ar, ai, br, bi)))

    def __call__(self, x):
        """Evaluate by Horner's rule; x may be a GaussRat-like scalar or a square Mat."""
        if isinstance(x, Mat):
            acc = Mat.zeros(x.nrows, x.ncols)
            one = Mat.identity(x.nrows)
            for c in reversed(self.coeffs):
                acc = acc * x + one * c
            return acc
        acc = GaussRat(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def pretty(self, var="x"):
        """Human-readable form, highest degree first."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                mono = ""
            elif k == 1:
                mono = var
            else:
                mono = f"{var}^{k}"
            if c.is_rational():
                lead = str(c.re)
                if mono and lead == "1":
                    lead = ""
                elif mono and lead == "-1":
                    lead = "-"
            else:
                lead = f"({c})"
            if mono and lead and not lead.endswith("-"):
                text = f"{lead}*{mono}" if lead not in ("", "-") else f"{lead}{mono}"
            else:
                text = f"{lead}{mono}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    __repr__ = pretty

    def to_json(self):
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data):
        return cls([GaussRat.parse(s) for s in data])


class Mat:
    """Immutable matrix over Q(i), stored as its nonzero pattern.

    The private ``_nz`` is the only stored form: for each row, the
    ``(column, entry)`` pairs of its nonzero entries in increasing column
    order.  Every pattern lists exactly the nonzero entries, so ``==`` and
    ``hash`` read the shape and the pattern.  A kernel that knows the
    pattern of its output passes it in (`_sparse`); dense input goes
    through the constructor, which checks it.  Arithmetic walks patterns
    only, so a zero entry is never multiplied and an entry that is a
    single product of nonzero entries is never tested for zero.  The dense
    ``rows`` are built on demand.
    """

    __slots__ = ("nrows", "ncols", "_nz")

    def __init__(self, rows):
        body = tuple(tuple(c if isinstance(c, GaussRat) else GaussRat(c) for c in r)
                     for r in rows)
        if not body or not body[0]:
            raise ValueError("matrix needs at least one row and one column")
        if len({len(r) for r in body}) != 1:
            raise ValueError("ragged rows")
        self.nrows = len(body)
        self.ncols = len(body[0])
        # c.re or c.im: the zero test of GaussRat.__bool__, one call shorter
        self._nz = tuple(tuple((j, c) for j, c in enumerate(r) if c.re or c.im) for r in body)

    @classmethod
    def _sparse(cls, ncols, nz):
        """A matrix from its nonzero pattern: nz[i] lists the (column, entry)
        pairs of row i's nonzero GaussRat entries in increasing column order,
        taken unchecked and kept as tuples; every other entry is zero."""
        if not nz or ncols < 1:
            raise ValueError("matrix needs at least one row and one column")
        self = object.__new__(cls)
        self.nrows, self.ncols, self._nz = len(nz), ncols, tuple(map(tuple, nz))
        return self

    def _dense(self):
        """The entries as a fresh list of row lists, zeros filled in."""
        zero = GaussRat(0)
        out = [[zero] * self.ncols for _ in range(self.nrows)]
        for row, pairs in zip(out, self._nz):
            for j, c in pairs:
                row[j] = c
        return out

    @property
    def rows(self):
        """The entries as a tuple of row tuples, built on each read."""
        return tuple(map(tuple, self._dense()))

    @classmethod
    def identity(cls, n):
        return cls.diag([1] * n)

    @classmethod
    def zeros(cls, nrows, ncols=None):
        return cls._sparse(nrows if ncols is None else ncols, [()] * nrows)

    @classmethod
    def diag(cls, values):
        vals = [v if isinstance(v, GaussRat) else GaussRat(v) for v in values]
        return cls._sparse(len(vals), [((i, v),) if v else () for i, v in enumerate(vals)])

    @classmethod
    def from_cols(cls, cols):
        return cls(tuple(zip(*cols)))

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def __getitem__(self, ij):
        i, j = ij
        # range(...)[j]: Python's index rules, negative indices included
        return dict(self._nz[i]).get(range(self.ncols)[j], GaussRat(0))

    def transpose(self):
        cols = [[] for _ in range(self.ncols)]
        for i, pairs in enumerate(self._nz):
            for j, c in pairs:
                cols[j].append((i, c))
        return Mat._sparse(self.nrows, cols)

    def block(self, rows, cols):
        """The submatrix on the given rows and columns, each an increasing
        sequence of indices."""
        at = {j: k for k, j in enumerate(cols)}
        return Mat._sparse(len(at), [tuple((at[j], c) for j, c in self._nz[i] if j in at)
                                     for i in rows])

    def _relabel(self, p):
        """The square matrix whose entry (p[i], p[j]) is entry (i, j) of this
        one, for a permutation p of its indices: P M P^{-1} for the
        permutation matrix P of p."""
        nz = [()] * self.nrows
        for i, pairs in enumerate(self._nz):
            nz[p[i]] = tuple(sorted((p[j], c) for j, c in pairs))
        return Mat._sparse(self.ncols, nz)

    def is_zero(self):
        return not any(self._nz)

    def is_diagonal(self):
        return all(j == i for i, r in enumerate(self._nz) for j, _ in r)

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in addition")
        out = []
        for left, right in zip(self._nz, other._nz):
            if not left or not right:
                out.append(left or right)
                continue
            acc = dict(left)
            for j, b in right:
                a = acc.get(j)
                acc[j] = b if a is None else a + b
            # a summed entry may cancel to zero
            out.append(tuple((j, c) for j, c in sorted(acc.items()) if c.re or c.im))
        return Mat._sparse(self.ncols, out)

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Mat._sparse(self.ncols, [tuple((j, -c) for j, c in r) for r in self._nz])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in multiplication")
            right, ncols = other._nz, other.ncols
            out = []
            for left in self._nz:
                if len(left) == 1:
                    # one product per entry: nonzero, since Q(i) is a field
                    (k, a), = left
                    out.append(tuple((j, a * b) for j, b in right[k]))
                    continue
                acc, summed = [None] * ncols, set()
                for k, a in left:
                    for j, b in right[k]:
                        c = acc[j]
                        if c is None:
                            acc[j] = a * b
                        else:
                            acc[j] = c + a * b
                            summed.add(j)
                # only a summed entry can cancel to zero
                out.append(tuple((j, c) for j, c in enumerate(acc)
                                 if c is not None and (j not in summed or c.re or c.im)))
            return Mat._sparse(ncols, out)
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        if not o:
            return Mat.zeros(self.nrows, self.ncols)
        return Mat._sparse(self.ncols, [tuple((j, c * o) for j, c in r) for r in self._nz])

    def __rmul__(self, other):
        o = _as_gauss(other)
        if o is None:
            return NotImplemented
        return self * o

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        out = Mat.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def _key(self):
        return self.nrows, self.ncols, self._nz

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = "; ".join(", ".join(str(c) for c in r) for r in self._dense())
        return f"Mat[{body}]"

    def to_json(self):
        return [[str(c) for c in r] for r in self._dense()]

    @classmethod
    def from_json(cls, data):
        return cls([[GaussRat.parse(s) for s in r] for r in data])


def _components(succ):
    """The strongly connected components of the graph with an edge i -> j
    for each j in succ[i], by Tarjan's depth-first search, run with an
    explicit stack of (node, iterator over its successors)."""
    index, low = [None] * len(succ), [0] * len(succ)
    stack, on_stack, comps, count = [], set(), [], 0
    for root in range(len(succ)):
        if index[root] is not None:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] is None:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    on_stack.difference_update(comp)
                    comps.append(comp)
    return comps


def charpoly(m):
    """Characteristic polynomial det(x*I - m), monic, computed exactly.

    Relabelling the rows and columns by the strongly connected components
    of the nonzero pattern (an edge i -> j for each nonzero off-diagonal
    entry (i, j)) makes the matrix block upper triangular, so the
    polynomial is the product of the polynomials of its diagonal blocks.
    A block of one row is x - a; a block of two rows [[a, b], [c, d]] is
    x^2 - (a + d) x + (ad - bc), both on the Gaussian-integer numerators
    of one `_numerators` call.  A larger block goes through
    `_hessenberg_charpoly` on its dense entries alone.  Equal factors are
    counted once and raised to their multiplicity by squaring; the factors
    are multiplied on integers over the product of their denominators,
    which one gcd reduces at the end.
    """
    if not m.is_square:
        raise ValueError("charpoly of a non-square matrix")
    nz = m._nz
    small, big = [], []
    for comp in _components([[j for j, _ in row if j != i] for i, row in enumerate(nz)]):
        (small if len(comp) <= 2 else big).append(comp)
    # the entries of the small blocks, zeros included: a for a block (i,),
    # then a, b, c, d for a block (i, j) with a = m[i, i] and b = m[i, j]
    zero = GaussRat(0)
    values = []
    for comp in small:
        for i in comp:
            row = dict(nz[i])
            values += [row.get(j, zero) for j in comp]
    den, re, im = _numerators(values) if values else (1, [], [])
    # each factor as (den, re, im) numerators, counted with its multiplicity
    factors = Counter()
    k = 0
    for comp in small:
        if len(comp) == 1:
            a, b = re[k], im[k]
            factors[den, (-a, den), (-b, 0)] += 1
            k += 1
        else:
            ar, br, cr, dr = re[k:k + 4]
            ai, bi, ci, di = im[k:k + 4]
            factors[den * den, (ar * dr - ai * di - br * cr + bi * ci, -(ar + dr) * den, den * den),
                    (ar * di + ai * dr - bi * cr - br * ci, -(ai + di) * den, 0)] += 1
            k += 4
    for comp in big:
        comp.sort()
        at = {v: k for k, v in enumerate(comp)}
        block = [[zero] * len(comp) for _ in comp]
        for v, row in zip(comp, block):
            for j, c in nz[v]:
                # an entry outside the block lies in an off-diagonal block
                k = at.get(j)
                if k is not None:
                    row[k] = c
        fden, fre, fim = _hessenberg_charpoly(block)
        factors[fden, tuple(fre), tuple(fim)] += 1
    pden, pre, pim = 1, [1], [0]
    for (fden, fre, fim), mult in factors.items():
        while True:
            if mult & 1:
                pre, pim = _convolve(fre, fim, pre, pim)
                pden *= fden
            mult >>= 1
            if not mult:
                break
            fre, fim = _convolve(fre, fim, fre, fim)
            fden *= fden
    if pden != 1:
        g = gcd(pden, *pre, *pim)
        if g != 1:
            pden = pden // g
            pre = [c // g for c in pre]
            pim = [c // g for c in pim]
    return Poly(_over(pden, pre, pim))


def _hessenberg_charpoly(H):
    """(den, re, im): the characteristic polynomial of the dense square
    matrix H (a list of GaussRat row lists, changed in place) as
    Gaussian-integer numerators over a positive denominator.

    H is first brought to Hessenberg form by an exact similarity over Q(i)
    (so the result is unchanged), then the polynomial is built by the
    leading-principal-minor recurrence for Hessenberg matrices,

        p_k = (x - H[k-1][k-1]) p_{k-1}
              - sum_j H[j-1][k-1] H[j][j-1] ... H[k-1][k-2] p_{j-1},

    on integers: each p_k is a pair of Gaussian-integer numerator lists
    (real and imaginary parts) over one positive denominator.  The scalars
    of step k share their least common denominator e, so p_k is written
    over e times the lcm of the denominators of the p_j it uses, then
    divided by the gcd of that denominator and all its numerators.
    """
    n = len(H)
    for k in range(n - 2):
        piv = None
        for r in range(k + 1, n):
            if H[r][k]:
                piv = r
                break
        if piv is None:
            continue
        if piv != k + 1:
            H[k + 1], H[piv] = H[piv], H[k + 1]
            for row in H:
                row[k + 1], row[piv] = row[piv], row[k + 1]
        p = H[k + 1][k]
        for r in range(k + 2, n):
            if not H[r][k]:
                continue
            f = H[r][k] / p
            hr, hk = H[r], H[k + 1]
            for j in range(k, n):
                hr[j] = hr[j] - f * hk[j]
            for row in H:
                row[k + 1] = row[k + 1] + f * row[r]
    polys = [(1, [1], [0])]  # (den, re, im) of p_0 = 1
    for k in range(1, n + 1):
        # the nonzero scalars of step k and the index j - 1 of the p they multiply
        scalars, uses = [], []
        if H[k - 1][k - 1]:
            scalars.append(H[k - 1][k - 1])
            uses.append(k - 1)
        # run = H[j][j-1] ... H[k-1][k-2], all nonzero; its factors wait in
        # `pending` until some H[j-1][k-1] uses the product
        run, pending = None, []
        for j in range(k - 1, 0, -1):
            h = H[j][j - 1]
            if not h:
                break
            pending.append(h)
            if H[j - 1][k - 1]:
                for factor in pending:
                    run = factor if run is None else run * factor
                pending = []
                scalars.append(H[j - 1][k - 1] * run)
                uses.append(j - 1)
        dprev, rprev, iprev = polys[k - 1]
        if not scalars:
            # p_k = x p_{k-1}
            polys.append((dprev, [0] + rprev, [0] + iprev))
            continue
        e, sre, sim = _numerators(scalars)
        big = lcm(dprev, *(polys[i][0] for i in uses))
        den = e * big
        f = den // dprev
        re = [0] + (rprev if f == 1 else [c * f for c in rprev])
        im = [0] + (iprev if f == 1 else [c * f for c in iprev])
        for a, b, i in zip(sre, sim, uses):
            di, ri, ii = polys[i]
            f = big // di
            if f != 1:
                a, b = a * f, b * f
            top = len(ri)
            re[:top] = [r - a * x + b * y for r, x, y in zip(re, ri, ii)]
            im[:top] = [s - a * y - b * x for s, x, y in zip(im, ri, ii)]
        if den != 1:
            g = gcd(den, *re, *im)
            if g != 1:
                den = den // g
                re = [c // g for c in re]
                im = [c // g for c in im]
        polys.append((den, re, im))
    return polys[n]


def _reduce(rows, ncols):
    """Gauss-Jordan elimination in place on the first ncols columns.

    rows is a list of mutable rows, possibly longer than ncols (an
    augmented block rides along).  Afterwards the pivot rows lead,
    scaled to 1 at their pivots, and every other entry of a pivot column
    is zero.  Returns the pivot columns in order.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        # one division per pivot; zero entries are neither scaled nor subtracted
        inv = 1 / rows[r][c]
        row = [a * inv if a else a for a in rows[r]]
        rows[r] = row
        for i, other in enumerate(rows):
            f = other[c]
            if i != r and f:
                rows[i] = [a - f * b if b else a for a, b in zip(other, row)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(m):
    """Row rank over Q(i): the number of pivots of the reduced matrix."""
    return len(_reduce(m._dense(), m.ncols))


def inverse(m):
    """Exact inverse by Gauss-Jordan elimination of [m | I].

    Raises ValueError on singular or non-square input.
    """
    if not m.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = m.nrows
    aug = [row + [GaussRat(int(i == j)) for j in range(n)]
           for i, row in enumerate(m._dense())]
    if len(_reduce(aug, n)) < n:
        raise ValueError("matrix is singular")
    return Mat([row[n:] for row in aug])


def jordan_partition(u):
    """Jordan block sizes of a unipotent matrix, largest first.

    Computed from the kernel-dimension sequence of (u - I)^k.  Raises
    ValueError if u is not unipotent.
    """
    if not u.is_square:
        raise ValueError("jordan_partition of a non-square matrix")
    n = u.nrows
    nilp = u - Mat.identity(n)
    kernels = [0]
    power = Mat.identity(n)
    while kernels[-1] < n:
        power = power * nilp
        d = n - rank(power)
        if d == kernels[-1]:
            raise ValueError("matrix is not unipotent")
        kernels.append(d)
    blocks_ge = [kernels[k] - kernels[k - 1] for k in range(1, len(kernels))]
    parts = []
    for k in range(1, len(blocks_ge) + 1):
        exact = blocks_ge[k - 1] - (blocks_ge[k] if k < len(blocks_ge) else 0)
        parts.extend([k] * exact)
    parts.sort(reverse=True)
    assert sum(parts) == n
    return parts


def exp_nilpotent(nmat):
    """exp of a nilpotent matrix: the finite exact sum of nmat^k / k!.

    Raises ValueError if the input is not nilpotent.
    """
    if not nmat.is_square:
        raise ValueError("exp_nilpotent of a non-square matrix")
    n = nmat.nrows
    acc = Mat.identity(n)
    term = Mat.identity(n)
    for k in range(1, n + 1):
        term = term * nmat
        if term.is_zero():
            break
        acc = acc + term * GaussRat(Fraction(1, factorial(k)))
    else:
        raise ValueError("matrix is not nilpotent")
    return acc
