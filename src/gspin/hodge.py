"""Weight-multiset combinatorics for the half-spin functorial transfer.

Everything here is elementary bookkeeping around a dominant weight
lambda = (a_0, a_1, ..., a_n) with a_1 >= ... >= a_{n-1} >= |a_n|: the
half-sum shift b = (a_0 - n(n-1)/2, a_1 + n - 1, ..., a_{n-1} + 1, a_n),
the two parity families of subsets of {1..n}, and the resulting integer
multisets

    { -a_0 - sum_{i in I} a_i + sum_{i not in I} (n - i) : I in P^eps(n) }.

The same multiset arises a second way, by pairing the shifted tuple b
against the half-spin weight vectors; ``ht_via_spin_weights`` takes that
route so the two can be compared as independent computations.  The
regularity predicates at the bottom are the distinctness conditions on
{+-b_i} (standard representation) and on the 2^n values b_0 + sum_U b_i
(both half-spin representations together).
"""

from collections import Counter

from .exact import _Value
from .rootdata import WeightVector, pairing, parity_subsets, spin_weights


class HighestWeight(_Value):
    """A dominant weight (a_0, a_1, ..., a_n) with a_1 >= ... >= |a_n|."""

    __slots__ = ("a",)

    def __init__(self, a):
        a = tuple(a)
        if len(a) < 4:
            raise ValueError("expected (a_0, ..., a_n) with n >= 3")
        for x in a:
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError("weight entries must be integers")
        body = a[1:]
        for i in range(len(body) - 2):
            if body[i] < body[i + 1]:
                raise ValueError("dominance requires a_1 >= ... >= a_{n-1}")
        if body[-2] < abs(body[-1]):
            raise ValueError("dominance requires a_{n-1} >= |a_n|")
        object.__setattr__(self, "a", a)

    @property
    def n(self):
        return len(self.a) - 1

    def __iter__(self):
        return iter(self.a)

    def __getitem__(self, k):
        return self.a[k]

    def __repr__(self):
        return f"HighestWeight{self.a}"

    def to_json(self):
        return list(self.a)


def _as_weight(lam):
    return lam if isinstance(lam, HighestWeight) else HighestWeight(lam)


class HTMultiset(_Value):
    """An integer multiset of weights with its outer multiplicity recorded.

    Unhashable: ``values`` is a Counter.
    """

    __slots__ = ("values", "multiplicity")

    def __init__(self, values, multiplicity):
        if not (isinstance(multiplicity, int) and multiplicity >= 1):
            raise ValueError("multiplicity must be a positive integer")
        object.__setattr__(self, "values", Counter(values))
        object.__setattr__(self, "multiplicity", multiplicity)

    def total(self):
        return sum(self.values.values())

    def __repr__(self):
        body = ", ".join(
            f"{v}x{c}" if c > 1 else str(v) for v, c in sorted(self.values.items())
        )
        return f"HTMultiset({{{body}}}, mult={self.multiplicity})"

    def to_json(self):
        return {
            "multiplicity": self.multiplicity,
            "values": [[v, c] for v, c in sorted(self.values.items())],
        }


def b_shift(lam):
    """The rho-style shift (a_0 - n(n-1)/2, a_1 + n-1, ..., a_{n-1} + 1, a_n)."""
    lam = _as_weight(lam)
    n = lam.n
    shifted = [lam[0] - n * (n - 1) // 2]
    for i in range(1, n + 1):
        shifted.append(lam[i] + n - i)
    return tuple(shifted)


def _checked_weight(n, lam, mult):
    lam = _as_weight(lam)
    if lam.n != n:
        raise ValueError("weight length does not match n")
    if not (isinstance(mult, int) and mult >= 1):
        raise ValueError("multiplicity must be a positive integer")
    return lam


def _scaled(values, mult):
    """Count the values once, then take every count mult times."""
    return HTMultiset({v: c * mult for v, c in Counter(values).items()}, mult)


def ht_multiset(n, eps, lam, mult=1):
    """The weight multiset over I in P^eps(n), each value taken mult times."""
    lam = _checked_weight(n, lam, mult)
    shift_total = n * (n - 1) // 2
    values = []
    for subset in parity_subsets(n, eps):
        inside = sum(lam[i] for i in subset)
        outside = shift_total - sum(n - i for i in subset)
        values.append(-lam[0] - inside + outside)
    return _scaled(values, mult)


def ht_via_spin_weights(n, eps, lam, mult=1):
    """The same multiset computed by pairing b_shift against spin weights."""
    lam = _checked_weight(n, lam, mult)
    b = WeightVector(b_shift(lam), dual=False)
    return _scaled((-pairing(b, w) for w in spin_weights(n, eps)), mult)


def is_std_regular(lam):
    """Whether the 2n values {+-b_i : i = 1..n} are pairwise distinct."""
    b = b_shift(lam)
    signed = set()
    for x in b[1:]:
        signed.add(x)
        signed.add(-x)
    return len(signed) == 2 * (len(b) - 1)


def is_spin_regular(lam):
    """Whether all 2^n values b_0 + sum_{i in U} b_i are pairwise distinct."""
    b = b_shift(lam)
    n = len(b) - 1
    sums = {0}
    for x in b[1:]:
        sums = sums | {s + x for s in sums}
    return len(sums) == 2 ** n
