"""Tests for the shift, subset families, weight multisets, and regularity."""

import random
from collections import Counter

import pytest

from gspin.hodge import (
    HTMultiset,
    HighestWeight,
    b_shift,
    ht_multiset,
    ht_via_spin_weights,
    is_spin_regular,
    is_std_regular,
)
from gspin.rootdata import parity_subsets


def random_dominant(n, rng, lo=-6, hi=9):
    body = sorted((rng.randint(0, hi) for _ in range(n - 1)), reverse=True)
    an = rng.randint(-body[-1], body[-1]) if body[-1] else 0
    return (rng.randint(lo, hi), *body, an)


# ---------------------------------------------------------------------------
# types


def test_highest_weight_validation():
    HighestWeight((5, 3, 2, -2))
    with pytest.raises(ValueError):
        HighestWeight((0, 1, 2, 0))
    with pytest.raises(ValueError):
        HighestWeight((0, 3, 1, 2))
    with pytest.raises(ValueError):
        HighestWeight((0, 1, 0))
    with pytest.raises(TypeError):
        HighestWeight((0, 1.5, 1, 0))
    with pytest.raises(TypeError):
        HighestWeight((0, True, 1, 0))


def test_highest_weight_accessors():
    lam = HighestWeight((1, 4, 2, -1))
    assert lam.n == 3
    assert lam[2] == 2
    assert tuple(lam) == (1, 4, 2, -1)
    assert lam == HighestWeight((1, 4, 2, -1))
    assert lam.to_json() == [1, 4, 2, -1]
    with pytest.raises(AttributeError):
        lam.a = ()


def test_ht_multiset_type():
    m = HTMultiset([0, 1, 1], 1)
    assert m.total() == 3
    assert m.values == Counter({0: 1, 1: 2})
    assert m.to_json() == {"multiplicity": 1, "values": [[0, 1], [1, 2]]}
    with pytest.raises(ValueError):
        HTMultiset([0], 0)


# ---------------------------------------------------------------------------
# subset families and the shift


def test_p_eps_n3():
    assert parity_subsets(3, -1) == ((1,), (2,), (3,), (1, 2, 3))
    assert parity_subsets(3, 1) == ((), (1, 2), (1, 3), (2, 3))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_p_eps_partitions_all_subsets(n):
    plus, minus = parity_subsets(n, 1), parity_subsets(n, -1)
    assert len(plus) == 2 ** (n - 1)
    assert len(minus) == 2 ** (n - 1)
    assert len(set(plus) | set(minus)) == 2 ** n
    assert all(len(u) % 2 == 0 for u in plus)
    assert all(len(u) % 2 == 1 for u in minus)


def test_b_shift_zero_weight():
    assert b_shift((0, 0, 0, 0)) == (-3, 2, 1, 0)
    assert b_shift((0, 0, 0, 0, 0)) == (-6, 3, 2, 1, 0)


def test_b_shift_general():
    assert b_shift((5, 4, 2, -1)) == (2, 6, 3, -1)
    assert b_shift(HighestWeight((5, 4, 2, -1))) == (2, 6, 3, -1)


# ---------------------------------------------------------------------------
# weight multisets, two routes


def test_ht_multiset_zero_weight_n3():
    for eps in (1, -1):
        m = ht_multiset(3, eps, (0, 0, 0, 0))
        assert m.values == Counter({0: 1, 1: 1, 2: 1, 3: 1})
        assert ht_via_spin_weights(3, eps, (0, 0, 0, 0)) == m


def test_ht_multiset_multiplicity():
    base = ht_multiset(3, 1, (0, 0, 0, 0), 1)
    doubled = ht_multiset(3, 1, (0, 0, 0, 0), 2)
    assert doubled.multiplicity == 2
    assert doubled.total() == 2 * base.total()
    assert doubled.values == Counter({v: 2 * c for v, c in base.values.items()})


def test_ht_multiset_validation():
    with pytest.raises(ValueError):
        ht_multiset(4, 1, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        ht_multiset(3, 1, (0, 0, 0, 0), 0)
    with pytest.raises(ValueError):
        ht_via_spin_weights(4, 1, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        ht_via_spin_weights(3, 1, (0, 0, 0, 0), -1)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("eps", [1, -1])
def test_two_routes_agree_on_random_weights(n, eps):
    rng = random.Random(40 + n)
    for _ in range(25):
        lam = random_dominant(n, rng)
        mult = rng.choice((1, 2, 3))
        assert ht_multiset(n, eps, lam, mult) == ht_via_spin_weights(n, eps, lam, mult)


def test_two_routes_agree_with_negative_last_entry():
    lam = (2, 5, 3, -3)
    for eps in (1, -1):
        assert ht_multiset(3, eps, lam) == ht_via_spin_weights(3, eps, lam)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_union_over_eps_has_full_size(n):
    rng = random.Random(44)
    lam = random_dominant(n, rng)
    total = ht_multiset(n, 1, lam).total() + ht_multiset(n, -1, lam).total()
    assert total == 2 ** n


def test_involution_on_weight_swaps_eps_multisets():
    # theta on the weight lattice: (a0, ..., an) -> (a0 + an, a1, ..., -an)
    from gspin.rootdata import WeightVector, theta_on_weights

    rng = random.Random(45)
    for n in (3, 4, 5):
        for _ in range(10):
            lam = random_dominant(n, rng)
            twisted = theta_on_weights(WeightVector(lam, dual=False)).coords
            assert twisted == (lam[0] + lam[-1],) + lam[1:-1] + (-lam[-1],)
            for eps in (1, -1):
                assert ht_multiset(n, eps, twisted) == ht_multiset(n, -eps, lam)


def test_all_values_are_integers():
    rng = random.Random(46)
    for n in (3, 4):
        lam = random_dominant(n, rng)
        for eps in (1, -1):
            assert all(isinstance(v, int) for v in ht_multiset(n, eps, lam).values)


# ---------------------------------------------------------------------------
# regularity


def test_std_regular_examples():
    assert not is_std_regular((0, 0, 0, 0))
    assert not is_std_regular((0, 3, 1, 0))
    assert is_std_regular((0, 3, 2, 1))


def test_spin_regular_examples():
    # b = (-3, 5, 3, 1): subset sums of {5, 3, 1} are distinct
    assert is_spin_regular((0, 3, 2, 1))
    # b = (-3, 2, 1, 0): 0 repeats subset sums
    assert not is_spin_regular((0, 0, 0, 0))
    # b = (0, 6, 3, 2, 1): 3 = 2 + 1 collides
    assert not is_spin_regular((6, 3, 1, 1, 1))


def test_spin_regular_implies_std_regular():
    rng = random.Random(47)
    checked = 0
    for _ in range(500):
        n = rng.choice((3, 4, 5))
        lam = random_dominant(n, rng)
        if is_spin_regular(lam):
            checked += 1
            assert is_std_regular(lam)
    assert checked > 20


def test_regularity_accepts_highest_weight_objects():
    lam = HighestWeight((0, 3, 2, 1))
    assert is_std_regular(lam)
    assert is_spin_regular(lam)
