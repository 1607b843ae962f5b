"""The immutable value types: no assignment, equality and hashing by value."""

import pytest

from gspin.cocycle import H1Result, InvolutionModule, involution_module, z1_b1_h1
from gspin.conjugacy import Fingerprint, fingerprint
from gspin.exact import Mat
from gspin.hodge import HighestWeight, HTMultiset, ht_multiset
from gspin.rootdata import TorusCoordinates, WeightVector, WeylElement, torus_point
from gspin.spinrep import SpinMatrix


def _identity_action(z):
    return z


VALUE_TYPES = [
    # (type, factory, hashable)
    (WeightVector, lambda: WeightVector((1, 0, 1, 0), dual=True), True),
    (TorusCoordinates, lambda: TorusCoordinates((1, 2, 3, 5)), True),
    (WeylElement, lambda: WeylElement((2, 1, 3), (-1, -1, 1)), True),
    (
        InvolutionModule,
        lambda: InvolutionModule((TorusCoordinates.identity(3),), _identity_action),
        True,
    ),
    (H1Result, lambda: z1_b1_h1(involution_module("so", 3)), True),
    (HighestWeight, lambda: HighestWeight((0, 2, 1, 0)), True),
    (HTMultiset, lambda: ht_multiset(3, 1, (0, 2, 1, 0)), False),
    (Fingerprint, lambda: fingerprint(torus_point((1, 2, 3, 5))), True),
    (SpinMatrix, lambda: SpinMatrix("full", Mat.identity(2)), True),
]


@pytest.mark.parametrize(
    "cls, make, hashable", VALUE_TYPES, ids=[cls.__name__ for cls, _, _ in VALUE_TYPES]
)
def test_value_type_is_immutable_and_compared_by_value(cls, make, hashable):
    a, b = make(), make()
    assert type(a) is cls
    assert a is not b
    assert a == b
    assert not a != b
    assert a != object()
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        a.extra = None
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("tag", ["trivial", "gspin"])
def test_involution_modules_of_equal_inputs_are_equal(tag):
    a, b = involution_module(tag, 3), involution_module(tag, 3)
    assert a == b
    assert hash(a) == hash(b)
