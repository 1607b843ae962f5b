"""Degree-one cohomology of the two-element Galois group in a center.

The Galois group {1, c} acts on the center of the dual group through the
outer involution.  A 1-cocycle is determined by its value z at c, subject
to z * theta(z) = 1; coboundaries are the elements theta(x) / x.  All of
Z^1 lies in the rational torsion even when the center has a continuous
G_m factor: writing a central element as (s0, s1, ..., s1), the cocycle
condition forces s0^4 = 1, so enumerating the mu_4-torsion computed by
the center descriptors is exhaustive.  The quotient H^1 classifies the
ways to extend a representation of an index-two subgroup's source, which
is what the extension-criterion checker and the torsor construction at
the bottom of the module exercise on finite generator tables.
"""

from .clifford import GPinElement, beta, theta, theta_circ_matrix
from .exact import Mat, _Value
from .rootdata import TorusCoordinates, center, theta_on_coords, torus_point


def _gso_theta(t):
    """The involution on vector-side torus coordinates: t_n -> t_0 / t_n."""
    coords = list(t.s)
    coords[-1] = coords[0] / coords[-1]
    return TorusCoordinates(coords)


class InvolutionModule(_Value):
    """Rational center torsion together with an involutive group action."""

    __slots__ = ("elements", "action", "tag", "identity")

    def __init__(self, elements, action, tag="custom"):
        elements = tuple(elements)
        if not elements:
            raise ValueError("the module needs at least the identity element")
        n = elements[0].n
        ident = TorusCoordinates.identity(n)
        pool = set(elements)
        if ident not in pool:
            raise ValueError("the module does not contain the identity")
        for z in elements:
            image = action(z)
            if image not in pool:
                raise ValueError("the action does not preserve the module")
            if action(image) != z:
                raise ValueError("the action is not an involution")
        for z in elements:
            for w in elements:
                if z * w not in pool:
                    raise ValueError("the module is not closed under multiplication")
                if action(z * w) != action(z) * action(w):
                    raise ValueError("the action does not respect the group law")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "identity", ident)

    def __repr__(self):
        return f"InvolutionModule({self.tag}, {len(self.elements)} torsion elements)"


def _identity(z):
    return z


def involution_module(tag, n):
    """The torsion of the tagged center with its natural involution.

    Tags follow the center descriptors ("gspin", "spin", "so", "gso");
    "trivial" gives the one-element module.
    """
    if tag == "trivial":
        return InvolutionModule((TorusCoordinates.identity(n),), _identity, tag="trivial")
    desc = center(tag, n)
    action = theta_on_coords if tag in ("gspin", "spin") else _gso_theta
    return InvolutionModule(desc.torsion(), action, tag=tag)


class H1Result(_Value):
    """Z^1, B^1, and the quotient H^1 with canonical representatives.

    A cocycle is determined by its value z at c, so z1, b1 and h1_reps
    hold those values as TorusCoordinates.
    """

    __slots__ = ("z1", "b1", "h1_structure", "h1_reps")

    def __init__(self, z1, b1, h1_structure, h1_reps):
        object.__setattr__(self, "z1", tuple(z1))
        object.__setattr__(self, "b1", tuple(b1))
        object.__setattr__(self, "h1_structure", h1_structure)
        object.__setattr__(self, "h1_reps", tuple(h1_reps))

    def __repr__(self):
        return (
            f"H1Result(|Z1|={len(self.z1)}, |B1|={len(self.b1)}, "
            f"H1={self.h1_structure})"
        )

    def to_json(self):
        return {
            "z1": [z.to_json() for z in self.z1],
            "b1": [z.to_json() for z in self.b1],
            "h1": {
                "structure": self.h1_structure,
                "representatives": [z.to_json() for z in self.h1_reps],
            },
        }


def z1_b1_h1(mod):
    """Enumerate cocycles, coboundaries, and the quotient for a module.

    Everything is exact: Z^1 = {z : z * theta(z) = 1} over the torsion
    (complete even with a G_m factor, see the module docstring), B^1 =
    {theta(x) / x}, and H^1 is described by a structure tag plus one
    representative per class (the identity class is listed first and is
    represented by the identity).
    """
    act = mod.action
    ident = mod.identity
    z1_vals = sorted((z for z in mod.elements if z * act(z) == ident), key=TorusCoordinates.to_json)
    b1_set = {act(x) * x.inverse() for x in mod.elements}
    b1_vals = sorted(b1_set, key=TorusCoordinates.to_json)
    if not b1_set <= set(z1_vals):
        raise AssertionError("coboundaries must be cocycles")
    remaining = set(z1_vals)
    cosets = []
    while remaining:
        z = min(remaining, key=TorusCoordinates.to_json)
        coset = {z * b for b in b1_set}
        if not coset <= remaining:
            raise AssertionError("coboundary translates must stay inside Z^1")
        cosets.append(coset)
        remaining -= coset
    reps = []
    for coset in cosets:
        reps.append(ident if ident in coset else min(coset, key=TorusCoordinates.to_json))
    reps.sort(key=lambda v: (v != ident, v.to_json()))
    q = len(cosets)
    if len(z1_vals) != q * len(b1_vals):
        raise AssertionError("|Z^1| must equal |H^1| * |B^1|")

    def class_order(value):
        power, k = value, 1
        while power not in b1_set:
            power = power * value
            k += 1
        return k

    if q == 1:
        structure = "1"
    else:
        m = max(class_order(v) for v in reps)
        if m == q:
            structure = f"Z/{q}"
        elif q == 4 and m == 2:
            structure = "Z/2 x Z/2"
        else:
            structure = f"abelian of order {q}"
    return H1Result(z1=z1_vals, b1=b1_vals, h1_structure=structure, h1_reps=reps)


def norm_map_image(mod):
    """The image of z -> z * theta(z) on the torsion, sorted canonically.

    Every image point is fixed by the action; for the similitude center
    the image is exactly the order-two scalars, which is the torsion part
    of the squaring map's image (the continuous surjectivity claim is not
    testable pointwise over the rationals and is not asserted here).
    """
    act = mod.action
    image = sorted({z * act(z) for z in mod.elements}, key=TorusCoordinates.to_json)
    for w in image:
        if act(w) != w:
            raise AssertionError("the norm map must land in the fixed points")
    return image


# ---------------------------------------------------------------------------
# extension criterion on finite generator tables


def _theta_of(x):
    if isinstance(x, GPinElement):
        return theta(x)
    if isinstance(x, Mat):
        th = theta_circ_matrix(x.nrows // 2)
        return th * x * th
    raise TypeError("expected a GPinElement or an even-size Mat")


def check_extension_criterion(rho_gens, g):
    """Whether g extends the generator table across the quadratic twist.

    ``rho_gens`` lists pairs (value at a generator, value at its Galois
    conjugate); g qualifies iff g * theta(g) = 1 and conjugation by g
    composed with theta carries each value to its listed conjugate.  The
    conjugation is tested as g * theta(val) == twisted * g, an exact
    equality that gives the same verdict as g * theta(val) * g^-1 ==
    twisted because g is invertible once g * theta(g) = 1 holds, and it
    needs no inverse.  A GPin candidate is tested on Clifford elements
    alone: g^-1 = beta(g) / N(g), so g * theta(g) = 1 reads
    theta(g) * N(g) == beta(g), and the rows compare g * theta(val) with
    twisted * g without composing their pr_circ matrices, which equality
    of GPin elements never reads.  A value that cannot multiply g
    (another space, or another number of columns) raises ValueError.
    """
    if not isinstance(g, (GPinElement, Mat)):
        raise TypeError("the candidate must be a GPinElement or a Mat")
    for val, twisted in rho_gens:
        if type(val) is not type(g) or type(twisted) is not type(g):
            raise TypeError("generator values must match the candidate's type")
    if isinstance(g, GPinElement):
        if theta(g).elt * g.spinor_norm() != beta(g.elt):
            return False
        return all(g.elt * theta(val).elt == twisted.elt * g.elt for val, twisted in rho_gens)
    if g * _theta_of(g) != g ** 0:
        return False
    return all(g * _theta_of(val) == twisted * g for val, twisted in rho_gens)


def _central_element_like(g, coords):
    if isinstance(g, GPinElement):
        return torus_point(coords)
    vals = list(coords.s[1:])
    return Mat.diag(vals + [1 / v for v in vals])


def extension_classes(rho_gens, g0, module=None):
    """All inequivalent extensions through the H^1-torsor at a passing g0.

    Returns [g0 * z] over one z per H^1 class, each re-verified against
    the criterion.  Raises ValueError when g0 itself fails.
    """
    if not check_extension_criterion(rho_gens, g0):
        raise ValueError("the candidate does not satisfy the extension criterion")
    if module is None:
        if isinstance(g0, GPinElement):
            module = involution_module("gspin", g0.space.n)
        else:
            module = involution_module("so", g0.nrows // 2)
    result = z1_b1_h1(module)
    out = []
    for z in result.h1_reps:
        candidate = _central_element_like(g0, z) * g0
        if not check_extension_criterion(rho_gens, candidate):
            raise AssertionError("a cocycle twist of a passing candidate must pass")
        out.append(candidate)
    return out
