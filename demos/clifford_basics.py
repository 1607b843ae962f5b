"""Walk through the exact Clifford model: spaces, vectors, the group.

Builds the split 6-dimensional quadratic space, multiplies vectors,
checks the defining relation, and projects group elements to the
orthogonal similitude group by plain and twisted conjugation.
"""

import random

from gspin import (
    CliffordElement,
    GPinElement,
    Mat,
    beta,
    even_space,
    random_gspin,
    random_vector,
)

sp = even_space(3)
print(f"space: {sp!r}, gram matrix:")
print(sp.gram())

gen = CliffordElement.generator
v = gen(sp, 1) + gen(sp, 4)  # e1 + e4 pairs to 1 with itself, so Q = 1
w = gen(sp, 2) - gen(sp, 5)
print("\nv =", v)
print("w =", w)
print("v*v =", v * v, " (vectors square to their Q value)")
print("vw + wv =", v * w + w * v, " (the polarized relation)")
print("beta(v*w) =", beta(v * w), " equals w*v:", beta(v * w) == w * v)

g = GPinElement(v * w)
print("\ng = v*w as a group element")
print("parity:", g.parity, " spinor norm:", g.spinor_norm())
print("conjugation action on vectors (pr_circ):")
print(g.pr_circ())
twisted = Mat.from_cols([(g.elt * gen(sp, j) * beta(g.elt)).as_vector()
                         for j in range(1, sp.dim + 1)])
print("twisted conjugation pr = norm * pr_circ:", twisted == g.pr_circ() * g.spinor_norm())

rng = random.Random(7)
a = random_gspin(sp, rng)
b = random_gspin(sp, rng)
print("\nrandom GSpin pair:")
print("pr_circ multiplicative:", (a * b).pr_circ() == a.pr_circ() * b.pr_circ())
print("norm multiplicative:   ", (a * b).spinor_norm() == a.spinor_norm() * b.spinor_norm())

x = random_vector(sp, rng)
print("\nrandom anisotropic vector:", x)
y = (a * GPinElement(x) * a.inverse()).elt
print("conjugating it by a stays a vector:", y.as_vector() is not None)
expected = a.pr_circ() * Mat.from_cols([x.as_vector()])
print("and matches the matrix action:", Mat.from_cols([y.as_vector()]) == expected)
