"""Spin matrices on the Fock model and the two half-spin blocks.

Shows the exterior-algebra basis, the matrix of a torus element (diagonal,
with subset-product entries), the invariant pairing, and the change of
basis that identifies the odd-rank spin module with a half-spin block.
"""

import random

from gspin import (
    GaussRat,
    even_space,
    half_spin_matrix,
    i_std,
    inverse,
    odd_space,
    pairing_gram,
    psi_matrix,
    random_gspin,
    spin_basis,
    spin_matrix,
    theta_intertwiner,
    torus_point,
)

n = 3
sp = even_space(n)
basis = spin_basis(sp, "full")
print(f"Fock basis for n={n}: {len(basis)} subsets of {{1..{n}}}")
print("even block:", list(spin_basis(sp, "+")))
print("odd block: ", list(spin_basis(sp, "-")))

t = torus_point((1, 2, 3, 5))
sm = spin_matrix(t)
print("\nspin matrix of the torus point (1,2,3,5) is diagonal:", sm.mat.is_diagonal())
diag = [sm.mat[j, j] for j in range(len(basis))]
print("diagonal entries (s0 * prod over the subset):", diag)

plus = half_spin_matrix(t, "+")
minus = half_spin_matrix(t, "-")
print("half-spin blocks have size", plus.mat.nrows, "and split the diagonal:")
print("  plus: ", [plus.mat[k, k] for k in range(plus.mat.nrows)])
print("  minus:", [minus.mat[k, k] for k in range(minus.mat.nrows)])

rng = random.Random(5)
g = random_gspin(t.space, rng)
j = pairing_gram(n)
lhs = spin_matrix(g).mat.transpose() * j * spin_matrix(g).mat
print("\ninvariant pairing: S(g)^T J S(g) == N(g) J :", lhs == j * g.spinor_norm())
print("J is alternating for n =", n, ":", j.transpose() == j * GaussRat(-1))

# restriction to the odd-rank subgroup: the plus block becomes the odd spin module
h = random_gspin(odd_space(n), rng)
psi = psi_matrix(n)
restricted = half_spin_matrix(i_std(h), "+").mat
print("\nodd-rank restriction factors through the change of basis psi:")
print(restricted == psi * spin_matrix(h).mat * inverse(psi))

# the other block needs one extra twist by the theta intertwiner
to_minus = theta_intertwiner(n) * psi
print("the minus block restricts through the twisted map:")
print(half_spin_matrix(i_std(h), "-").mat == to_minus * spin_matrix(h).mat * inverse(to_minus))
