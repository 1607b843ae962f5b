"""The based root datum: roots, Weyl group, characters of the torus.

Prints the D_n root system sitting inside the character lattice of the
rank n+1 torus, the Cartan matrix read off the pairing, a Weyl orbit,
and the highest weights of the half-spin blocks.
"""

import math

from gspin import (
    TorusCoordinates,
    half_spin_matrix,
    mu_eps,
    pairing,
    roots,
    simple_coroots,
    simple_roots,
    spin_weights,
    torus_point,
    weyl_act,
    weyl_group,
)

n = 4
rts = roots(n)
print(f"n={n}: {len(rts)} roots (2n(n-1) = {2 * n * (n - 1)})")
srts = simple_roots(n)
scrts = simple_coroots(n)
print("simple roots (coordinates on the torus):")
for a in srts:
    print("  ", a.coords)

cartan = [[pairing(a, b) for b in scrts] for a in srts]
print("Cartan matrix <alpha_i, alpha_j^vee>:")
for row in cartan:
    print("  ", row)

W = list(weyl_group(n))
print(f"\nWeyl group has {len(W)} elements (2^(n-1) n! = {2 ** (n - 1) * math.factorial(n)})")

t = TorusCoordinates((1, 2, 3, 4, 5))
orbit = {weyl_act(w, t) for w in W}
print("orbit of", t, "has size", len(orbit))

print("\nhighest weights of the half-spin blocks:")
for eps in (1, -1):
    mu = mu_eps(n, eps)
    print(f"  eps={eps:+d}: {mu.coords}")

# every diagonal entry of a half-spin matrix is one of the 2^(n-1) spin weights
tt = torus_point((1, 2, 3, 4, 5))
wts = spin_weights(n, 1)
diag = [half_spin_matrix(tt, "+").mat[k, k] for k in range(2 ** (n - 1))]
print("\nplus-block diagonal equals the weight values:", sorted(map(str, diag)) == sorted(str(w.evaluate(t)) for w in wts))
