"""Centers of the four groups and the kernels of the half-spin maps.

Enumerates the torsion part of each center in torus coordinates, shows
how the outer twist permutes it, and confirms that the epsilon half-spin
map kills exactly {1, z_eps}.
"""

from gspin import (
    Mat,
    center,
    central_char,
    coords_of,
    half_spin_matrix,
    mu_eps,
    torus_point,
    z_eps,
)

n = 4
for group in ("gspin", "spin", "gso", "so"):
    desc = center(group, n)
    tors = desc.torsion()
    print(f"{group:5s} center structure {desc.structure:12s} torsion size {len(tors)}")

desc = center("spin", n)
print("\nSpin center generators (n even gives Z/2 x Z/2):")
for gen, image in zip(desc.generators, desc.theta_images, strict=True):
    print("  ", gen, " -> theta ->", image)

print("\nkernel of each half-spin map on the GSpin torsion:")
torsion = center("gspin", n).torsion()
for eps in (1, -1):
    z = z_eps(n, eps)
    kernel = []
    for s in torsion:
        m = half_spin_matrix(torus_point(s), eps).mat
        if m == Mat.identity(2 ** (n - 1)):
            kernel.append(s)
    print(f"  eps={eps:+d}: kernel {sorted(map(str, kernel))}")
    print(f"           expected {{1, z_eps}} with z_eps = {z}")

print("\ncentral character of the eps block on a central point (a, b, ..., b):")
a, b = 3, -1
for eps in (1, -1):
    val = central_char(n, eps, a, b)
    mu = mu_eps(n, eps)
    direct = mu.evaluate(coords_of(torus_point((a,) + (b,) * n)))
    print(f"  eps={eps:+d}: formula {val}, evaluating mu_eps {direct}, agree: {val == direct}")
