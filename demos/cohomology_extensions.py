"""Twisted cohomology of the order-two action and the extension torsor.

Tabulates Z^1, B^1 and H^1 for the centers acted on by the outer twist,
then plays the extension game: given a representation of the smaller
group and a candidate image for the twisting element, the matched pairs
form a torsor under H^1.
"""

import random

from gspin import (
    check_extension_criterion,
    even_space,
    extension_classes,
    involution_module,
    norm_map_image,
    random_gspin,
    theta,
    torus_point,
    z1_b1_h1,
)

n = 4
for tag in ("so", "spin", "gso", "gspin"):
    mod = involution_module(tag, n)
    res = z1_b1_h1(mod)
    image = norm_map_image(mod)
    print(f"{tag:5s} |Z^1|={len(res.z1):2d} |B^1|={len(res.b1)} H^1 = {res.h1_structure:4s} norm image size {len(image)}")

res = z1_b1_h1(involution_module("gspin", n))
print("\nH^1(gspin) representatives:", [str(z) for z in res.h1_reps])

# the torsor: a representation of the fixed subgroup, a consistent candidate
rng = random.Random(3)
sp = even_space(n)
h = random_gspin(sp, rng)
g0 = h * theta(h).inverse()
vals = [random_gspin(sp, rng) for _ in range(3)]
table = [(v, g0 * theta(v) * g0.inverse()) for v in vals]
print("\ncandidate g0 = h * theta(h)^-1 satisfies the criterion:", check_extension_criterion(table, g0))

classes = extension_classes(table, g0)
print("number of extension classes:", len(classes))
print("each class passes the check:", all(check_extension_criterion(table, c) for c in classes))
ratio = classes[1] * classes[0].inverse()
print("the two classes differ by the central cocycle:", ratio == torus_point(res.h1_reps[1]))
