"""Exact Clifford-algebra models of GSpin and GPin groups.

The package builds the even Clifford algebra of split quadratic spaces
over Q(i), realizes GSpin/GPin elements with their vector and (half-)spin
representations as exact matrices, and layers root-datum combinatorics,
conjugacy fingerprints, Galois-cocycle bookkeeping and Hodge-Tate weight
multisets on top.
"""

from .clifford import (
    CliffordElement,
    GPinElement,
    OrthogonalSplit,
    QuadSpace,
    beta,
    c_phi,
    even_space,
    i_std,
    odd_space,
    random_gpin,
    random_gspin,
    random_vector,
    std_split,
    theta,
    theta_circ_matrix,
    theta_element,
)
from .cocycle import (
    H1Result,
    InvolutionModule,
    check_extension_criterion,
    extension_classes,
    involution_module,
    norm_map_image,
    z1_b1_h1,
)
from .conjugacy import (
    Fingerprint,
    fingerprint,
    is_conjugate_gpin,
    is_conjugate_gspin,
    is_outer_conjugate,
    is_regular_unipotent_so,
    principal_nilpotent,
    spin7_orbit_discriminator,
    spin_minus_irreducibility_weight_check,
)
from .exact import (
    SQRT_M1,
    GaussRat,
    Mat,
    Poly,
    charpoly,
    exp_nilpotent,
    inverse,
    jordan_partition,
    rank,
)
from .hodge import (
    HighestWeight,
    HTMultiset,
    b_shift,
    ht_multiset,
    ht_via_spin_weights,
    is_spin_regular,
    is_std_regular,
)
from .rootdata import (
    CenterDescriptor,
    TorusCoordinates,
    WeightVector,
    WeylElement,
    center,
    central_char,
    coords_of,
    coroots,
    mu_eps,
    pairing,
    parity_subsets,
    roots,
    scalar_in_coords,
    simple_coroots,
    simple_roots,
    spin_weights,
    theta_on_coords,
    theta_on_weights,
    torus_clifford_element,
    torus_point,
    weyl_act,
    weyl_act_spinor,
    weyl_group,
    z_eps,
)
from .spinrep import (
    SpinMatrix,
    act,
    half_spin_matrix,
    pairing_gram,
    psi_matrix,
    spin_basis,
    spin_matrix,
    theta_intertwiner,
    vacuum,
)

__version__ = "0.1.0"

__all__ = [
    "GaussRat", "Mat", "Poly", "SQRT_M1",
    "charpoly", "rank", "inverse", "jordan_partition", "exp_nilpotent",
    "QuadSpace", "CliffordElement", "GPinElement", "OrthogonalSplit",
    "even_space", "odd_space", "beta", "theta", "theta_element",
    "theta_circ_matrix", "std_split", "i_std", "c_phi",
    "random_vector", "random_gpin", "random_gspin",
    "SpinMatrix", "spin_basis", "vacuum",
    "act", "spin_matrix", "half_spin_matrix", "theta_intertwiner",
    "psi_matrix", "pairing_gram",
    "WeightVector", "TorusCoordinates", "WeylElement", "CenterDescriptor",
    "pairing", "weyl_group", "weyl_act", "weyl_act_spinor",
    "roots", "coroots", "simple_roots", "simple_coroots",
    "theta_on_coords", "theta_on_weights",
    "mu_eps", "parity_subsets", "spin_weights", "central_char",
    "center", "z_eps", "scalar_in_coords",
    "torus_clifford_element", "torus_point", "coords_of",
    "Fingerprint", "fingerprint", "is_conjugate_gspin", "is_conjugate_gpin",
    "is_outer_conjugate", "principal_nilpotent", "is_regular_unipotent_so",
    "spin7_orbit_discriminator", "spin_minus_irreducibility_weight_check",
    "InvolutionModule", "H1Result", "involution_module",
    "z1_b1_h1", "norm_map_image", "check_extension_criterion",
    "extension_classes",
    "HighestWeight", "HTMultiset", "b_shift", "ht_multiset",
    "ht_via_spin_weights", "is_std_regular", "is_spin_regular",
    "__version__",
]
