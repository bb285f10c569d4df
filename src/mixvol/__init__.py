"""Mixed volumes and translative mixed functionals of convex polytopes.

Four independent computation routes (polynomial expansion, face-pair
selection, exterior-angle quadrature, flag-measure quadrature) that can be
cross-checked against each other numerically.
"""

from .errors import (
    MixvolError,
    InputError,
    DegenerateInputError,
    DivergenceError,
    EstimationError,
)
from .estimates import MCEstimate
from .polytope import (
    Polytope,
    Face,
    NormalCone,
    hull_from_points,
    minkowski_sum,
    scaled_sum,
    sum_volume,
    polytope_to_json,
    polytope_from_json,
)
from .generators import cube, simplex, diamond, segment, rotated_cube, generate
from .mixed_volume import (
    MixedVolumeTable,
    oracle_mixed_volumes,
    schneider_mixed_volume,
    mixed_exterior_angle,
    angle_mixed_volume,
    epsilon_mixed_volume,
)
from .flag_calculus import (
    DMatrix,
    FlagAtom,
    FlagAtomSet,
    closed_d_matrix,
    estimate_d_matrix,
    d_matrix,
    polytope_flag_atoms,
    phi_kernel,
    phi_multiplier,
    psi_kernel,
    psi_multiplier,
    verify_multiplier_identity,
    flag_mixed_volume,
    flag_mixed_functional,
)
from .translative import (
    TranslativeTable,
    curvature_mixed_functional,
    translative_integral_mc,
    decompose_homogeneous,
    duality_check,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "MixvolError",
    "InputError",
    "DegenerateInputError",
    "DivergenceError",
    "EstimationError",
    "MCEstimate",
    "Polytope",
    "Face",
    "NormalCone",
    "hull_from_points",
    "minkowski_sum",
    "scaled_sum",
    "sum_volume",
    "polytope_to_json",
    "polytope_from_json",
    "cube",
    "simplex",
    "diamond",
    "segment",
    "rotated_cube",
    "generate",
    "MixedVolumeTable",
    "oracle_mixed_volumes",
    "schneider_mixed_volume",
    "mixed_exterior_angle",
    "angle_mixed_volume",
    "epsilon_mixed_volume",
    "DMatrix",
    "FlagAtom",
    "FlagAtomSet",
    "closed_d_matrix",
    "estimate_d_matrix",
    "d_matrix",
    "polytope_flag_atoms",
    "phi_kernel",
    "phi_multiplier",
    "psi_kernel",
    "psi_multiplier",
    "verify_multiplier_identity",
    "flag_mixed_volume",
    "flag_mixed_functional",
    "TranslativeTable",
    "curvature_mixed_functional",
    "translative_integral_mc",
    "decompose_homogeneous",
    "duality_check",
    "run_suite",
    "__version__",
]
