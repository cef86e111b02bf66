"""Two-observable stabilization of N-qubit GHZ states.

Decide whether a product spin observable and the all-Z observable share a
unique common +1 eigenstate, recover the stabilized state(s), construct a
uniquely-stabilizing pair for any GHZ-class target, and simulate the
two-setting measurement certification protocol. Every solver result can be
cross-checked against an independent brute-force oracle.
"""

from .angles import PI, Angle, DirectionList
from .bitstrings import even_indices
from .certify import (
    CertificationConfig,
    Ensemble,
    expectation,
    joint_outcome_probabilities,
    run_certification,
    sequential_outcome_probabilities,
)
from .classify import (
    StabilizerCase,
    classify,
    pattern_condition,
    sector_transform,
    sign_pattern_set,
    signed_angle_sum,
)
from .construct import (
    GHZSpec,
    canonical_angles,
    ghz_from_pattern,
    stabilizing_pair_for,
)
from .linalg import (
    StateVector,
    fidelity,
    null_space,
    subspace_distance,
)
from .observables import (
    brute_force_eigenspace,
    canonical_stabilizer_generators,
    local_observable,
    product_observable,
    sigma_z_product,
    stabilizer_dimension,
)
from .solve import (
    character_sum_check,
    purity_security_check,
    sector_dimensions,
    sector_oracle_bases,
    solve_common_eigenspace,
    trig_parity_identity_residuals,
)

__version__ = "0.1.0"

# The names the README tour and the tests use; everything else (report
# types, error classes, helpers) is imported from its own module.
__all__ = [
    "Angle",
    "CertificationConfig",
    "DirectionList",
    "Ensemble",
    "GHZSpec",
    "PI",
    "StabilizerCase",
    "StateVector",
    "brute_force_eigenspace",
    "canonical_angles",
    "canonical_stabilizer_generators",
    "character_sum_check",
    "classify",
    "even_indices",
    "expectation",
    "fidelity",
    "ghz_from_pattern",
    "joint_outcome_probabilities",
    "local_observable",
    "null_space",
    "pattern_condition",
    "product_observable",
    "purity_security_check",
    "run_certification",
    "sector_dimensions",
    "sector_oracle_bases",
    "sector_transform",
    "sequential_outcome_probabilities",
    "sigma_z_product",
    "sign_pattern_set",
    "signed_angle_sum",
    "solve_common_eigenspace",
    "stabilizer_dimension",
    "stabilizing_pair_for",
    "subspace_distance",
    "trig_parity_identity_residuals",
]
