"""Two-observable stabilization of N-qubit GHZ states.

Decide whether a product spin observable and the all-Z observable share a
unique common +1 eigenstate, recover the stabilized state(s), construct a
uniquely-stabilizing pair for any GHZ-class target, and simulate the
two-setting measurement certification protocol. Every solver result can be
cross-checked against an independent brute-force oracle.
"""

from .angles import Angle, DirectionList
from .certify import CertificationConfig, run_certification
from .classify import StabilizerCase, classify
from .construct import GHZSpec, stabilizing_pair_for
from .linalg import StateVector
from .observables import brute_force_eigenspace, product_observable, sigma_z_product
from .solve import solve_common_eigenspace

__version__ = "0.1.0"

# The names the README tour imports; everything else is imported from the
# module that defines it.
__all__ = [
    "Angle",
    "CertificationConfig",
    "DirectionList",
    "GHZSpec",
    "StabilizerCase",
    "StateVector",
    "brute_force_eigenspace",
    "classify",
    "product_observable",
    "run_certification",
    "sigma_z_product",
    "solve_common_eigenspace",
    "stabilizing_pair_for",
]
