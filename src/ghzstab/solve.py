"""Common +1 eigenspace of a product spin observable and the all-Z observable.

The solver is the paper's theorem. A sign pattern m with m_1 = 0 vanishes
when sum_l (-1)^{m_l} theta_l is an even multiple of pi, and each vanishing
pattern contributes the even-parity state whose amplitude at index j is the
product of i (-1)^{m_l} e^{i phi_l} over the set bits of j, normalized. These
states span the common +1 eigenspace. Two of them with patterns m != m'
overlap by the sum over even-parity j of (-1)^{(m xor m') . j} / 2^{n-1},
a character sum that vanishes because m xor m' is neither zero nor the
all-ones string (its first bit is 0). So the basis is orthonormal by
construction. The solver also returns the dimensions of the four sign
sectors of (sA, sB) from the same classify run (classify.sector_dimensions):
two of them count the list with theta_1 flipped to pi - theta_1.

The brute-force route (one symmetric eigensolve of the flipped block of A,
which gives all four sign sectors) is kept as an independent oracle for
tests and ``ghzstab verify``; the production routes never run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .angles import DirectionList
from .classify import ClassificationReport, StabilizerCase, sector_dimensions
from .construct import ghz_states
from .errors import DomainError, InternalConsistencyError, SizeError, shown
from .linalg import DEFAULT_TOL, check_dense
from .observables import (
    brute_force_eigenspace,
    product_observable,
    sigma_z_product,
)

RESIDUAL_LIMIT = 1e-8
CHARACTER_SAMPLES = 100
# the purification audit's environment dimension (raised to the projector's
# when that is larger) and its number of draws
PURITY_ENV_DIM = 8
PURITY_TRIALS = 20
# one purification draw (dim * env_dim coefficients, 128 MiB when complex)
# and the number of trials are each at most 2^23
PURITY_CAP_BITS = 23
# the draws are read in batches of at most 2^20 coefficients (16 MiB), or
# one draw when it is larger: enough to share one stacked Gram eigensolve
# among many small draws
PURITY_BATCH_BITS = 20


@dataclass(frozen=True)
class StabilizerReport:
    classification: ClassificationReport
    dimension: int
    basis: np.ndarray  # (2^n, dimension), orthonormal columns
    residual: float
    sector_dims: tuple[int, int, int, int]  # in the order of observables.SECTORS


def stabilization_limit(tol: float) -> float:
    """Largest residual ||A v - v|| a state admitted at tolerance tol may have.

    classify admits a pattern whose score |sin(S/2)| is at most tol, and the
    state of that pattern misses stabilization by exactly 2 |sin(S/2)|.
    RESIDUAL_LIMIT is the float slack on top, which is all that exact angles
    need.
    """
    return 2.0 * tol + RESIDUAL_LIMIT


def solve_common_eigenspace(
    d: DirectionList, tol: float = DEFAULT_TOL
) -> StabilizerReport:
    """Orthonormal basis of the common +1 eigenspace: one GHZ-class state per
    vanishing sign pattern, and the eigenspace dimensions of the four sign
    sectors (sector_dimensions).

    Each state is checked matrix-free against the product observable (the
    all-Z observable fixes every even-parity vector exactly); a residual
    above stabilization_limit(tol) raises InternalConsistencyError.
    """
    n = d.n_parties
    check_dense(n)  # the (2^n, dim) basis
    classification, sector_dims = sector_dimensions(d, tol)
    basis = ghz_states(d, classification.patterns.bits)
    image = product_observable(d).apply(basis)
    image -= basis  # in place: at the dense cap image is as large as basis
    residual = float(np.linalg.norm(image, axis=0).max(initial=0.0))
    if residual > stabilization_limit(tol):
        raise InternalConsistencyError(
            f"solver basis fails stabilization check: residual {residual:.3e}"
        )
    return StabilizerReport(
        classification=classification,
        dimension=basis.shape[1],
        basis=basis,
        residual=residual,
        sector_dims=sector_dims,
    )


def sector_oracle_bases(
    d: DirectionList, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Oracle for sector_dimensions: the common eigenspaces of (sA, sB) in
    the four sign sectors, in the order of observables.SECTORS, each a
    (2^n, k) array, from brute_force_eigenspace's one symmetric eigensolve
    of the flipped block.

    classify decides exact thetas without tol, so for them the cut is
    half the smallest score a non-vanishing pattern can have, whatever tol
    is: a signed sum k pi / den (den the common theta denominator, which
    the theta_1 flip keeps) off 2 pi Z scores at least sin(pi / (2 den)).
    """
    if d.all_exact:
        den = math.lcm(*(t.pi_multiple.denominator for t in d.thetas))
        gap = math.sin(math.pi * (1 / (2 * den))) / 2.0  # int / int: no overflow
        if gap < 1e-12:
            raise DomainError(
                f"common theta denominator {shown(den)} "
                f"is too large for the float oracle (cut {gap:.1e} < 1e-12)"
            )
        tol = gap
    return brute_force_eigenspace(
        product_observable(d), sigma_z_product(d.n_parties), tol
    )


# ---------------------------------------------------------------------------
# identity checks


def trig_parity_identity_residuals(d: DirectionList) -> tuple[float, float]:
    """Deviation of the direct parity-split product sums from their closed
    forms -i sin(sum theta) and cos(sum theta).

    The products are evaluated in sin/cos form (never tan), so angles at
    pi/2 are fine. Returns (odd_parity_residual, even_parity_residual).
    """
    theta = np.asarray(d.theta_radians(), dtype=np.float64)
    cos_t = np.cos(theta).astype(np.complex128)
    msin_t = (-1j) * np.sin(theta)
    even, odd = _kernels.parity_product_sums(cos_t, msin_t)
    total = float(theta.sum())
    return (
        abs(odd - (-1j) * math.sin(total)),
        abs(even - math.cos(total)),
    )


def character_sum_check(n: int, seed: int = 0) -> float:
    """Max deviation of character sums from their closed form (2^n when all
    components of v are even, else 0) over CHARACTER_SAMPLES random v in
    {0, 1, 2}^n."""
    check_dense(n)  # the (CHARACTER_SAMPLES, 2^n) block of parities
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    vs = rng.integers(0, 3, size=(CHARACTER_SAMPLES, n))
    bits = (vs % 2) @ (1 << np.arange(n - 1, -1, -1))
    sums = _kernels.character_sums(bits, n)
    expected = np.where(bits == 0, 1 << n, 0)
    return float(np.max(np.abs(sums - expected)))


# ---------------------------------------------------------------------------
# purifications and the leak-freedom check


@dataclass(frozen=True)
class PurityReport:
    entropies: np.ndarray  # one float per trial
    reduced_state_fidelity: float | None


def schmidt_weights(c: np.ndarray) -> np.ndarray:
    """Schmidt weights of each (dim, env_dim) draw c / |c| of a stack, largest
    first: the eigenvalues of the Gram c c^H (dim <= env_dim), clipped at 0,
    over their sum, so one weight (x / x) is exactly 1.0: entropy 0.0."""
    probs = np.maximum(np.linalg.eigvalsh(c @ c.conj().mT)[:, ::-1], 0.0)
    return probs / probs.sum(axis=1, keepdims=True)


def purity_security_check(
    report: StabilizerReport,
    env_dim: int = PURITY_ENV_DIM,
    trials: int = PURITY_TRIALS,
    seed: int = 0,
) -> PurityReport:
    """Sample random joint states in range(P x I_env) for the common +1
    eigenspace projector P, given as the solver's report, and report the
    entanglement entropy across the system:environment cut.

    With a one-dimensional projector every purification is a product state
    (zero entropy) whose reduced system state is the unique stabilized
    state; degenerate projectors admit entangled purifications.

    Each draw is a standard complex Gaussian c of shape (dim, env_dim): the
    coefficients in the solver's basis B of a Gaussian (2^n, env_dim) draw
    projected onto range(P), which has that law when B is an isometry
    (checked first, to 1e-12). B c then has c's norm, singular values and
    overlaps; the state is B c / |c|, whose Schmidt weights are those of
    c / |c| (schmidt_weights). dim * env_dim and trials are each capped at
    2^PURITY_CAP_BITS. The trials are drawn in consecutive batches of at
    most 2^PURITY_BATCH_BITS coefficients (or one draw), each read by one
    stacked eigensolve.

    Stabilization takes no check here. No unit state of range(P) misses A
    by more than the spectral norm of (A - I) B, which is at most its
    Frobenius norm, so at most sqrt(dim) times the worst column's residual,
    and solve_common_eigenspace has held every column to
    stabilization_limit(tol). Z^N fixes the even-parity columns exactly.
    """
    dim_p = report.dimension
    if dim_p == 0:
        return PurityReport(entropies=np.zeros(0), reduced_state_fidelity=None)
    if env_dim < dim_p:
        raise DomainError(
            f"env_dim {env_dim} is smaller than the projector dimension {dim_p}"
        )
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    draw = dim_p * env_dim
    if draw > 1 << PURITY_CAP_BITS:
        raise SizeError(
            f"one purification of dim {dim_p} * env_dim {shown(env_dim)} = "
            f"{shown(draw)} coefficients exceeds 2^{PURITY_CAP_BITS}"
        )
    if trials > 1 << PURITY_CAP_BITS:
        raise SizeError(f"trials {shown(trials)} exceeds 2^{PURITY_CAP_BITS}")
    unique = report.classification.case is StabilizerCase.UNIQUE_GHZ
    basis = report.basis
    defect = float(np.abs(basis.conj().T @ basis - np.eye(dim_p)).max())
    if defect > 1e-12:
        raise InternalConsistencyError(
            f"solver basis is not orthonormal: max|B^H B - I| {defect:.3e}"
        )
    rng = np.random.default_rng(seed)
    per_batch = max(1, (1 << PURITY_BATCH_BITS) // draw)
    entropies = np.empty(trials)
    min_fidelity = 1.0
    for start in range(0, trials, per_batch):
        # draw t is g[t, 0] + i g[t, 1]: the generator fills each g in C
        # order, so the batches continue one stream of one real and one
        # imaginary draw per trial
        g = rng.normal(size=(min(per_batch, trials - start), 2, dim_p, env_dim))
        probs = schmidt_weights(g[:, 0] + 1j * g[:, 1])
        # with dim 1, B c / |c|'s overlap with the unique state is its one
        # Schmidt weight
        min_fidelity = min(min_fidelity, float(probs[:, 0].min()))
        # entropy in bits across the system:environment cut, one per draw
        probs = np.where(probs > 1e-15, probs, 1.0)
        stop = start + len(probs)
        # 0.0 - sum, not -sum: a pure draw sums to 0.0, whose negation
        # would be reported as -0.0
        entropies[start:stop] = 0.0 - np.sum(probs * np.log2(probs), axis=1)
    return PurityReport(
        entropies=entropies,
        reduced_state_fidelity=min_fidelity if unique else None,
    )
