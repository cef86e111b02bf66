"""Common +1 eigenspace of a product spin observable and the all-Z observable.

The solver is the paper's theorem. A sign pattern m with m_1 = 0 vanishes
when sum_l (-1)^{m_l} theta_l is an even multiple of pi, and each vanishing
pattern contributes the even-parity state whose amplitude at index j is the
product of i (-1)^{m_l} e^{i phi_l} over the set bits of j, normalized. These
states span the common +1 eigenspace. Two of them with patterns m != m'
overlap by the sum over even-parity j of (-1)^{(m xor m') . j} / 2^{n-1},
a character sum that vanishes because m xor m' is neither zero nor the
all-ones string (its first bit is 0). So the basis is orthonormal by
construction.

The brute-force route (one SVD of the block of A that maps B's +1
eigenspace into its -1 eigenspace, which gives all four sign sectors) is
kept as an independent oracle for tests and ``ghzstab verify``; the
production routes never run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .angles import DirectionList
from .classify import (
    ClassificationReport,
    StabilizerCase,
    classify,
    sector_transform,
)
from .construct import ghz_states
from .errors import DomainError, InternalConsistencyError, SizeError
from .linalg import DEFAULT_TOL, MAX_PARTIES, check_dense
from .observables import (
    brute_force_eigenspace,
    product_observable,
    sigma_z_product,
)

RESIDUAL_LIMIT = 1e-8
SECTORS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
CHARACTER_SAMPLES = 100


@dataclass(frozen=True)
class StabilizerReport:
    classification: ClassificationReport
    dimension: int
    basis: np.ndarray  # (2^n, dimension), orthonormal columns
    residual: float


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
    vanishing sign pattern.

    Each state is checked matrix-free against the product observable (the
    all-Z observable fixes every even-parity vector exactly); a residual
    above stabilization_limit(tol) raises InternalConsistencyError.
    """
    n = d.n_parties
    check_dense(n)  # the (2^n, dim) basis
    classification = classify(d, tol)
    basis = ghz_states(d, classification.patterns.bits)
    image = product_observable(d).apply(basis)
    residual = float(np.linalg.norm(image - basis, axis=0).max(initial=0.0))
    if residual > stabilization_limit(tol):
        raise InternalConsistencyError(
            f"solver basis fails stabilization check: residual {residual:.3e}"
        )
    return StabilizerReport(
        classification=classification,
        dimension=basis.shape[1],
        basis=basis,
        residual=residual,
    )


def sector_dimensions(
    d: DirectionList, tol: float = DEFAULT_TOL
) -> tuple[int, int, int, int]:
    """Common eigenspace dimensions of (sA, sB) for the four sign sectors
    (+,+), (+,-), (-,+), (-,-): the vanishing-pattern count of each sector's
    transformed angles.

    sector_transform moves only theta_1 (and phi_1, which classify does not
    read): (-,-) keeps theta_1, and (+,-) and (-,+) both map it to
    pi - theta_1. So two counts give all four sectors.
    """
    same = len(classify(d, tol).patterns)
    flipped = len(classify(sector_transform(d, 1, -1), tol).patterns)
    return (same, flipped, flipped, same)


def sector_oracle_bases(
    d: DirectionList, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Oracle for sector_dimensions: the brute-force common eigenspaces of
    (sA, sB) in the four sign sectors, in the order of SECTORS, each a
    (2^n, k) array, from one run of brute_force_eigenspace.

    classify decides exact thetas without tol, so for them the cut is
    lowered to half the smallest score a non-vanishing pattern can have:
    a signed sum k pi / den (den the common theta denominator, which the
    sector transforms keep) off 2 pi Z scores at least sin(pi / (2 den)).
    """
    if d.all_exact:
        den = math.lcm(*(t.denominator for t in d.thetas))
        gap = math.sin(math.pi * (1 / (2 * den))) / 2.0  # int / int: no overflow
        if gap < 1e-12:
            raise DomainError(
                f"common theta denominator {den if den < 10**30 else '> 1e30'} "
                f"is too large for the float oracle (cut {gap:.1e} < 1e-12)"
            )
        tol = min(tol, gap)
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
    if n > MAX_PARTIES:
        raise SizeError(f"n {n} exceeds the party cap {MAX_PARTIES}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    vs = rng.integers(0, 3, size=(CHARACTER_SAMPLES, n))
    bits = np.zeros(CHARACTER_SAMPLES, dtype=np.int64)
    for l in range(n):
        bits |= (vs[:, l] % 2).astype(np.int64) << (n - 1 - l)
    sums = _kernels.character_sums(bits, n)
    expected = np.where(bits == 0, 1 << n, 0)
    return float(np.max(np.abs(sums - expected)))


# ---------------------------------------------------------------------------
# purifications and the leak-freedom check


@dataclass(frozen=True)
class PurityReport:
    case: StabilizerCase
    projector_dim: int
    env_dim: int
    trials: int
    empty: bool
    max_entropy: float
    entropies: tuple[float, ...]
    stabilization_residual: float
    reduced_state_fidelity: float | None


def purity_security_check(
    report: StabilizerReport,
    d: DirectionList,
    env_dim: int = 8,
    trials: int = 50,
    seed: int = 0,
) -> PurityReport:
    """Sample random joint states in range(P x I_env) for the common +1
    eigenspace projector P of d, given as the solver's report for d, verify
    they stay stabilized, and report the entanglement entropy across the
    system:environment cut.

    With a one-dimensional projector every purification is a product state
    (zero entropy) whose reduced system state is the unique stabilized
    state; degenerate projectors admit entangled purifications.

    The draws are checked together, as a (2^n, trials * env_dim) block cut
    into chunks of at most 2^MAX_PARTIES amplitudes.
    """
    dim_p = report.dimension
    n = d.n_parties
    sys_dim = 1 << n
    if dim_p == 0:
        return PurityReport(
            case=report.classification.case,
            projector_dim=0,
            env_dim=env_dim,
            trials=0,
            empty=True,
            max_entropy=0.0,
            entropies=(),
            stabilization_residual=0.0,
            reduced_state_fidelity=None,
        )
    if env_dim < dim_p:
        raise DomainError(
            f"env_dim {env_dim} is smaller than the projector dimension {dim_p}"
        )
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if sys_dim * env_dim > 1 << MAX_PARTIES:
        raise SizeError(
            f"one purification draw of 2^{n} * env_dim {env_dim} amplitudes "
            f"exceeds 2^{MAX_PARTIES}"
        )
    unique = report.classification.case is StabilizerCase.UNIQUE_GHZ
    basis = report.basis
    obs = product_observable(d)
    b_diag = sigma_z_product(n)
    rng = np.random.default_rng(seed)
    step = (1 << MAX_PARTIES) // (sys_dim * env_dim)
    entropies = []
    fidelities = []
    worst_residual = 0.0
    for start in range(0, trials, step):
        k = min(step, trials - start)
        g = np.stack(
            [
                rng.normal(size=(sys_dim, env_dim))
                + 1j * rng.normal(size=(sys_dim, env_dim))
                for _ in range(k)
            ],
            axis=1,
        ).reshape(sys_dim, k * env_dim)
        proj = (basis @ (basis.conj().T @ g)).reshape(sys_dim, k, env_dim)
        del g  # in the residual check apply_locals holds 3 blocks beside proj
        norms = np.linalg.norm(proj, axis=(0, 2))
        if norms.min() < 1e-12:
            raise InternalConsistencyError("projected Gaussian draw collapsed to 0")
        proj /= norms[:, None]
        cols = proj.reshape(sys_dim, k * env_dim)
        for op in (obs, b_diag):
            res = float(np.linalg.norm(op.apply(cols) - cols, axis=0).max())
            worst_residual = max(worst_residual, res)
        # entropy in bits across the system:environment cut, one per draw
        probs = np.linalg.svd(proj.transpose(1, 0, 2), compute_uv=False) ** 2
        probs = np.where(probs > 1e-15, probs, 1.0)
        entropies.extend((-np.sum(probs * np.log2(probs), axis=1)).tolist())
        if unique:
            overlaps = np.tensordot(basis[:, 0].conj(), proj, axes=1)
            fidelities.extend(np.sum(np.abs(overlaps) ** 2, axis=1).tolist())
    min_fidelity = min(fidelities) if unique else None
    # a unit draw V alpha misses stabilization by at most ||(A - I) V||, and
    # that is at most sqrt(dim) times the worst basis state's limit
    tol = report.classification.tol
    if worst_residual > math.sqrt(dim_p) * stabilization_limit(tol):
        raise InternalConsistencyError(
            f"purification draw not stabilized: residual {worst_residual:.3e}"
        )
    max_entropy = max(entropies)
    if unique:
        if max_entropy > 1e-8:
            raise InternalConsistencyError(
                f"rank-1 projector produced entangled purification: "
                f"entropy {max_entropy:.3e}"
            )
        if min_fidelity < 1.0 - 1e-9:
            raise InternalConsistencyError(
                f"reduced state strays from the unique stabilized state: "
                f"fidelity {min_fidelity}"
            )
    return PurityReport(
        case=report.classification.case,
        projector_dim=dim_p,
        env_dim=env_dim,
        trials=trials,
        empty=False,
        max_entropy=max_entropy,
        entropies=tuple(entropies),
        stabilization_residual=worst_residual,
        reduced_state_fidelity=min_fidelity,
    )
