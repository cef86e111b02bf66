"""Dense and per-pattern references that only the tests call.

- the Pauli matrices SIGMA_X and SIGMA_Y (SIGMA_Z is the package's);
- a rank-revealing null space, and the common eigenspace as the null space
  of a stacked matrix (the oracle tests);
- the signed angle sum and vanishing condition of one sign pattern (the
  enumeration tests);
- the spin eigenframes, the joint-outcome Born probabilities computed
  directly and by party-by-party collapse, and a certification run that
  applies sigma_z_product(n) for <Z^N> (the certification tests);
- the commuting stabilizer generators of the GHZ state and the dimension of
  their common +1 eigenspace (acceptance criterion 6);
- the fidelity of two pure states;
- the amplitudes of a state file, parsed record by record, and the angle
  schema of an observable's factors, read party by party (the CLI tests).

Dense operators are built with ghzstab.linalg.kron_all, which keeps the
dense size cap.
"""

from __future__ import annotations

import math

import numpy as np

from ghzstab.angles import Angle, DirectionList
from ghzstab.certify import (
    CertificationConfig,
    CertReport,
    Ensemble,
    expectation,
)
from ghzstab.cli import angle_schema
from ghzstab.errors import DomainError, PreconditionError, ShapeError
from ghzstab.linalg import DEFAULT_TOL, StateVector, apply_locals, kron_all
from ghzstab.observables import (
    IDENTITY_2,
    SIGMA_Z,
    ProductObservable,
    product_observable,
    sigma_z_product,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)


def null_space(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical null space of a matrix, square or
    rectangular, as the columns of a complex (cols, k) array.

    Singular values at or below tol count as zero.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ShapeError(f"null_space needs a matrix, got shape {arr.shape}")
    rows, cols = arr.shape
    if rows > cols:
        # R of a QR has the singular values and right singular vectors of a
        # tall input, and its SVD builds no U as large as the input
        arr = np.linalg.qr(arr, mode="r")
    # a square input has all cols right singular vectors in the thin SVD
    _, s, vh = np.linalg.svd(arr, full_matrices=rows < cols)
    rank = int(np.sum(s > tol))
    return np.ascontiguousarray(vh[rank:].conj().T)


def stacked_reference(a_full, b_full, tol=1e-9):
    """The common +1 eigenspace of two dense involutions as the null space
    of [(A - I); (B - I)], whose near-null singular value on a 2-dimensional
    block is 2 sqrt(2) |sin(S / 4)|; the cut admits |sin(S/2)| <= tol."""
    eye = np.eye(a_full.shape[0])
    cut = 2.0 * math.sqrt(2.0) * math.sin(math.asin(min(tol, 1.0)) / 2.0)
    return null_space(np.vstack([a_full - eye, b_full - eye]), cut)


def parse_state_records(data: dict) -> np.ndarray:
    """The normalized amplitudes of a valid state file, stored record by
    record as complex(re, im), with the scaling of cli.parse_state_file."""
    vec = np.zeros(1 << data["n"], dtype=np.complex128)
    for rec in data["amplitudes"]:
        re, im = rec.get("re", 0.0), rec.get("im", 0.0)
        vec[rec["index"]] = complex(float(re), float(im))
    parts = vec.view(np.float64)
    parts /= np.abs(parts).max()
    return vec / np.linalg.norm(vec)


def scalar_bloch_schema(obs: ProductObservable) -> dict:
    """The angle schema of the radian (theta, phi) of each local factor's
    Bloch vector, read party by party with scalar numpy calls; phi is 0.0
    within 1e-14 of the z axis."""
    thetas, phis = [], []
    for m in obs.mats:
        vz = float(m[0, 0].real)
        vx = float(m[1, 0].real)
        vy = float(m[1, 0].imag)
        theta = float(np.arctan2(np.hypot(vx, vy), vz))
        phi = float(np.arctan2(vy, vx)) if np.hypot(vx, vy) > 1e-14 else 0.0
        thetas.append(Angle.radians(theta))
        phis.append(Angle.radians(phi))
    return angle_schema(DirectionList.of(thetas, phis))


def signed_angle_sum(d: DirectionList, m: int) -> Angle:
    """sum_l (-1)^{m_l} theta_l for the pattern index m, party l at bit
    n - l; exact whenever every theta is exact."""
    n = d.n_parties
    if not 0 <= m < 1 << n:
        raise DomainError(f"pattern {m} out of range for n_parties={n}")
    total = None
    for l, theta in enumerate(d.thetas):
        term = -theta if (m >> (n - 1 - l)) & 1 else theta
        total = term if total is None else total + term
    return total


def pattern_condition(d: DirectionList, m: int, tol: float = DEFAULT_TOL) -> bool:
    """Whether sin(signed sum / 2) vanishes for pattern m (no m_1 filter)."""
    s = signed_angle_sum(d, m)
    if s.is_exact:
        frac = s.pi_multiple
        return frac.denominator == 1 and frac.numerator % 2 == 0
    return abs(math.sin(s.to_radians() / 2.0)) <= tol


def spin_frames(d: DirectionList) -> np.ndarray:
    """(n, 2, 2) array of per-party eigenframes of product_observable(d)'s
    factors: party l's columns are the +1 eigenvector (cos(t/2), e^{ip}
    sin(t/2)) and the -1 eigenvector (-sin(t/2), e^{ip} cos(t/2))."""
    t = np.array(d.theta_radians()) / 2.0
    p = np.array(d.phi_radians())
    c, s = np.cos(t), np.sin(t)
    e = np.cos(p) + 1j * np.sin(p)
    rows = (np.stack([c, -s], axis=-1), np.stack([e * s, e * c], axis=-1))
    return np.stack(rows, axis=1)


def joint_outcome_probabilities(state: StateVector, d: DirectionList) -> np.ndarray:
    """Born probabilities of all 2^n joint outcomes (bit 0 = +1 outcome),
    computed directly from the product-basis overlap."""
    frames_h = spin_frames(d).conj().transpose(0, 2, 1)
    return np.abs(apply_locals(frames_h, state.amplitudes)) ** 2


def sequential_outcome_probabilities(
    state: StateVector, d: DirectionList
) -> np.ndarray:
    """Joint outcome probabilities accumulated through the sequential
    collapse chain rule; must match the direct Born probabilities."""
    n = d.n_parties
    if state.n_qubits != n:
        raise ShapeError(f"state has {state.n_qubits} qubits, directions {n}")
    frames = spin_frames(d)
    probs = np.zeros(1 << n)

    def walk(amps, norm_sq, l, prefix):
        if norm_sq < 1e-30:
            return
        if l == n:
            probs[prefix] = norm_sq
            return
        resh = amps.reshape(-1, 2, 1 << (n - 1 - l))
        for bit in (0, 1):
            basis = frames[l, :, bit]
            c = basis[0].conj() * resh[:, 0] + basis[1].conj() * resh[:, 1]
            p = float(np.sum(np.abs(c) ** 2))
            if p < 1e-30:
                continue
            new = basis[:, None] * (c / math.sqrt(p))[:, None, :]
            walk(new.reshape(-1), norm_sq * p, l + 1, (prefix << 1) | bit)

    walk(state.amplitudes, 1.0, 0, 0)
    return probs


def certification_by_two_applies(
    state: StateVector | Ensemble,
    d: DirectionList,
    cfg: CertificationConfig = CertificationConfig(),
) -> CertReport:
    """run_certification's report, with <Z^N> of each component taken as a
    second matrix-free apply, of sigma_z_product(n)."""
    n = d.n_parties
    if isinstance(state, StateVector):
        state = Ensemble(states=(state,), weights=(1.0,))
    rng = np.random.default_rng(cfg.seed)
    k = len(state.states)
    if state.sampling == "cycle":
        rounds = cfg.shots // k + (np.arange(k) < cfg.shots % k)
    else:
        weights = np.asarray(state.weights)
        rounds = rng.multinomial(cfg.shots, weights / weights.sum())
    rounds_a = rng.binomial(rounds, cfg.a_fraction)

    def stats(counts, obs):
        e = np.array([expectation(s, obs) for s in state.states])
        p_plus = np.clip((1.0 + e) / 2.0, 0.0, 1.0)
        plus = int(rng.binomial(counts, p_plus).sum())
        count = int(counts.sum())
        if count == 0:
            return count, math.nan, math.nan
        mean = (2 * plus - count) / count
        if count == 1:
            return count, mean, math.nan
        return count, mean, math.sqrt((1.0 - mean * mean) / (count - 1))

    count_a, mean_a, stderr_a = stats(rounds_a, product_observable(d))
    count_b, mean_b, stderr_b = stats(rounds - rounds_a, sigma_z_product(n))
    passed = (
        count_a > 0
        and count_b > 0
        and mean_a >= cfg.pass_threshold
        and mean_b >= cfg.pass_threshold
    )
    return CertReport(
        mean_a=mean_a,
        mean_b=mean_b,
        count_a=count_a,
        count_b=count_b,
        stderr_a=stderr_a,
        stderr_b=stderr_b,
        passed=passed,
        shots=cfg.shots,
    )


def canonical_stabilizer_generators(n: int) -> list[ProductObservable]:
    """The n commuting Pauli strings with the GHZ state as unique +1 eigenstate.

    One all-X string plus the n-1 weight-two Z strings pairing party 1 with
    each other party.
    """
    if n < 2:
        raise DomainError(f"need at least 2 parties, got {n}")
    gens = [ProductObservable([SIGMA_X] * n)]
    for k in range(2, n + 1):
        mats = np.array([IDENTITY_2] * n)
        mats[[0, k - 1]] = SIGMA_Z
        gens.append(ProductObservable(mats))
    return gens


def stabilizer_dimension(
    generators: list[ProductObservable], n: int | None = None
) -> int:
    """Dimension of the common +1 eigenspace of commuting involutions,
    computed as tr(prod (I + P_i) / 2^k)."""
    if not generators:
        if n is None:
            raise DomainError("n required when the generator list is empty")
        return 1 << n
    dim = generators[0].dim
    mats = [kron_all(g.mats) for g in generators]
    for i, a in enumerate(mats):
        if a.shape[0] != dim:
            raise PreconditionError("generators act on different party counts")
        for b in mats[i + 1:]:
            if np.max(np.abs(a @ b - b @ a)) > 1e-10:
                raise PreconditionError("generators do not commute")
    acc = np.eye(dim, dtype=np.complex128)
    for a in mats:
        acc = acc @ ((np.eye(dim) + a) / 2.0)
    return int(round(float(np.trace(acc).real)))


def fidelity(u: StateVector, v: StateVector) -> float:
    """|<u|v>| for normalized states."""
    a, b = u.amplitudes.size, v.amplitudes.size
    if a != b:
        raise ShapeError(f"dimension mismatch: {a} vs {b}")
    return float(abs(np.vdot(u.amplitudes, v.amplitudes)))
