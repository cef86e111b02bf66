"""Local spin observables, their tensor products, the commuting stabilizer
generator set for the GHZ state, and the brute-force common-eigenspace
oracle."""

from __future__ import annotations

import math
from functools import cached_property, reduce

import numpy as np

from .angles import Angle, DirectionList
from .errors import DomainError, PreconditionError, ShapeError
from .linalg import (
    DEFAULT_TOL,
    apply_locals,
    check_dense,
    kron_all,
    null_space,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)


def local_observable(theta: Angle, phi: Angle) -> np.ndarray:
    """Spin observable along (sin t cos p, sin t sin p, cos t).

    The matrix is [[cos t, e^{-ip} sin t], [e^{ip} sin t, -cos t]]: Hermitian,
    traceless, and squares to the identity for any angles.
    """
    t = theta.to_radians()
    p = phi.to_radians()
    c, s = math.cos(t), math.sin(t)
    e = complex(math.cos(p), math.sin(p))
    return np.array([[c, s * e.conjugate()], [s * e, -c]], dtype=np.complex128)


def spin_frames(d: DirectionList) -> np.ndarray:
    """(n, 2, 2) array of per-party eigenframes of local_observable: party
    l's columns are the +1 eigenvector (cos(t/2), e^{ip} sin(t/2)) and the
    -1 eigenvector (-sin(t/2), e^{ip} cos(t/2))."""
    t = np.array(d.theta_radians()) / 2.0
    p = np.array(d.phi_radians())
    c, s = np.cos(t), np.sin(t)
    e = np.cos(p) + 1j * np.sin(p)
    rows = (np.stack([c, -s], axis=-1), np.stack([e * s, e * c], axis=-1))
    return np.stack(rows, axis=1)


class ProductObservable:
    """Tensor product of 2x2 Hermitian involutions, one per party, held as
    the (n, 2, 2) array `mats` (party 1 first).

    The full 2^n matrix is materialized lazily and cached, and only there
    does the dense size cap apply; apply works matrix-free at any size.
    """

    def __init__(self, mats):
        mats = np.array(mats, dtype=np.complex128)
        if mats.shape[:1] == (0,):
            raise DomainError("a product observable needs at least one factor")
        if mats.shape[1:] != (2, 2):
            raise DomainError("local factors must be 2x2")
        hermitian = np.max(np.abs(mats - mats.conj().transpose(0, 2, 1))) <= 1e-12
        involution = np.max(np.abs(mats @ mats - IDENTITY_2)) <= 1e-10
        if not (hermitian and involution):
            raise DomainError("local factors must be Hermitian involutions")
        self.mats = mats
        self.n_parties = len(mats)

    @property
    def dim(self) -> int:
        return 1 << self.n_parties

    @cached_property
    def full(self) -> np.ndarray:
        return kron_all(self.mats)

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """Matrix-free application to an amplitude vector, or to each column
        of a (2^n, k) array."""
        return apply_locals(self.mats, amps)


def product_observable(d: DirectionList) -> ProductObservable:
    """Tensor product of the per-party spin observables of d."""
    return ProductObservable(
        [local_observable(t, p) for t, p in zip(d.thetas, d.phis)]
    )


def sigma_z_product(n: int) -> ProductObservable:
    """sigma_Z on every party: diagonal, entry (-1)^{parity of index}."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return ProductObservable([SIGMA_Z] * n)


def brute_force_eigenspace(
    a: ProductObservable, b: ProductObservable, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Oracle: the +1 eigenvectors of A inside the +1 eigenspace of B, as an
    orthonormal (2^n, k) array.

    Each local factor of B is an involution, so its 2x2 eigenbasis (+1
    eigenvector first) gives B = U D U^H with U the product of the local
    frames and D diagonal with entries +-1. The +1 eigenspace of B is
    therefore spanned by Q, U applied to the identity columns where D is +1
    (the even-parity columns when every factor is traceless). The common
    eigenspace is Q times the null space of (A - I) Q, taken matrix-free.

    For involutions A and B the space splits into blocks of dimension at
    most 2. On a 2-dimensional block the +1 eigenvectors of A and B meet at
    an angle beta, and (A - I) maps the +1 eigenvector of B to a vector of
    norm 2 sin(beta). For a product spin observable and the all-Z one,
    2 beta is the distance of a signed angle sum S from 2 pi Z, so cutting
    at 2 tol admits exactly the patterns with |sin(S / 2)| <= tol,
    classify's rule. No sign pattern enters the computation.
    """
    n = b.n_parties
    if a.n_parties != n:
        raise ShapeError(f"party counts differ: {a.n_parties} vs {n}")
    check_dense(n)  # Q is 2^n x 2^(n-1)
    values, frames = np.linalg.eigh(b.mats)
    values, frames = values[:, ::-1], frames[:, :, ::-1]  # +1 eigenvector first
    signs = reduce(np.kron, np.sign(values))
    cols = np.flatnonzero(signs > 0)
    q = np.zeros((b.dim, cols.size), dtype=np.complex128)
    q[cols, np.arange(cols.size)] = 1.0
    q = apply_locals(frames, q)
    return q @ null_space(a.apply(q) - q, 2.0 * min(tol, 1.0))


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
    mats = [g.full for g in generators]
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
