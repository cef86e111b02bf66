"""Local spin observables, their tensor products, the commuting stabilizer
generator set for the GHZ state, and the brute-force common-eigenspace
oracle."""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .angles import Angle, DirectionList
from .errors import DomainError, PreconditionError, ShapeError
from .linalg import (
    DEFAULT_TOL,
    Operator,
    StateVector,
    SubspaceBasis,
    apply_locals,
    kron_all,
    null_space,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)


def local_observable(theta: Angle, phi: Angle) -> Operator:
    """Spin observable along (sin t cos p, sin t sin p, cos t).

    The matrix is [[cos t, e^{-ip} sin t], [e^{ip} sin t, -cos t]]: Hermitian,
    traceless, and squares to the identity for any angles.
    """
    t = theta.to_radians()
    p = phi.to_radians()
    c, s = math.cos(t), math.sin(t)
    e = complex(math.cos(p), math.sin(p))
    return Operator.from_entries([[c, s * e.conjugate()], [s * e, -c]])


def spin_up_eigenvector(theta: Angle, phi: Angle) -> StateVector:
    """+1 eigenvector (cos(t/2), e^{ip} sin(t/2)) of local_observable(t, p)."""
    t = theta.to_radians() / 2.0
    p = phi.to_radians()
    e = complex(math.cos(p), math.sin(p))
    return StateVector.from_amplitudes([math.cos(t), e * math.sin(t)])


def spin_down_eigenvector(theta: Angle, phi: Angle) -> StateVector:
    """-1 eigenvector (-sin(t/2), e^{ip} cos(t/2)), orthogonal to spin up."""
    t = theta.to_radians() / 2.0
    p = phi.to_radians()
    e = complex(math.cos(p), math.sin(p))
    return StateVector.from_amplitudes([-math.sin(t), e * math.cos(t)])


class ProductObservable:
    """Tensor product of 2x2 Hermitian involutions, one per party.

    The full 2^n matrix is materialized lazily and cached, and only there
    does the dense size cap apply; apply works matrix-free at any size.
    """

    def __init__(self, locals_: list[Operator]):
        if not locals_:
            raise DomainError("a product observable needs at least one factor")
        for op in locals_:
            if op.dim != 2:
                raise DomainError("local factors must be 2x2")
            if not op.is_hermitian() or not op.is_involution():
                raise DomainError("local factors must be Hermitian involutions")
        self.locals = tuple(locals_)
        self.n_parties = len(locals_)

    @property
    def dim(self) -> int:
        return 1 << self.n_parties

    @cached_property
    def full(self) -> Operator:
        return kron_all(self.locals)

    def locals_array(self) -> np.ndarray:
        """(n, 2, 2) array of the local factors."""
        return np.stack([op.entries for op in self.locals])

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """Matrix-free application to an amplitude vector, or to each column
        of a (2^n, k) array."""
        return apply_locals(self.locals_array(), amps)


def product_observable(d: DirectionList) -> ProductObservable:
    """Tensor product of the per-party spin observables of d."""
    return ProductObservable(
        [local_observable(t, p) for t, p in zip(d.thetas, d.phis)]
    )


def sigma_z_product(n: int) -> ProductObservable:
    """sigma_Z on every party: diagonal, entry (-1)^{parity of index}."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return ProductObservable([Operator.from_entries(SIGMA_Z)] * n)


def brute_force_eigenspace(
    a: ProductObservable | np.ndarray,
    b: ProductObservable | np.ndarray,
    tol: float = DEFAULT_TOL,
) -> SubspaceBasis:
    """Oracle: null space of the stacked matrix [(A - I); (B - I)].

    For involutions A and B the space splits into blocks of dimension at
    most 2. On a 2-dimensional block the +1 eigenvectors of A and B meet at
    an angle beta, and the stacked matrix has singular values
    2 sqrt(2) sin(beta / 2) and 2 sqrt(2) cos(beta / 2) there. For a product
    spin observable and the all-Z one, 2 beta is the distance of a signed
    angle sum S from 2 pi Z, so cutting at 2 sqrt(2) sin(asin(tol) / 2)
    admits exactly the patterns with |sin(S / 2)| <= tol, classify's rule.
    """
    am = a.full.entries if isinstance(a, ProductObservable) else np.asarray(a)
    bm = b.full.entries if isinstance(b, ProductObservable) else np.asarray(b)
    if am.shape != bm.shape:
        raise ShapeError(f"operator shapes differ: {am.shape} vs {bm.shape}")
    eye = np.eye(am.shape[0])
    cut = 2.0 * math.sqrt(2.0) * math.sin(math.asin(min(tol, 1.0)) / 2.0)
    return null_space(np.vstack([am - eye, bm - eye]), cut)


def canonical_stabilizer_generators(n: int) -> list[ProductObservable]:
    """The n commuting Pauli strings with the GHZ state as unique +1 eigenstate.

    One all-X string plus the n-1 weight-two Z strings pairing party 1 with
    each other party.
    """
    if n < 2:
        raise DomainError(f"need at least 2 parties, got {n}")
    x = Operator.from_entries(SIGMA_X)
    z = Operator.from_entries(SIGMA_Z)
    eye = Operator.from_entries(IDENTITY_2)
    gens = [ProductObservable([x] * n)]
    for k in range(2, n + 1):
        locs = [eye] * n
        locs[0] = z
        locs[k - 1] = z
        gens.append(ProductObservable(locs))
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
    mats = [g.full.entries for g in generators]
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
