"""Product spin observables (product_observable builds each party's 2x2
factor from its angles), and the brute-force common-eigenspace oracle."""

from __future__ import annotations

import math

import numpy as np

from .angles import Angle, DirectionList
from .bitstrings import parity_of
from .errors import DomainError, ShapeError
from .linalg import DEFAULT_TOL, apply_locals, check_dense

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)


def _spin_rows(theta: Angle, phi: Angle) -> list:
    """The spin observable along (sin t cos p, sin t sin p, cos t) as two rows
    of Python numbers.

    The matrix is [[cos t, e^{-ip} sin t], [e^{ip} sin t, -cos t]]: Hermitian,
    traceless, and squares to the identity for any angles.
    """
    t = theta.to_radians()
    p = phi.to_radians()
    c, s = math.cos(t), math.sin(t)
    e = complex(math.cos(p), math.sin(p))
    return [[c, s * e.conjugate()], [s * e, -c]]


class ProductObservable:
    """Tensor product of 2x2 Hermitian involutions, one per party, held as
    the (n, 2, 2) array `mats` (party 1 first). apply works matrix-free at
    any size; the class never builds the 2^n x 2^n operator.
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

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """Matrix-free application to an amplitude vector, or to each column
        of a (2^n, k) array."""
        return apply_locals(self.mats, amps)


def product_observable(d: DirectionList) -> ProductObservable:
    """Tensor product of the per-party spin observables of d, whose factors
    become one array in a single conversion."""
    return ProductObservable(list(map(_spin_rows, d.thetas, d.phis)))


def sigma_z_product(n: int) -> ProductObservable:
    """sigma_Z on every party: diagonal, entry (-1)^{parity of index}."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return ProductObservable([SIGMA_Z] * n)


def brute_force_eigenspace(
    a: ProductObservable, b: ProductObservable, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Oracle: the common eigenspaces of A and B in the four sign sectors
    (+,+), (+,-), (-,+), (-,-) (A's sign first), each an orthonormal
    (2^n, k) array, from one SVD.

    Each local factor of B is an involution, so its 2x2 eigenbasis F_l (+1
    eigenvector first) makes B' = F^H B F diagonal with entries +-1, and
    A' = F^H A F is still a product of 2x2 factors. Each factor is Hermitian,
    and the diagonal phase diag(1, e^{-i arg beta_l}) on F_l's second vector
    (beta_l the factor's off-diagonal entry) makes it real while B' stays
    diagonal, so everything below runs in float64 up to the final map back
    through the frames. Taking the real part drops only the factors'
    anti-Hermitian part, at most the 1e-12 that ProductObservable's
    Hermitian check admits. Split the indices into P (B' = +1) and M
    (B' = -1). Two involutions split the space into invariant blocks of
    dimension at most 2 (Jordan's lemma). On a 2-dimensional block, A' acts
    on its P and M vectors p and m as [[cos S, sin S], [sin S, -cos S]] up
    to a sign, so the block of A' mapping P into M, C = A'[M, P], has
    singular value |sin S| there, with right singular vector p and left
    singular vector m. A 1-dimensional block is a vector of P or M that A'
    fixes up to sign, and C or C^T sends it to 0.

    In sector (+,+) a block counts when |sin(S/2)| <= tol, classify's rule
    for a product spin observable and the all-Z one (S/2 is the angle
    between p and A's +1 eigenvector); in (-,+) when |cos(S/2)| <= tol.
    |sin S| = 2 |sin(S/2)| |cos(S/2)| grows with the smaller of the two
    factors while that is below 1/sqrt(2), so for tol < 1/sqrt(2) a block
    meets one of the two rules exactly when |sin S| <= 2 tol sqrt(1 - tol^2),
    the cut. The right singular vectors at or below the cut span P's side of
    those blocks and the left ones M's side. Each side splits by the
    eigenvalues lambda of its compression of A' (cos S on P's side, -cos S
    on M's): the + sector takes lambda > 0 or (1 - lambda)/2 <= tol^2, the
    - sector lambda < 0 or (1 + lambda)/2 <= tol^2. The cut resolves sin S
    to float precision near 0 and pi, where (1 -+ lambda)/2 cannot. From
    tol = 1/sqrt(2) on, every vector is kept, the lambda rule alone
    decides, and a block may count in two sectors, as in classify. No sign
    pattern enters the computation.
    """
    n = b.n_parties
    if a.n_parties != n:
        raise ShapeError(f"party counts differ: {a.n_parties} vs {n}")
    check_dense(n)  # A' applied to the P columns is 2^n x |P|
    values, frames = np.linalg.eigh(b.mats)
    values, frames = values[:, ::-1], frames[:, :, ::-1]  # +1 eigenvector first
    rotated = frames.conj().transpose(0, 2, 1) @ a.mats @ frames
    # e^{-i arg beta} on each frame's second vector turns beta into |beta|
    # and its conjugate below the diagonal too; np.angle(0) is 0, and
    # nothing divides by |beta|
    phase = np.exp(-1j * np.angle(rotated[:, 0, 1]))
    frames[:, :, 1] *= phase[:, None]
    rotated[:, 0, 1] *= phase
    rotated[:, 1, 0] *= phase.conj()
    rotated = rotated.real
    # B' at index j is the product of values[l, bit l of j], so its sign
    # flips with each set bit of a party whose two eigenvalues differ
    neg = values < 0
    mask = sum(1 << (n - 1 - l) for l in np.flatnonzero(neg[:, 0] != neg[:, 1]))
    odd = parity_of(np.arange(b.dim) & mask) ^ (np.count_nonzero(neg[:, 0]) & 1)
    p_idx, m_idx = np.flatnonzero(odd == 0), np.flatnonzero(odd)
    cols = np.zeros((b.dim, p_idx.size))
    cols[p_idx, np.arange(p_idx.size)] = 1.0
    c = apply_locals(rotated, cols)[m_idx]
    del cols  # 2^n x |P|, as large as U and Vh together: free it before the SVD
    u, s, vh = np.linalg.svd(c, full_matrices=True)
    # at tol >= 1/sqrt(2) the cut would be 1, the largest sigma, and float
    # noise must not drop a block there
    cut = 2.0 * tol * math.sqrt(1.0 - tol * tol) if tol < math.sqrt(0.5) else math.inf
    sides = []  # the kept vectors of P and of M, embedded in 2^n rows
    for idx, vecs in ((p_idx, vh.T), (m_idx, u)):
        keep = np.ones(idx.size, dtype=bool)  # vectors past s have sigma 0
        keep[: s.size] = s <= cut
        side = np.zeros((b.dim, np.count_nonzero(keep)))
        side[idx] = vecs[:, keep]
        sides.append(side)
    images = apply_locals(rotated, np.hstack(sides))
    plus, minus = [], []
    for side, image in zip(sides, np.split(images, [sides[0].shape[1]], axis=1)):
        lam, vecs = np.linalg.eigh(side.T @ image)
        lam = np.clip(lam, -1.0, 1.0)
        side = side @ vecs
        plus.append(side[:, (lam > 0) | ((1.0 - lam) / 2.0 <= tol * tol)])
        minus.append(side[:, (lam < 0) | ((1.0 + lam) / 2.0 <= tol * tol)])
    parts = plus + minus  # (+,+), (+,-), (-,+), (-,-)
    bases = apply_locals(frames, np.hstack(parts))
    bounds = np.cumsum([part.shape[1] for part in parts])[:-1]
    return tuple(np.ascontiguousarray(x) for x in np.split(bases, bounds, axis=1))
