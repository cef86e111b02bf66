"""Product spin observables (product_observable builds each party's 2x2
factor from its angles), and the brute-force common-eigenspace oracle."""

from __future__ import annotations

import math

import numpy as np

from .angles import Angle, DirectionList
from .bitstrings import parity_of
from .errors import DomainError, InternalConsistencyError, ShapeError
from .linalg import DEFAULT_TOL, apply_locals, check_dense

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)
# the sign sectors (sA, sB), in the order every four-sector result takes
SECTORS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


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
    (2^n, k) array, from one symmetric eigensolve of the flipped block.

    B's local factors are involutions, so their 2x2 eigenbases F_l (+1
    eigenvector first) make B' = F^H B F diagonal with entries +-1, and
    A' = F^H A F a product of 2x2 factors, real once a phase multiplies each
    F_l's second vector (dropping at most the 1e-12 anti-Hermitian part that
    ProductObservable admits), so all below is float64 up to the map back
    through the frames. Split the indices into P (B' = +1) and M (B' = -1).
    By Jordan's lemma the two involutions split the space into invariant
    blocks of dimension at most 2. On a 2-dimensional block A' acts on its P
    and M vectors p and m as +-[[cos S, sin S], [sin S, -cos S]], so
    C = A'[M, P] has singular value |sin S| with singular vectors p and m;
    C or C^T sends a 1-dimensional block to 0.

    Let K be J = [[0, -1], [1, 0]] on a party l whose B' factor is not
    scalar, so that K swaps P and M. J R J^T = -R for every real traceless
    symmetric R, so when A'_l is traceless K anticommutes with A' and B',
    D = K[M, P]^T C is symmetric, and its eigenpairs (lambda, v) give C's
    singular values |lambda| and singular vectors v and K v. If no such
    A'_l is traceless, A' commutes with B' and C = 0.

    A block counts in (+,+) when |sin(S/2)| <= tol, classify's rule (S/2 is
    the angle between p and A's +1 eigenvector), and in (-,+) when
    |cos(S/2)| <= tol. For tol < 1/sqrt(2) either holds exactly when
    |sin S| = 2 |sin(S/2) cos(S/2)| <= 2 tol sqrt(1 - tol^2), the cut, which
    resolves sin S to float precision near 0 and pi. The v within it split
    by the eigenvalues lambda of their compression of A' (cos S): + takes
    lambda > 0 or (1 - lambda)/2 <= tol^2, - lambda < 0 or
    (1 + lambda)/2 <= tol^2. D's eigensolve mixes into a kept v the p of a
    dropped block with small |sin S| by about 1e-16 / |sin S|, though that
    block's lambda may have the other sign, as when A' and B' nearly commute.
    So below 1/sqrt(2) each kept v takes one step
    v <- (v + s A'[P, P] v) / (1 + s lambda), s the sign it counts in: an
    exact v stays, and a block of the other sign shrinks by sin^2(S/2) or
    cos^2(S/2). As K^T A' K = -A' (A' when they commute),
    (+,-) and (-,-) are K times (-,+) and (+,+) (or (+,+) and (-,+)). All
    is kept when B is scalar or tol >= 1/sqrt(2); then the lambda rule alone
    decides, and a block may count in two sectors, as in classify. One
    apply_locals maps v and K v back. No sign pattern enters the computation.
    """
    n = b.n_parties
    if a.n_parties != n:
        raise ShapeError(f"party counts differ: {a.n_parties} vs {n}")
    check_dense(n)  # A' applied to one side's columns is 2^n x 2^(n-1)
    values, frames = np.linalg.eigh(b.mats)
    values, frames = values[:, ::-1], frames[:, :, ::-1]  # +1 eigenvector first
    rotated = frames.conj().transpose(0, 2, 1) @ a.mats @ frames
    # e^{-i arg beta} on each frame's second vector turns beta and its mirror
    # entry into |beta|, with no division (np.angle(0) is 0)
    frames[:, :, 1] *= np.exp(-1j * np.angle(rotated[:, 0, 1]))[:, None]
    rotated = (frames.conj().transpose(0, 2, 1) @ a.mats @ frames).real
    # B' at index j is the product of values[l, bit l of j], so its sign
    # flips with each set bit of a party whose two eigenvalues differ
    neg = values < 0
    flips = np.flatnonzero(neg[:, 0] != neg[:, 1])
    mask = sum(1 << (n - 1 - l) for l in flips)
    odd = parity_of(np.arange(b.dim) & mask) ^ (np.count_nonzero(neg[:, 0]) & 1)
    side = np.flatnonzero(odd == odd.min())  # P, or M when B = -I leaves P empty
    block = apply_locals(rotated, (np.arange(b.dim)[:, None] == side) * 1.0)
    whole = compressed = block[side]  # A'[side, side]; a scalar B keeps it whole
    if flips.size:
        # an admitted A'_l has trace within 2e-10 of 0 or of +-2
        traceless = np.abs(rotated[flips, 0, 0] + rotated[flips, 1, 1]) < 1.0
        bit = 1 << (n - 1 - flips[np.argmax(traceless)])
        sign = np.where(side & bit, -1.0, 1.0)
        flipped = sign[:, None] * block[side ^ bit]  # D
        # D - D^T: tr(A'_l) J times the rest, A'_l J times their asymmetry
        asymmetry = float(np.abs(flipped - flipped.T).max())
        if asymmetry > 2e-10 + 4e-12 * (n + 1):
            raise InternalConsistencyError(f"max|D - D^T| is {asymmetry:.3e}")
        lam, vecs = np.linalg.eigh(flipped)
        if tol < math.sqrt(0.5):  # past it float noise must not drop |lambda| ~ 1
            vecs = vecs[:, np.abs(lam) <= 2.0 * tol * math.sqrt(1.0 - tol * tol)]
        compressed = vecs.T @ whole @ vecs
    lam, rot = np.linalg.eigh(compressed)
    lam, vecs = np.clip(lam, -1.0, 1.0), vecs @ rot if flips.size else rot
    plus = np.flatnonzero((lam > 0) | ((1.0 - lam) / 2.0 <= tol * tol))
    minus = np.flatnonzero((lam < 0) | ((1.0 + lam) / 2.0 <= tol * tol))
    if flips.size and tol < math.sqrt(0.5):
        step = np.zeros(lam.size)  # plus and minus are disjoint below 1/sqrt(2)
        step[plus], step[minus] = 1.0, -1.0
        vecs = (vecs + (whole @ vecs) * step) / (1.0 + step * lam)
    sb = -1 if odd.min() else 1
    cols = {(1, sb): plus, (-1, sb): minus}
    k = lam.size  # the kept v, then their images K v when B flips
    kept = np.zeros((b.dim, 2 * k if flips.size else k))
    kept[side, :k] = vecs
    if flips.size:
        kept[side ^ bit, k:] = sign[:, None] * vecs
        sa = -1 if traceless.any() else 1  # K^T A' K = sa A'
        cols[sa, -1], cols[-sa, -1] = k + plus, k + minus
    bases = apply_locals(frames, kept)
    return tuple(np.take(bases, cols.get(s, plus[:0]), axis=1) for s in SECTORS)
