"""Dense complex linear algebra on 2^n-dimensional Hilbert space.

State vectors (a validated (n_qubits, amplitudes) pair, plus the GHZ
state), tensor products of square factors, matrix-free products of local
factors and subspace comparison, in double precision. The size table lives
here: MAX_PARTIES bounds 2^n-amplitude vectors and MAX_DENSE_PARTIES bounds
2^n x 2^n matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, ShapeError, SizeError, shown

MAX_PARTIES = 24
MAX_DENSE_PARTIES = 12
DEFAULT_TOL = 1e-9


def check_dense(n_parties: int) -> None:
    """Raise SizeError when 2^n x 2^n dense storage exceeds the cap."""
    if n_parties > MAX_DENSE_PARTIES:
        raise SizeError(
            f"{shown(n_parties)} parties exceed the dense cap of {MAX_DENSE_PARTIES}"
        )


def _check_power_of_two(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ShapeError(f"dimension {dim} is not a power of two")
    return n


@dataclass(frozen=True)
class StateVector:
    """A pure state of n_qubits qubits; party 1 owns the most significant bit."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.ndim != 1 or self.amplitudes.size != (1 << self.n_qubits):
            raise ShapeError(
                f"amplitudes must have length 2^{self.n_qubits}, "
                f"got {self.amplitudes.shape}"
            )

    @classmethod
    def ghz(cls, n_qubits: int) -> "StateVector":
        """(|0..0> + |1..1>) / sqrt(2)."""
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
        return cls(n_qubits=n_qubits, amplitudes=amps)


def kron_all(mats) -> np.ndarray:
    """Tensor product of square factors; the first factor owns the most
    significant index block."""
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    if not mats:
        raise DomainError("kron_all needs at least one factor")
    check_dense(sum(_check_power_of_two(m.shape[0]) for m in mats))  # before any product
    return reduce(np.kron, mats)


def subspace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral-norm distance between the orthogonal projectors onto the
    column spans of two orthonormal (dim, k) bases.

    For equal counts this is the sine of the largest principal angle,
    ||R||_2 = sqrt(lambda_max(R^H R)) for R = b - a (a^H b): the residual's
    k x k Gram keeps precision near 0, where the cosine form
    sqrt(1 - sigma_min^2) loses it to sqrt(eps). Ranks that differ give 1.
    """
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"ambient dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[1] != b.shape[1]:
        return 1.0
    if a.shape[1] == 0:
        return 0.0
    r = b - a @ (a.conj().T @ b)
    return float(np.sqrt(max(np.linalg.eigvalsh(r.conj().T @ r)[-1], 0.0)))


def apply_locals(mats: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Apply the tensor product of n 2x2 matrices to a 2^n amplitude vector,
    or to each column of a (2^n, k) array, without materializing the
    2^n x 2^n operator.

    Party l's factor acts on the middle axis of the (2^l, 2, R) view, as one
    batched GEMM whose long side is the larger of R and 2^l (the shuffle
    product of Fernandes, Plateau and Stewart, J. ACM 45(3), 1998).
    """
    n = mats.shape[0]
    if amps.shape[0] != 1 << n:
        raise ShapeError(
            f"{n} local factors need 2^{n} amplitudes, got {amps.shape[0]}"
        )
    t = amps
    for l in range(n):
        rest = amps.size >> (l + 1)
        v = t.reshape(1 << l, 2, rest)
        if rest >= 1 << l:
            t = mats[l] @ v
        else:
            t = (v.transpose(2, 0, 1) @ mats[l].T).transpose(1, 2, 0)
    return np.ascontiguousarray(t.reshape(amps.shape))
