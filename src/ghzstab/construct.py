"""Construction of a uniquely-stabilizing observable pair for any GHZ state.

The canonical angle recipes give a unique vanishing sign pattern; the state
they stabilize is an even-parity superposition with one phase per party,
which is a local-unitary image of the GHZ state. Conjugating the pair by
local unitaries then reaches every GHZ-class target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import Angle, DirectionList
from .bitstrings import even_indices
from .classify import classify
from .errors import DomainError, InternalConsistencyError, PreconditionError
from .linalg import StateVector, apply_locals, check_dense
from .observables import SIGMA_Z, ProductObservable, product_observable

HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)


def canonical_angles(n: int) -> DirectionList:
    """Exact angle recipe with a single vanishing sign pattern (the zero
    string): all thetas 2pi/n for odd n; theta_1 = 4pi/(n+1) and the rest
    2pi/(n+1) for even n. All phis zero."""
    if n < 2:
        raise DomainError(f"need at least 2 parties, got {n}")
    if n % 2 == 1:
        thetas = [Angle.exact(2, n)] * n
    else:
        thetas = [Angle.exact(4, n + 1)] + [Angle.exact(2, n + 1)] * (n - 1)
    return DirectionList.of(thetas)


def pattern_phases(d: DirectionList, bits) -> np.ndarray:
    """phase_l = i (-1)^{m_l} e^{i phi_l} for the pattern index m (party l
    at bit n - l), or for each of an array of them, as an (n,) + shape(bits)
    array: party l's basis {|0>, phase_l |1>} is the local frame of pattern
    m's state."""
    n = d.n_parties
    shifts = np.arange(n - 1, -1, -1).reshape((n,) + (1,) * np.ndim(bits))
    signs = 1 - 2 * ((np.asarray(bits) >> shifts) & 1)
    phis = np.array(d.phi_radians()).reshape(shifts.shape)
    return 1j * signs * (np.cos(phis) + 1j * np.sin(phis))


def ghz_states(d: DirectionList, bits: np.ndarray) -> np.ndarray:
    """(2^n, k) array whose column c is the even-parity superposition with
    amplitude at index j the product of pattern_phases(d, bits[c]) over the
    set bits of j, normalized.

    For a vanishing pattern this is the GHZ-class state stabilized by the
    direction list together with the all-Z observable.
    """
    n = d.n_parties
    phases = pattern_phases(d, bits)
    s0 = even_indices(n)
    amps = np.zeros((1 << n, bits.size), dtype=np.complex128)
    vals = np.ones((s0.size, bits.size), dtype=np.complex128)
    for l in range(n):
        bit = ((s0 >> (n - 1 - l)) & 1)[:, None]
        vals = vals * np.where(bit == 1, phases[l], 1.0)
    amps[s0] = vals / math.sqrt(s0.size)
    return amps


def ghz_from_pattern(d: DirectionList, m: int) -> StateVector:
    """The state of ghz_states for the one pattern index m, which needs
    m_1 = 0."""
    n = d.n_parties
    if not 0 <= m < 1 << n:
        raise DomainError(f"pattern {m} out of range for n_parties={n}")
    if m >> (n - 1):
        raise PreconditionError("pattern must have m_1 = 0")
    return StateVector(n, ghz_states(d, np.array([m]))[:, 0])


@dataclass(frozen=True)
class GHZSpec:
    """A GHZ-class state given as local unitaries, one (n, 2, 2) array,
    applied to the canonical (|0..0> + |1..1>)/sqrt(2)."""

    n: int
    local_unitaries: np.ndarray

    def __post_init__(self):
        u = self.local_unitaries
        if self.n < 2:
            raise DomainError(f"need at least 2 parties, got {self.n}")
        if len(u) != self.n:
            raise DomainError(f"expected {self.n} local unitaries, got {len(u)}")
        if u.shape[1:] != (2, 2):
            raise DomainError("local unitaries must be 2x2")
        if not np.isfinite(u).all():  # checked first: inf warns in the product
            raise DomainError("matrix is not unitary (non-finite entry)")
        defect = np.max(np.abs(u @ u.conj().transpose(0, 2, 1) - np.eye(2)))
        if not defect <= 1e-12:  # an overflow to NaN fails this too
            raise DomainError(f"matrix is not unitary (defect {defect:.3e})")

    @classmethod
    def identity(cls, n: int) -> "GHZSpec":
        eye = np.eye(2, dtype=np.complex128)
        return cls(n=n, local_unitaries=np.tile(eye, (max(n, 0), 1, 1)))

    @classmethod
    def from_matrices(cls, mats) -> "GHZSpec":
        mats = [np.asarray(m, dtype=np.complex128) for m in mats]
        if any(m.shape != (2, 2) for m in mats):
            raise DomainError("local unitaries must be 2x2")
        return cls(n=len(mats), local_unitaries=np.array(mats).reshape(-1, 2, 2))

    @classmethod
    def random(cls, n: int, rng) -> "GHZSpec":
        """Haar-random local unitaries via QR of complex Gaussians."""
        mats = []
        for _ in range(n):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(g)
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            mats.append(q)
        return cls.from_matrices(mats)

    def to_state(self) -> StateVector:
        ghz = StateVector.ghz(self.n)
        return StateVector(self.n, apply_locals(self.local_unitaries, ghz.amplitudes))


@dataclass(frozen=True)
class StabilizingPair:
    a: ProductObservable
    b: ProductObservable
    target: StateVector
    directions: DirectionList
    residual: float


def stabilizing_pair_for(spec: GHZSpec) -> StabilizingPair:
    """Two product observables whose only common +1 eigenstate is the given
    GHZ state.

    Starts from the canonical angle recipe (unique pattern = the zero
    string), aligns the stabilized state's local frame to the canonical GHZ
    frame, and conjugates both observables by the target's local unitaries
    composed with that frame map. The pair's common +1 eigenspace is that
    map's image of the canonical one, so by the theorem it is one state
    exactly when classify finds only the zero string; both observables are
    also checked on the target matrix-free.
    """
    n = spec.n
    check_dense(n)
    d = canonical_angles(n)
    phases = pattern_phases(d, 0)
    target = spec.to_state()
    # party l's frame is diag(1, phase_l) @ HADAMARD
    frames = np.stack([np.broadcast_to(HADAMARD[0], (n, 2)),
                       phases[:, None] * HADAMARD[1]], axis=1)
    v = spec.local_unitaries @ frames.conj().transpose(0, 2, 1)
    v_h = v.conj().transpose(0, 2, 1)
    a = ProductObservable(v @ product_observable(d).mats @ v_h)
    b = ProductObservable(v @ SIGMA_Z @ v_h)
    res_a = float(np.linalg.norm(a.apply(target.amplitudes) - target.amplitudes))
    res_b = float(np.linalg.norm(b.apply(target.amplitudes) - target.amplitudes))
    residual = max(res_a, res_b)
    bits = classify(d).patterns.bits
    if bits.tolist() != [0]:
        raise InternalConsistencyError(
            f"canonical angles for n={n} vanish on patterns {bits[:4].tolist()} "
            f"({bits.size} in all), expected only the zero string [0]"
        )
    if residual > 1e-9:
        raise InternalConsistencyError(
            f"constructed pair misses its target: residual {residual:.3e}"
        )
    return StabilizingPair(a=a, b=b, target=target, directions=d, residual=residual)
