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
from .bitstrings import BitString, parity_classes
from .errors import (
    DomainError,
    InternalConsistencyError,
    PreconditionError,
    SizeError,
)
from .linalg import DEFAULT_TOL, MAX_DIM, Operator, StateVector, apply_locals
from .observables import (
    ProductObservable,
    brute_force_eigenspace,
    local_observable,
)

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


def bitstring_phase(j: BitString, phis) -> complex:
    """Product of (i e^{i phi_l}) over the set bits of j; unit modulus."""
    phase = 1.0 + 0.0j
    for l in range(1, j.n + 1):
        if j.bit(l):
            p = phis[l - 1].to_radians()
            phase *= 1j * complex(math.cos(p), math.sin(p))
    return phase


@dataclass(frozen=True)
class LocalPhaseBasis:
    """Per-party basis {|0>, phase_l |1>} with phase_l = i (-1)^{m_l} e^{i phi_l}."""

    n: int
    phases: tuple[complex, ...]

    def frame_unitary(self, party: int) -> np.ndarray:
        """diag(1, phase) for the given party (1-based)."""
        return np.diag([1.0, self.phases[party - 1]]).astype(np.complex128)


def local_phase_basis(d: DirectionList, m: BitString) -> LocalPhaseBasis:
    phases = []
    for l in range(1, d.n_parties + 1):
        p = d.phis[l - 1].to_radians()
        phases.append(1j * (-1) ** m.bit(l) * complex(math.cos(p), math.sin(p)))
    return LocalPhaseBasis(n=d.n_parties, phases=tuple(phases))


def ghz_from_pattern(d: DirectionList, m: BitString) -> StateVector:
    """The even-parity superposition whose amplitude at index j is the
    product of i (-1)^{m_l} e^{i phi_l} over the set bits of j, normalized.

    For a vanishing pattern m this is the GHZ-class state stabilized by the
    direction list together with the all-Z observable.
    """
    if m.n != d.n_parties:
        raise PreconditionError(f"pattern length {m.n} != n_parties {d.n_parties}")
    if m.bit(1) != 0:
        raise PreconditionError("pattern must have m_1 = 0")
    n = d.n_parties
    basis = local_phase_basis(d, m)
    s0 = parity_classes(n).s0
    amps = np.zeros(1 << n, dtype=np.complex128)
    vals = np.ones(s0.size, dtype=np.complex128)
    for l in range(n):
        bit = (s0 >> (n - 1 - l)) & 1
        vals = vals * np.where(bit == 1, basis.phases[l], 1.0)
    amps[s0] = vals / math.sqrt(s0.size)
    return StateVector(n, amps)


def parity_rotation_image(n: int) -> np.ndarray:
    """Image of |0..0> + |1..1> under the unnormalized map |0> -> |0>+|1>,
    |1> -> |0>-|1> on each party; equals twice the even-parity indicator."""
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128)
    vec = np.zeros(1 << n, dtype=np.complex128)
    vec[0] = vec[-1] = 1.0
    return apply_locals(np.stack([h] * n), vec)


@dataclass(frozen=True)
class GHZSpec:
    """A GHZ-class state given as local unitaries applied to the canonical
    (|0..0> + |1..1>)/sqrt(2)."""

    n: int
    local_unitaries: tuple[Operator, ...]

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"need at least 2 parties, got {self.n}")
        if len(self.local_unitaries) != self.n:
            raise DomainError(
                f"expected {self.n} local unitaries, got {len(self.local_unitaries)}"
            )
        for u in self.local_unitaries:
            if u.dim != 2:
                raise DomainError("local unitaries must be 2x2")
            defect = np.max(np.abs(u.entries @ u.entries.conj().T - np.eye(2)))
            if defect > 1e-12:
                raise DomainError(f"matrix is not unitary (defect {defect:.3e})")

    @classmethod
    def identity(cls, n: int) -> "GHZSpec":
        return cls(n=n, local_unitaries=tuple(Operator.identity(2) for _ in range(n)))

    @classmethod
    def from_matrices(cls, mats) -> "GHZSpec":
        ops = tuple(Operator.from_entries(m) for m in mats)
        return cls(n=len(ops), local_unitaries=ops)

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
        mats = np.stack([u.entries for u in self.local_unitaries])
        return StateVector(self.n, apply_locals(mats, ghz.amplitudes))


@dataclass(frozen=True)
class StabilizingPair:
    a: ProductObservable
    b: ProductObservable
    target: StateVector
    directions: DirectionList
    residual: float


def stabilizing_pair_for(spec: GHZSpec, tol: float = DEFAULT_TOL) -> StabilizingPair:
    """Two product observables whose only common +1 eigenstate is the given
    GHZ state.

    Starts from the canonical angle recipe (unique pattern = the zero
    string), aligns the stabilized state's local frame to the canonical GHZ
    frame, and conjugates both observables by the target's local unitaries
    composed with that frame map. The result is oracle-verified.
    """
    n = spec.n
    if (1 << n) > MAX_DIM:
        raise SizeError(f"{n} parties exceed the dimension cap {MAX_DIM}")
    d = canonical_angles(n)
    m0 = BitString(n, 0)
    basis = local_phase_basis(d, m0)
    target = spec.to_state()
    v_mats = []
    for l in range(1, n + 1):
        frame = basis.frame_unitary(l) @ HADAMARD
        v_mats.append(spec.local_unitaries[l - 1].entries @ frame.conj().T)
    a_locals = []
    b_locals = []
    for l in range(1, n + 1):
        v = v_mats[l - 1]
        a_l = local_observable(d.thetas[l - 1], d.phis[l - 1]).entries
        a_locals.append(Operator.from_entries(v @ a_l @ v.conj().T))
        b_locals.append(
            Operator.from_entries(v @ np.diag([1.0, -1.0]) @ v.conj().T)
        )
    a = ProductObservable(a_locals)
    b = ProductObservable(b_locals)
    res_a = float(np.linalg.norm(a.apply(target.amplitudes) - target.amplitudes))
    res_b = float(np.linalg.norm(b.apply(target.amplitudes) - target.amplitudes))
    residual = max(res_a, res_b)
    oracle = brute_force_eigenspace(a, b, tol)
    if oracle.count != 1:
        raise InternalConsistencyError(
            f"constructed pair has eigenspace dimension {oracle.count}, expected 1"
        )
    if residual > 1e-9:
        raise InternalConsistencyError(
            f"constructed pair misses its target: residual {residual:.3e}"
        )
    return StabilizingPair(a=a, b=b, target=target, directions=d, residual=residual)
