"""Monte-Carlo simulation of the two-setting certification protocol.

Each round every party measures along one of two directions: the per-party
spin directions of a DirectionList (setting A) or the z axis (setting B).
A state that is the unique common +1 eigenstate of both product observables
gives product outcome +1 in every round; any other input fails detectably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .angles import DirectionList
from .errors import DomainError, ShapeError
from .linalg import StateVector, apply_locals
from .observables import (
    product_observable,
    spin_down_eigenvector,
    spin_up_eigenvector,
)


@dataclass(frozen=True)
class CertificationConfig:
    shots: int = 10_000
    a_fraction: float = 0.5
    seed: int = 0
    pass_threshold: float = 0.999

    def __post_init__(self):
        if self.shots < 1:
            raise DomainError(f"shots must be >= 1, got {self.shots}")
        if not 0.0 < self.a_fraction < 1.0:
            raise DomainError(f"a_fraction must be in (0,1), got {self.a_fraction}")
        if not 0.0 < self.pass_threshold <= 1.0:
            raise DomainError(
                f"pass_threshold must be in (0,1], got {self.pass_threshold}"
            )


@dataclass(frozen=True)
class CertReport:
    mean_a: float
    mean_b: float
    count_a: int
    count_b: int
    stderr_a: float
    stderr_b: float
    passed: bool
    threshold: float
    shots: int
    seed: int


@dataclass(frozen=True)
class Ensemble:
    """A mixed-state input as weighted pure states.

    sampling="random" draws a component per shot by weight; "cycle" walks
    the components round-robin (exact frequencies).
    """

    states: tuple[StateVector, ...]
    weights: tuple[float, ...]
    sampling: str = "random"

    def __post_init__(self):
        if not self.states:
            raise DomainError("ensemble needs at least one state")
        if len(self.weights) != len(self.states):
            raise ShapeError("weights and states differ in length")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise DomainError("ensemble weights must sum to 1")
        if self.sampling not in ("random", "cycle"):
            raise DomainError(f"unknown sampling {self.sampling!r}")

    @classmethod
    def uniform_basis(cls, n: int, sampling: str = "cycle") -> "Ensemble":
        """Every computational basis state with equal weight."""
        dim = 1 << n
        return cls(
            states=tuple(StateVector.basis_state(n, i) for i in range(dim)),
            weights=tuple(1.0 / dim for _ in range(dim)),
            sampling=sampling,
        )


def measurement_bases(d: DirectionList) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2) arrays of per-party +1 and -1 eigenvectors for setting A."""
    up = np.stack(
        [
            spin_up_eigenvector(t, p).amplitudes
            for t, p in zip(d.thetas, d.phis)
        ]
    )
    down = np.stack(
        [
            spin_down_eigenvector(t, p).amplitudes
            for t, p in zip(d.thetas, d.phis)
        ]
    )
    return up, down


def z_bases(n: int) -> tuple[np.ndarray, np.ndarray]:
    up = np.tile(np.array([1.0 + 0j, 0j]), (n, 1))
    down = np.tile(np.array([0j, 1.0 + 0j]), (n, 1))
    return up, down


def measure_round(state: StateVector, d: DirectionList, rng) -> tuple[np.ndarray, int]:
    """One round of sequential projective measurement, party by party.

    Returns the per-party outcomes as +-1 and their product. The product's
    sampling distribution has expectation <state|A|state>.
    """
    if state.n_qubits != d.n_parties:
        raise ShapeError(
            f"state has {state.n_qubits} qubits, directions {d.n_parties}"
        )
    up, down = measurement_bases(d)
    uniforms = rng.random((1, d.n_parties))
    bits = _kernels.collapse_rounds(state.amplitudes, up, down, uniforms)[0]
    outcomes = 1 - 2 * bits.astype(np.int64)
    return outcomes, int(np.prod(outcomes))


def joint_outcome_probabilities(state: StateVector, d: DirectionList) -> np.ndarray:
    """Born probabilities of all 2^n joint outcomes (bit 0 = +1 outcome),
    computed directly from the product-basis overlap."""
    up, down = measurement_bases(d)
    mats = np.stack(
        [np.stack([up[l].conj(), down[l].conj()]) for l in range(d.n_parties)]
    )
    transformed = apply_locals(mats, state.amplitudes)
    return np.abs(transformed) ** 2


def sequential_outcome_probabilities(
    state: StateVector, d: DirectionList
) -> np.ndarray:
    """Joint outcome probabilities accumulated through the sequential
    collapse chain rule; must match the direct Born probabilities."""
    up, down = measurement_bases(d)
    n = d.n_parties
    probs = np.zeros(1 << n)

    def walk(amps, norm_sq, l, prefix):
        if norm_sq < 1e-30:
            return
        if l == n:
            probs[prefix] = norm_sq
            return
        pos = n - 1 - l
        step = 1 << pos
        resh = amps.reshape(-1, 2, step) if step > 1 else amps.reshape(-1, 2)
        for bit, basis in ((0, up[l]), (1, down[l])):
            if step > 1:
                c = basis[0].conj() * resh[:, 0, :] + basis[1].conj() * resh[:, 1, :]
            else:
                c = basis[0].conj() * resh[:, 0] + basis[1].conj() * resh[:, 1]
            p = float(np.sum(np.abs(c) ** 2))
            if p < 1e-30:
                continue
            new = np.zeros_like(amps).reshape(resh.shape)
            if step > 1:
                new[:, 0, :] = basis[0] * c / math.sqrt(p)
                new[:, 1, :] = basis[1] * c / math.sqrt(p)
            else:
                new[:, 0] = basis[0] * c / math.sqrt(p)
                new[:, 1] = basis[1] * c / math.sqrt(p)
            walk(new.reshape(-1), norm_sq * p, l + 1, (prefix << 1) | bit)

    walk(state.amplitudes.copy(), 1.0, 0, 0)
    return probs


def _products_from_bits(bits: np.ndarray) -> np.ndarray:
    """Round products (+-1) from outcome bit rows."""
    return 1 - 2 * (np.sum(bits, axis=1, dtype=np.int64) & 1)


def run_certification(
    state: StateVector | Ensemble,
    d: DirectionList,
    cfg: CertificationConfig = CertificationConfig(),
) -> CertReport:
    """Allocate rounds between the two settings, sample outcomes, and pass
    iff both empirical product means reach the threshold.

    All randomness is pre-drawn from the seed, so reports are bit-identical
    for identical inputs.
    """
    n = d.n_parties
    rng = np.random.default_rng(cfg.seed)
    uniforms = rng.random((cfg.shots, n + 2))
    is_a = uniforms[:, 0] < cfg.a_fraction
    up_a, down_a = measurement_bases(d)
    up_b, down_b = z_bases(n)

    if isinstance(state, Ensemble):
        for s in state.states:
            if s.n_qubits != n:
                raise ShapeError("ensemble state size mismatch")
        cum = np.cumsum(state.weights)
        products = np.empty(cfg.shots, dtype=np.int64)
        for s in range(cfg.shots):
            if state.sampling == "cycle":
                comp = s % len(state.states)
            else:
                comp = int(np.searchsorted(cum, uniforms[s, 1]))
                comp = min(comp, len(state.states) - 1)
            amps = state.states[comp].amplitudes
            u, dn = (up_a, down_a) if is_a[s] else (up_b, down_b)
            bits = _kernels.collapse_rounds(
                amps, u, dn, uniforms[s:s + 1, 2:]
            )
            products[s] = _products_from_bits(bits)[0]
    else:
        if state.n_qubits != n:
            raise ShapeError(
                f"state has {state.n_qubits} qubits, directions {n}"
            )
        products = np.empty(cfg.shots, dtype=np.int64)
        for setting, (u, dn) in (("a", (up_a, down_a)), ("b", (up_b, down_b))):
            mask = is_a if setting == "a" else ~is_a
            if not np.any(mask):
                continue
            bits = _kernels.collapse_rounds(
                state.amplitudes, u, dn,
                np.ascontiguousarray(uniforms[mask, 2:]),
            )
            products[mask] = _products_from_bits(bits)

    def stats(mask):
        count = int(np.sum(mask))
        if count == 0:
            return count, math.nan, math.nan
        vals = products[mask].astype(np.float64)
        mean = float(vals.mean())
        if count > 1:
            stderr = float(vals.std(ddof=1) / math.sqrt(count))
        else:
            stderr = math.nan
        return count, mean, stderr

    count_a, mean_a, stderr_a = stats(is_a)
    count_b, mean_b, stderr_b = stats(~is_a)
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
        threshold=cfg.pass_threshold,
        shots=cfg.shots,
        seed=cfg.seed,
    )


def expectation(state: StateVector, d: DirectionList) -> float:
    """Analytic <state|A|state> for the product observable of d."""
    obs = product_observable(d)
    return float(
        np.real(np.vdot(state.amplitudes, obs.apply(state.amplitudes)))
    )
