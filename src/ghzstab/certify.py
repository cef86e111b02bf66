"""Monte-Carlo simulation of the two-setting certification protocol.

Each round every party measures along one of two directions: the per-party
spin directions of a DirectionList (setting A) or the z axis (setting B).
A round's product outcome is +1 with probability (1 + <psi|X|psi>) / 2 for
the setting's product observable X, so a run needs one matrix-free
expectation per component and setting and a few binomial draws. A state that
is the unique common +1 eigenstate of both product observables gives product
outcome +1 in every round; any other input fails detectably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import ZERO_ANGLE, DirectionList
from .errors import DomainError, ShapeError
from .linalg import StateVector
from .observables import product_observable


@dataclass(frozen=True)
class CertificationConfig:
    shots: int = 10_000
    a_fraction: float = 0.5
    seed: int = 0
    pass_threshold: float = 0.999

    def __post_init__(self):
        if not 1 <= self.shots <= np.iinfo(np.int64).max:
            raise DomainError(f"shots must be in 1..2^63-1, got {self.shots}")
        if not 0.0 < self.a_fraction < 1.0:
            raise DomainError(f"a_fraction must be in (0,1), got {self.a_fraction}")
        if not 0.0 < self.pass_threshold <= 1.0:
            raise DomainError(
                f"pass_threshold must be in (0,1], got {self.pass_threshold}"
            )
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


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
    the components round-robin, so each gets shots // K rounds and the first
    shots % K get one more.
    """

    states: tuple[StateVector, ...]
    weights: tuple[float, ...]
    sampling: str = "random"

    def __post_init__(self):
        if not self.states:
            raise DomainError("ensemble needs at least one state")
        if len(self.weights) != len(self.states):
            raise ShapeError("weights and states differ in length")
        if not all(math.isfinite(w) and w >= 0 for w in self.weights):
            raise DomainError("ensemble weights must be finite and non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise DomainError("ensemble weights must sum to 1")
        if self.sampling not in ("random", "cycle"):
            raise DomainError(f"unknown sampling {self.sampling!r}")


def run_certification(
    state: StateVector | Ensemble,
    d: DirectionList,
    cfg: CertificationConfig = CertificationConfig(),
) -> CertReport:
    """Allocate rounds to components and settings, draw each count of +1
    products from the Born rule, and pass iff both empirical product means
    reach the threshold.

    A pure state is a one-component ensemble. Each (component, setting)
    count of +1 products is binomial with p = (1 + <psi|X|psi>) / 2, which
    is the law of the per-round process, so no state is ever collapsed.
    All randomness comes from the seed, so reports are bit-identical for
    identical inputs.
    """
    n = d.n_parties
    if isinstance(state, StateVector):
        state = Ensemble(states=(state,), weights=(1.0,), sampling="cycle")
    for s in state.states:
        if s.n_qubits != n:
            raise ShapeError(f"state has {s.n_qubits} qubits, directions {n}")
    rng = np.random.default_rng(cfg.seed)
    k = len(state.states)
    if state.sampling == "cycle":
        rounds = cfg.shots // k + (np.arange(k) < cfg.shots % k)
    else:
        weights = np.asarray(state.weights)
        rounds = rng.multinomial(cfg.shots, weights / weights.sum())
    rounds_a = rng.binomial(rounds, cfg.a_fraction)
    z_axis = DirectionList.of([ZERO_ANGLE] * n)

    def stats(counts, setting):
        e = np.array([expectation(s, setting) for s in state.states])
        # rounding can put (1 + e) / 2 a few ulps above 1
        p_plus = np.clip((1.0 + e) / 2.0, 0.0, 1.0)
        plus = int(rng.binomial(counts, p_plus).sum())
        count = int(counts.sum())
        if count == 0:
            return count, math.nan, math.nan
        mean = (2 * plus - count) / count
        if count == 1:
            return count, mean, math.nan
        # ddof=1 standard error of count +-1 outcomes with this mean
        return count, mean, math.sqrt((1.0 - mean * mean) / (count - 1))

    count_a, mean_a, stderr_a = stats(rounds_a, d)
    count_b, mean_b, stderr_b = stats(rounds - rounds_a, z_axis)
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
