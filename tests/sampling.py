"""Builders the tests share, and random direction-list generators used for
cross-validation sweeps.

rationals and radians build direction lists from plain numbers; basis_state
and normalized build state vectors.

Uniform continuous angles almost surely admit no vanishing sign pattern, so
the stratified sampler also builds exact-rational lists engineered to have
one (or, with a decoupled party, several) vanishing patterns. That spreads a
sweep across all three classification outcomes.
"""

from __future__ import annotations

import math

import numpy as np

from ghzstab.angles import Angle, DirectionList
from ghzstab.errors import DomainError
from ghzstab.linalg import StateVector


def rationals(thetas, phis=None) -> DirectionList:
    """Directions from (num, den) pairs meaning (num/den)*pi; phis default
    to exact zero."""
    th = [Angle.exact(p, q) for p, q in thetas]
    ph = None if phis is None else [Angle.exact(p, q) for p, q in phis]
    return DirectionList.of(th, ph)


def radians(thetas, phis=None) -> DirectionList:
    """Directions from floats in radians; phis default to exact zero."""
    th = [Angle.radians(t) for t in thetas]
    ph = None if phis is None else [Angle.radians(p) for p in phis]
    return DirectionList.of(th, ph)


def basis_state(n: int, j: int) -> StateVector:
    """The computational basis state |j> of n qubits."""
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[j] = 1.0
    return StateVector(n, amps)


def normalized(amps) -> StateVector:
    """The state of a nonzero amplitude array of length 2^n, scaled to unit
    norm."""
    amps = np.asarray(amps, dtype=np.complex128)
    return StateVector(amps.size.bit_length() - 1, amps / np.linalg.norm(amps))


def uniform_directions(n: int, rng) -> DirectionList:
    thetas = [Angle.radians(rng.uniform(0.0, 2.0 * math.pi)) for _ in range(n)]
    phis = [Angle.radians(rng.uniform(0.0, 2.0 * math.pi)) for _ in range(n)]
    return DirectionList.of(thetas, phis)


def _random_phis(n: int, rng) -> list[Angle]:
    return [Angle.radians(rng.uniform(0.0, 2.0 * math.pi)) for _ in range(n)]


def resonant_directions(n: int, rng, min_den: int = 11, max_den: int = 31) -> DirectionList:
    """Exact rationals with the last theta solved so that one randomly chosen
    sign pattern has signed sum an even multiple of pi.

    Largish denominators keep accidental extra patterns rare, so roughly half
    of these classify as UniqueGHZ rather than Degenerate."""
    q = int(rng.integers(min_den, max_den + 1))
    m_bits = [0] + [int(b) for b in rng.integers(0, 2, size=n - 1)]
    nums = [int(v) for v in rng.integers(0, 2 * q, size=n)]
    partial = sum((-1) ** m_bits[l] * nums[l] for l in range(n - 1))
    sign_last = (-1) ** m_bits[n - 1]
    nums[n - 1] = (-sign_last * partial) % (2 * q)
    thetas = [Angle.exact(p, q) for p in nums]
    return DirectionList.of(thetas, _random_phis(n, rng))


def degenerate_directions(n: int, rng, max_den: int = 9) -> DirectionList:
    """Exact rationals with one decoupled party (theta 0 or pi) and the zero
    pattern forced to vanish, so at least two patterns vanish."""
    if n < 2:
        raise DomainError("need at least 2 parties")
    q = int(rng.integers(2, max_den + 1))
    nums = [int(v) for v in rng.integers(0, 2 * q, size=n)]
    free = int(rng.integers(0, n - 1))
    nums[free] = 0 if rng.integers(0, 2) == 0 else q
    nums[n - 1] = (-sum(nums[:-1])) % (2 * q)
    thetas = [Angle.exact(p, q) for p in nums]
    return DirectionList.of(thetas, _random_phis(n, rng))


def stratified_sample(n: int, count: int, seed: int = 0) -> list[DirectionList]:
    """A reproducible mix of uniform, resonant, and degenerate instances."""
    rng = np.random.default_rng((seed, n, count))
    out = []
    for k in range(count):
        r = k % 10
        if r < 5:
            out.append(uniform_directions(n, rng))
        elif r < 8:
            out.append(resonant_directions(n, rng))
        else:
            out.append(degenerate_directions(n, rng))
    return out
