"""Classification of direction lists by their set of vanishing sign patterns.

A sign pattern is a bit string m assigning a sign (-1)^{m_l} to each theta_l.
The pattern "vanishes" when the signed angle sum is an even multiple of pi,
equivalently sin(sum / 2) = 0. The number of vanishing patterns with m_1 = 0
decides the trichotomy: none (the two product observables share no
eigenstate), exactly one (a unique GHZ-class common +1 eigenstate), or
several (a degenerate common eigenspace).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .angles import PI, Angle, DirectionList
from .bitstrings import MAX_PARTIES, BitString
from .errors import DomainError, ShapeError, SizeError
from .linalg import DEFAULT_TOL

FRAGILE_FACTOR = 10.0
_INT64_SAFE = 1 << 60


class StabilizerCase(Enum):
    NO_COMMON_EIGENSTATE = "NoCommonEigenstate"
    UNIQUE_GHZ = "UniqueGHZ"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class SignPatternSet:
    """Vanishing sign patterns with m_1 = 0, and whether a non-member came
    near the threshold. A member's signed sum is signed_angle_sum(d, m); its
    complement (m_1 = 1) vanishes too but is never listed."""

    members: tuple[BitString, ...]
    fragile: bool = False

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClassificationReport:
    case: StabilizerCase
    patterns: SignPatternSet
    mode: str
    tol: float
    warnings: tuple[str, ...] = ()


def signed_angle_sum(d: DirectionList, m: BitString) -> Angle:
    """sum_l (-1)^{m_l} theta_l; exact whenever every theta is exact."""
    if m.n != d.n_parties:
        raise ShapeError(f"bit string length {m.n} != n_parties {d.n_parties}")
    total = None
    for l in range(1, d.n_parties + 1):
        term = d.thetas[l - 1]
        if m.bit(l):
            term = -term
        total = term if total is None else total + term
    return total


def pattern_condition(d: DirectionList, m: BitString, tol: float = DEFAULT_TOL) -> bool:
    """Whether sin(signed sum / 2) vanishes for pattern m (no m_1 filter)."""
    s = signed_angle_sum(d, m)
    if s.is_exact:
        frac = s.pi_multiple
        return frac.denominator == 1 and frac.numerator % 2 == 0
    return abs(math.sin(s.to_radians() / 2.0)) <= tol


def _scaled_thetas(d: DirectionList) -> tuple[list[int], int]:
    """Integer numerators over a common denominator: theta_l = nums[l]*pi/den."""
    fracs = [t.pi_multiple for t in d.thetas]
    den = 1
    for f in fracs:
        den = den * f.denominator // math.gcd(den, f.denominator)
    return [int(f * den) for f in fracs], den


def sign_pattern_set(d: DirectionList, tol: float = DEFAULT_TOL) -> SignPatternSet:
    """Enumerate all m with m_1 = 0 whose signed angle sum is an even
    multiple of pi.

    The signed sums of all patterns are built at once by doubling. Exact
    thetas are decided by integer arithmetic over their common denominator
    (int64, or Python integers when the sums could overflow); otherwise
    membership is |sin(sum/2)| <= tol, with a fragile flag when any
    non-member comes within a factor of 10 of the threshold.
    """
    n = d.n_parties
    if n > MAX_PARTIES:
        raise SizeError(f"n_parties {n} exceeds enumeration cap {MAX_PARTIES}")
    fragile = False
    if d.all_exact:
        nums, den = _scaled_thetas(d)
        if sum(abs(v) for v in nums) < _INT64_SAFE:
            sums = _kernels.signed_sums_i8(nums)
        else:
            sums = _kernels.signed_sums_int(nums)
        hits = np.nonzero(sums % (2 * den) == 0)[0]
    else:
        sums = _kernels.signed_sums_f8(d.theta_radians())
        score = np.abs(np.sin(sums / 2.0))
        hits = np.nonzero(score <= tol)[0]
        fragile = bool(
            np.any((score > tol) & (score <= FRAGILE_FACTOR * tol))
        )
    return SignPatternSet(
        members=tuple(BitString(n, int(m)) for m in hits), fragile=fragile
    )


def classify(
    d: DirectionList, tol: float = DEFAULT_TOL, mode: str | None = None
) -> ClassificationReport:
    """Classify a direction list by the count of vanishing sign patterns."""
    if mode not in (None, "exact", "approx"):
        raise DomainError(f"mode must be exact or approx, got {mode!r}")
    if mode == "exact" and not d.all_exact:
        raise DomainError("exact mode requires all thetas rational multiples of pi")
    if mode == "approx" and d.all_exact:
        d = DirectionList.of(
            [Angle.radians(t.to_radians()) for t in d.thetas], d.phis
        )
    patterns = sign_pattern_set(d, tol)
    if len(patterns) == 0:
        case = StabilizerCase.NO_COMMON_EIGENSTATE
    elif len(patterns) == 1:
        case = StabilizerCase.UNIQUE_GHZ
    else:
        case = StabilizerCase.DEGENERATE
    warnings = ()
    if patterns.fragile:
        warnings = (
            f"near-threshold sign pattern within {FRAGILE_FACTOR}x of tol={tol}; "
            "classification is fragile",
        )
    return ClassificationReport(
        case=case,
        patterns=patterns,
        mode="exact" if d.all_exact else "approx",
        tol=tol,
        warnings=warnings,
    )


def sector_transform(d: DirectionList, sign_a: int, sign_b: int) -> DirectionList:
    """Angles whose (+1, +1) analysis equals the (sign_a, sign_b) sector of d.

    sign_a = -1 negates the first local observable: (t1, p1) -> (pi - t1,
    p1 + pi). sign_b = -1 conjugates party 1 by sigma_X, which negates the
    all-Z observable and maps (t1, p1) -> (pi - t1, -p1).
    """
    if sign_a not in (1, -1) or sign_b not in (1, -1):
        raise DomainError("signs must be +1 or -1")
    t1, p1 = d.thetas[0], d.phis[0]
    if sign_b == -1:
        t1, p1 = PI - t1, -p1
    if sign_a == -1:
        t1, p1 = PI - t1, p1 + PI
    return DirectionList.of(
        (t1,) + d.thetas[1:], (p1,) + d.phis[1:]
    )
