"""Classification of direction lists by their set of vanishing sign patterns.

A sign pattern is an n-bit index m assigning a sign (-1)^{m_l} to each
theta_l, where m_l is bit n - l of m (party 1 the most significant bit).
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
from .angles import PI, DirectionList
from .errors import DomainError, SizeError
from .linalg import DEFAULT_TOL, MAX_PARTIES

FRAGILE_FACTOR = 10.0
_INT64_SAFE = 1 << 60


class StabilizerCase(Enum):
    NO_COMMON_EIGENSTATE = "NoCommonEigenstate"
    UNIQUE_GHZ = "UniqueGHZ"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True, eq=False)
class SignPatternSet:
    """Vanishing sign patterns with m_1 = 0, as ascending pattern indices
    (party l at bit n - l), and whether a non-member came near the
    threshold. A member's signed sum is sum_l (-1)^{m_l} theta_l; its
    complement (m_1 = 1) vanishes too but is never listed."""

    n: int
    bits: np.ndarray
    fragile: bool = False

    def __len__(self) -> int:
        return self.bits.size


@dataclass(frozen=True)
class ClassificationReport:
    case: StabilizerCase
    patterns: SignPatternSet
    mode: str
    tol: float
    warnings: tuple[str, ...] = ()


def _scaled_thetas(d: DirectionList) -> tuple[list[int], int]:
    """Integer numerators over a common denominator: theta_l = nums[l]*pi/den."""
    fracs = [t.pi_multiple for t in d.thetas]
    den = math.lcm(*(f.denominator for f in fracs))
    return [int(f * den) for f in fracs], den


def _join(
    order: np.ndarray, left: np.ndarray, right: np.ndarray, shift: int
) -> np.ndarray:
    """Pattern indices hi << shift | order[k mod len(order)] for every
    high-block index hi and every k in [left[hi], right[hi]), hi-major."""
    counts = right - left
    hi = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    k = np.arange(hi.size, dtype=np.int64) - np.repeat(starts - left, counts)
    return (hi << shift) | order[k % order.size]


def _exact_members(d: DirectionList, h: int) -> np.ndarray:
    """Members of an exact list: lo = -hi mod 2 den, found by binary search
    in the stably sorted low residues, so they come out ascending."""
    nums, den = _scaled_thetas(d)
    mod = 2 * den
    nums = [v % mod for v in nums]
    if len(nums) * mod < _INT64_SAFE:
        kernel = _kernels.signed_sums_i8
    else:
        kernel = _kernels.signed_sums_int
    target = -kernel(nums[:h]) % mod
    lo = kernel([0] + nums[h:]) % mod
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    left = np.searchsorted(lo, target, "left")
    right = np.searchsorted(lo, target, "right")
    return _join(order, left, right, len(nums) - h)


def _float_members(d: DirectionList, h: int, tol: float) -> tuple[np.ndarray, bool]:
    """Members of a radian list and the fragile flag.

    A pattern scoring |sin(S/2)| <= FRAGILE_FACTOR * tol has S within
    2 asin(FRAGILE_FACTOR * tol) of 2 pi Z, so its low half-sum lies that
    close to minus its high half-sum on the circle. Those candidates, found
    by window search in the sorted low half-sums, are summed again in the
    sequential order theta_1 +- theta_2 +- ... that _kernels.signed_sums_f8
    uses on a whole list, and scored as enumeration scores them.
    """
    theta = np.asarray(d.theta_radians(), dtype=np.float64)
    n = theta.size
    eps = np.finfo(np.float64).eps
    # the sequential sum, the two half-sums, their reductions mod 2 pi and
    # the window ends each err by a few ulps of sum|theta| + 4 pi per step;
    # the 1 + 4 eps covers the rounding of the score itself
    slack = 8 * (n + 4) * eps * (float(np.abs(theta).sum()) + 4 * math.pi)
    reach = 2.0 * math.asin(min(FRAGILE_FACTOR * tol * (1.0 + 4 * eps), 1.0))
    width = reach + slack
    prefix = _kernels.signed_sums_f8(theta[:h])
    if width >= math.pi:  # the window covers the whole circle
        patterns = np.arange(1 << (n - 1), dtype=np.int64)
    else:
        two_pi = 2.0 * math.pi
        target = np.mod(-prefix, two_pi)
        lo = np.mod(_kernels.signed_sums_f8(np.concatenate(([0.0], theta[h:]))), two_pi)
        order = np.argsort(lo)
        lo = lo[order]
        ring = np.concatenate((lo - two_pi, lo, lo + two_pi))
        left = np.searchsorted(ring, target - width, "left")
        right = np.searchsorted(ring, target + width, "right")
        patterns = _join(order, left, right, n - h)
    # the high half-sums are the sequential sums' first h - 1 steps, so
    # each candidate goes on from its own with the low parties
    sums = prefix[patterns >> (n - h)]
    for l in range(h, n):
        minus = (patterns >> (n - 1 - l)) & 1 == 1
        sums = np.where(minus, sums - theta[l], sums + theta[l])
    score = np.abs(np.sin(sums / 2.0))
    hits = score <= tol
    fragile = bool(np.any((score > tol) & (score <= FRAGILE_FACTOR * tol)))
    # candidates come hi-major but not lo-sorted, and a window just under pi
    # can meet one low sum twice
    return np.unique(patterns[hits]), fragile


def sign_pattern_set(d: DirectionList, tol: float = DEFAULT_TOL) -> SignPatternSet:
    """All m with m_1 = 0 whose signed angle sum is an even multiple of pi,
    by meet-in-the-middle over half-sums.

    The high block is party 1 and the next ceil(n/2) - 1 parties, the low
    block the rest; each block's signed sums are built by doubling, so the
    cost is O(2^(n/2) + members). Exact thetas are decided by integer
    residues mod twice their common denominator (int64, or Python integers
    when the sums could overflow); otherwise membership is
    |sin(sum/2)| <= tol, with a fragile flag when any non-member comes
    within a factor of 10 of the threshold.
    """
    n = d.n_parties
    if n > MAX_PARTIES:
        raise SizeError(f"n_parties {n} exceeds enumeration cap {MAX_PARTIES}")
    h = (n + 1) // 2
    if d.all_exact:
        return SignPatternSet(n=n, bits=_exact_members(d, h))
    bits, fragile = _float_members(d, h, tol)
    return SignPatternSet(n=n, bits=bits, fragile=fragile)


def classify(d: DirectionList, tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Classify a direction list by the count of vanishing sign patterns;
    exact when every theta is exact (see DirectionList.in_mode)."""
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
