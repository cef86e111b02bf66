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
from .angles import DirectionList
from .errors import SizeError
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


def _meet(
    high: np.ndarray, low: np.ndarray, modulus, width, shift: int
) -> np.ndarray:
    """Pattern indices hi << shift | lo, hi-major, for every low half-sum
    low[lo] within width of -high[hi] on the circle of circumference
    modulus; within one hi, the lo follow the stable order of low mod
    modulus. The sorted low sums are laid on three turns of the circle, so
    each window [t - width, t + width], t in [0, modulus), is found by
    binary search; a window of width 0 meets only the middle turn."""
    target = -high % modulus
    low = low % modulus
    order = np.argsort(low, kind="stable")
    low = low[order]
    ring = np.concatenate((low - modulus, low, low + modulus))
    left = np.searchsorted(ring, target - width, "left")
    counts = np.searchsorted(ring, target + width, "right") - left
    hi = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    k = np.arange(hi.size, dtype=np.int64) - np.repeat(starts - left, counts)
    return (hi << shift) | order[k % order.size]


def _exact_members(d: DirectionList, h: int) -> np.ndarray:
    """Members of an exact list: theta_l = nums[l] pi / den, and a pattern
    vanishes when its low half-sum is minus its high half-sum mod 2 den.
    Equal low residues keep their order, so members come out ascending."""
    fracs = [t.pi_multiple for t in d.thetas]
    den = math.lcm(*(f.denominator for f in fracs))
    mod = 2 * den
    nums = [f.numerator * (den // f.denominator) % mod for f in fracs]
    if len(nums) * mod < _INT64_SAFE:
        kernel = _kernels.signed_sums_i8
    else:
        kernel = _kernels.signed_sums_int
    return _meet(kernel(nums[:h]), kernel([0] + nums[h:]), mod, 0, len(nums) - h)


def signed_sum_error(thetas) -> float:
    """Bound on the float error of a signed sum sum_l +-theta_l of these
    radian thetas, as classify computes it: the sequential sum, the two
    half-sums, their reductions mod 2 pi and the window ends each err by a
    few ulps of sum|theta| + 4 pi per step. A tol below it asks the float
    routes (classify's scores and the brute-force oracle's singular values)
    for more than their sums resolve, so verify refuses one."""
    theta = np.asarray(thetas, dtype=np.float64)
    eps = np.finfo(np.float64).eps
    return 8 * (theta.size + 4) * eps * (float(np.abs(theta).sum()) + 4 * math.pi)


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
    slack = signed_sum_error(theta)
    # the 1 + 4 eps covers the rounding of the score itself
    reach = 2.0 * math.asin(min(FRAGILE_FACTOR * tol * (1.0 + 4 * eps), 1.0))
    prefix = _kernels.signed_sums_f8(theta[:h])
    low = _kernels.signed_sums_f8(np.concatenate(([0.0], theta[h:])))
    patterns = _meet(prefix, low, 2.0 * math.pi, reach + slack, n - h)
    # the high half-sums are the sequential sums' first h - 1 steps, so
    # each candidate goes on from its own with the low parties
    sums = prefix[patterns >> (n - h)]
    for l in range(h, n):
        minus = (patterns >> (n - 1 - l)) & 1 == 1
        sums = np.where(minus, sums - theta[l], sums + theta[l])
    score = np.abs(np.sin(sums / 2.0))
    hits = score <= tol
    fragile = bool(np.any((score > tol) & (score <= FRAGILE_FACTOR * tol)))
    # candidates come hi-major but not lo-sorted, and a window of half-width
    # near pi or more meets a low sum twice near its ends; a sort and an
    # adjacent-duplicate mask, since np.unique hashes before it sorts
    members = np.sort(patterns[hits])
    keep = np.ones(members.size, dtype=bool)
    keep[1:] = members[1:] != members[:-1]
    return members[keep], fragile


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
