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
from .errors import SizeError
from .linalg import DEFAULT_TOL, MAX_PARTIES

FRAGILE_FACTOR = 10.0
_INT64_SAFE = 1 << 60


class StabilizerCase(Enum):
    NO_COMMON_EIGENSTATE = "NoCommonEigenstate"
    UNIQUE_GHZ = "UniqueGHZ"
    DEGENERATE = "Degenerate"


class HalfSumRing:
    """A list's low half-sums reduced mod the circle's circumference,
    sorted stably and laid on three turns of the circle, with the order
    that sorts them. The low block holds no theta_1, so the list with
    theta_1 flipped meets the same ring."""

    __slots__ = ("order", "turns", "modulus")

    def __init__(self, low: np.ndarray, modulus):
        low = low % modulus
        self.order = np.argsort(low, kind="stable")
        low = low[self.order]
        self.turns = np.concatenate((low - modulus, low, low + modulus))
        self.modulus = modulus  # int for exact residues, float for radians

    def windows(self, high: np.ndarray, width) -> tuple[np.ndarray, np.ndarray]:
        """For each high half-sum, the first ring position within width of
        minus it on the circle, and the count of positions that are: each
        window [t - width, t + width], t in [0, modulus), is found by binary
        search, and a window of width 0 meets only the middle turn."""
        target = -high % self.modulus
        left = np.searchsorted(self.turns, target - width, "left")
        return left, np.searchsorted(self.turns, target + width, "right") - left

    def meet(self, high: np.ndarray, width, shift: int) -> np.ndarray:
        """Pattern indices hi << shift | lo, hi-major, for every low half-sum
        low[lo] in the window of high[hi]; within one hi, the lo follow the
        stable order of the low sums mod modulus."""
        left, counts = self.windows(high, width)
        hi = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        starts = np.cumsum(counts) - counts
        k = np.arange(hi.size, dtype=np.int64) - np.repeat(starts - left, counts)
        return (hi << shift) | self.order[k % self.order.size]


@dataclass(frozen=True, eq=False)
class SignPatternSet:
    """Vanishing sign patterns with m_1 = 0, as ascending pattern indices
    (party l at bit n - l), the ring of low half-sums they were met in, and
    whether a non-member came near the threshold. A member's signed sum is
    sum_l (-1)^{m_l} theta_l; its complement (m_1 = 1) vanishes too but is
    never listed."""

    n: int
    bits: np.ndarray
    ring: HalfSumRing
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


def _exact_residues(d: DirectionList) -> tuple[list[int], int]:
    """theta_l = nums[l] pi / den as the residues nums mod 2 den, and 2 den."""
    fracs = [t.pi_multiple for t in d.thetas]
    den = math.lcm(*(f.denominator for f in fracs))
    mod = 2 * den
    return [f.numerator * (den // f.denominator) % mod for f in fracs], mod


def _exact_sums(nums: list[int], n: int, mod: int) -> np.ndarray:
    """Signed sums of residues of an n-party list: int64, or Python integers
    when the sums could overflow."""
    if n * mod < _INT64_SAFE:
        return _kernels.signed_sums_i8(nums)
    return _kernels.signed_sums_int(nums)


def _exact_members(d: DirectionList, h: int) -> tuple[np.ndarray, HalfSumRing]:
    """Members of an exact list: a pattern vanishes when its low half-sum is
    minus its high half-sum mod 2 den. Equal low residues keep their order,
    so members come out ascending."""
    nums, mod = _exact_residues(d)
    n = len(nums)
    ring = HalfSumRing(_exact_sums([0] + nums[h:], n, mod), mod)
    return ring.meet(_exact_sums(nums[:h], n, mod), 0, n - h), ring


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


def _float_candidates(
    theta: np.ndarray, h: int, tol: float, ring: HalfSumRing
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate patterns of a radian list and their scores.

    A pattern scoring |sin(S/2)| <= FRAGILE_FACTOR * tol has S within
    2 asin(FRAGILE_FACTOR * tol) of 2 pi Z, so its low half-sum lies that
    close to minus its high half-sum on the circle. Those candidates, found
    by window search in the ring of low half-sums, are summed again in the
    sequential order theta_1 +- theta_2 +- ... that _kernels.signed_sums_f8
    uses on a whole list, and scored as enumeration scores them. A window
    of half-width near pi or more meets a low sum twice near its ends, so a
    pattern may come twice.
    """
    n = theta.size
    eps = np.finfo(np.float64).eps
    slack = signed_sum_error(theta)
    # the 1 + 4 eps covers the rounding of the score itself
    reach = 2.0 * math.asin(min(FRAGILE_FACTOR * tol * (1.0 + 4 * eps), 1.0))
    prefix = _kernels.signed_sums_f8(theta[:h])
    patterns = ring.meet(prefix, reach + slack, n - h)
    # the high half-sums are the sequential sums' first h - 1 steps, so
    # each candidate goes on from its own with the low parties
    sums = prefix[patterns >> (n - h)]
    for l in range(h, n):
        minus = (patterns >> (n - 1 - l)) & 1 == 1
        sums = np.where(minus, sums - theta[l], sums + theta[l])
    return patterns, np.abs(np.sin(sums / 2.0))


def _distinct(patterns: np.ndarray) -> np.ndarray:
    """The patterns sorted, each once: a sort and an adjacent-duplicate
    mask, since np.unique hashes before it sorts."""
    patterns = np.sort(patterns)
    keep = np.ones(patterns.size, dtype=bool)
    keep[1:] = patterns[1:] != patterns[:-1]
    return patterns[keep]


def _float_members(
    d: DirectionList, h: int, tol: float
) -> tuple[np.ndarray, HalfSumRing, bool]:
    """Members of a radian list, its ring of low half-sums and the fragile
    flag."""
    theta = np.asarray(d.theta_radians(), dtype=np.float64)
    low = _kernels.signed_sums_f8(np.concatenate(([0.0], theta[h:])))
    ring = HalfSumRing(low, 2.0 * math.pi)
    patterns, score = _float_candidates(theta, h, tol, ring)
    fragile = bool(np.any((score > tol) & (score <= FRAGILE_FACTOR * tol)))
    return _distinct(patterns[score <= tol]), ring, fragile


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
        bits, ring = _exact_members(d, h)
        return SignPatternSet(n=n, bits=bits, ring=ring)
    bits, ring, fragile = _float_members(d, h, tol)
    return SignPatternSet(n=n, bits=bits, ring=ring, fragile=fragile)


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


def classify_sectors(
    d: DirectionList, tol: float = DEFAULT_TOL
) -> tuple[ClassificationReport, int]:
    """classify(d, tol), and the member count of d with theta_1 flipped to
    pi - theta_1, counted in the ring of low half-sums that d's own members
    were met in: the flip moves only the high half-sums.

    Exact lists shift the high residues by pi - 2 theta_1 and count the
    low residues equal to minus each. Radian lists build the flipped list's
    high half-sums, windows and sequential rescoring as classify does on
    the flipped list, so the count is the one it gives.
    """
    report = classify(d, tol)
    ring = report.patterns.ring
    n = d.n_parties
    h = (n + 1) // 2
    if d.all_exact:
        nums, mod = _exact_residues(d)
        # pi - theta_1 = (den - nums[0]) pi / den
        nums[0] = (mod // 2 - nums[0]) % mod
        _, counts = ring.windows(_exact_sums(nums[:h], n, mod), 0)
        return report, int(counts.sum())
    theta = np.asarray(d.theta_radians(), dtype=np.float64)
    theta[0] = (PI - d.thetas[0]).to_radians()
    patterns, score = _float_candidates(theta, h, tol, ring)
    return report, _distinct(patterns[score <= tol]).size
