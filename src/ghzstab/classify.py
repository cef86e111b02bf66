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
    sorted and laid on three turns of the circle, with the order that
    sorts them laid alike. The low block holds no theta_1, so the list with
    theta_1 flipped meets the same ring."""

    __slots__ = ("order", "turns", "modulus")

    def __init__(self, low: np.ndarray, modulus):
        low = low % modulus
        # equal exact residues keep their order, so that members come out
        # ascending; float members are sorted by _distinct
        order = np.argsort(low, kind=None if low.dtype.kind == "f" else "stable")
        low = low[order]
        self.order = np.concatenate((order, order, order))
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

    def meet(
        self, high: np.ndarray, width, shift: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pattern indices hi << shift | lo, hi-major, for every low half-sum
        low[lo] in the window of high[hi], and the ring position k of each,
        so that turns[k] is low[lo] on the window's turn; within one hi, the
        lo follow the ring's order (ascending for exact residues)."""
        left, counts = self.windows(high, width)
        hi = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        starts = np.cumsum(counts) - counts
        k = np.arange(hi.size, dtype=np.int64) - np.repeat(starts - left, counts)
        return (hi << shift) | self.order[k], k


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


def _sequential_scores(
    theta: np.ndarray, h: int, prefix: np.ndarray, patterns: np.ndarray
) -> np.ndarray:
    """|sin(S/2)| of these patterns, each S summed in the sequential order
    theta_1 +- theta_2 +- ... that _kernels.signed_sums_f8 uses on a whole
    list: the high half-sums prefix are its first h - 1 steps, so each
    pattern goes on from its own with the low parties."""
    n = theta.size
    sums = prefix[patterns >> (n - h)]
    for l in range(h, n):
        minus = (patterns >> (n - 1 - l)) & 1 == 1
        sums = np.where(minus, sums - theta[l], sums + theta[l])
    return np.abs(np.sin(sums / 2.0))


def _float_candidates(
    theta: np.ndarray, h: int, tol: float, ring: HalfSumRing
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate patterns of a radian list and their scores, which
    decide membership and the fragile flag as enumeration's scores do.

    A pattern scoring |sin(S/2)| <= FRAGILE_FACTOR * tol has S within
    2 asin(FRAGILE_FACTOR * tol) of 2 pi Z, so its low half-sum lies that
    close to minus its high half-sum on the circle. Those candidates are
    found by window search in the ring of low half-sums, each window
    widened by slack = signed_sum_error(theta) so that none is missed: a
    candidate's offset in its window, turns[k] - target, is within slack of
    the sequential sum theta_1 +- theta_2 +- ... that enumeration scores,
    mod 2 pi. |sin(S/2)| is 1/2-Lipschitz, so the offset's score is within
    slack / 2 of the sequential score, plus roundings of a few eps, far
    below slack. So a candidate whose offset score is farther than slack
    from both tol and FRAGILE_FACTOR * tol falls on the same side of each
    as its sequential score, and keeps the offset score. Only those in that
    band are summed again in sequential order and scored as enumeration
    scores them, so membership and the fragile flag are enumeration's bit
    for bit. A window of half-width near pi or more meets a low sum twice
    near its ends, so a pattern may come twice, once from each end.
    """
    n = theta.size
    eps = np.finfo(np.float64).eps
    slack = signed_sum_error(theta)
    # the 1 + 4 eps covers the rounding of the score itself
    reach = 2.0 * math.asin(min(FRAGILE_FACTOR * tol * (1.0 + 4 * eps), 1.0))
    prefix = _kernels.signed_sums_f8(theta[:h])
    patterns, k = ring.meet(prefix, reach + slack, n - h)
    target = -prefix % ring.modulus
    score = np.abs(np.sin((ring.turns[k] - target[patterns >> (n - h)]) / 2.0))
    band = (np.abs(score - tol) <= slack) | (
        np.abs(score - FRAGILE_FACTOR * tol) <= slack
    )
    if band.any():
        score[band] = _sequential_scores(theta, h, prefix, patterns[band])
    return patterns, score


def _distinct(patterns: np.ndarray) -> np.ndarray:
    """The patterns sorted, each once: a sort and an adjacent-duplicate
    mask, since np.unique hashes before it sorts."""
    patterns = np.sort(patterns)
    keep = np.ones(patterns.size, dtype=bool)
    keep[1:] = patterns[1:] != patterns[:-1]
    return patterns[keep]


def _members(
    d: DirectionList, tol: float, ring: HalfSumRing | None = None
) -> SignPatternSet:
    """d's members by meet-in-the-middle: an exact list's pattern vanishes
    when its low half-sum is minus its high half-sum mod 2 den, a radian
    list's when its candidate scores at most tol. The ring of low
    half-sums is built from d unless given. The low block holds no theta_1,
    so a ring built for a list that differs from d only in theta_1 (and,
    when exact, has d's common denominator, as pi - theta_1 does) is d's."""
    n = d.n_parties
    h = (n + 1) // 2
    if d.all_exact:
        nums, mod = _exact_residues(d)
        if ring is None:
            ring = HalfSumRing(_exact_sums([0] + nums[h:], n, mod), mod)
        bits = ring.meet(_exact_sums(nums[:h], n, mod), 0, n - h)[0]
        return SignPatternSet(n=n, bits=bits, ring=ring)
    theta = np.asarray(d.theta_radians(), dtype=np.float64)
    if ring is None:
        low = _kernels.signed_sums_f8(np.concatenate(([0.0], theta[h:])))
        ring = HalfSumRing(low, 2.0 * math.pi)
    patterns, score = _float_candidates(theta, h, tol, ring)
    fragile = bool(np.any((score > tol) & (score <= FRAGILE_FACTOR * tol)))
    bits = _distinct(patterns[score <= tol])
    return SignPatternSet(n=n, bits=bits, ring=ring, fragile=fragile)


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
    return _members(d, tol)


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


def sector_dimensions(
    d: DirectionList, tol: float = DEFAULT_TOL
) -> tuple[ClassificationReport, tuple[int, int, int, int]]:
    """classify's report for d, and the common eigenspace dimensions of
    (sA, sB) in the four sign sectors, in the order of observables.SECTORS.

    Negating A sends (theta_1, phi_1) to (pi - theta_1, phi_1 + pi), and
    conjugating party 1 by sigma_X, which negates Z^N, to (pi - theta_1,
    -phi_1). Counting reads no phi, so (+,-) and (-,+) both count d with
    theta_1 flipped to pi - theta_1, and (-,-), flipped twice, counts d.
    The flipped list's members come from classify's own member routine,
    bit for bit what classify gives on it; the flip moves only the high
    half-sums, so they are met in the ring of d's low half-sums.
    """
    report = classify(d, tol)
    moved = DirectionList.of((PI - d.thetas[0],) + d.thetas[1:], d.phis)
    flipped = len(_members(moved, tol, report.patterns.ring))
    same = len(report.patterns)
    return report, (same, flipped, flipped, same)
