"""Output checks from the paper's invariants, not from recorded outputs.

Every check raises ``CheckFailed`` with a one-line reason. Pattern sets of
rational lists are checked against an independent count by dynamic
programming over residues mod ``2*q``; states are checked against the
GHZ-class states the benchmark builds itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from inputs import Directions, even_indices, ghz_class_state

STATE_TOL = 1e-9
RESIDUAL_TOL = 1e-8


class CheckFailed(Exception):
    pass


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def pattern_count(nums, q: int) -> int:
    """Number of m with m_1 = 0 for which nums[0] + sum_{l>=2} (-1)^{m_l}
    nums[l] is 0 mod 2q, i.e. vanishing sign patterns of nums*pi/q."""
    mod = 2 * q
    counts = np.zeros(mod, dtype=np.int64)
    counts[nums[0] % mod] = 1
    for a in nums[1:]:
        counts = np.roll(counts, a % mod) + np.roll(counts, -(a % mod))
    return int(counts[0])


def expected_sector_dims(d: Directions) -> list[int]:
    """Sector dimensions (++, +-, -+, --): a sector with one sign flipped
    replaces theta_1 by pi - theta_1, and flipping both restores it."""
    if d.nums is None:
        return [0, 0, 0, 0]
    same = pattern_count(d.nums, d.q)
    flipped = pattern_count((d.q - d.nums[0],) + d.nums[1:], d.q)
    return [same, flipped, flipped, same]


def expected_case(count: int) -> str:
    return {0: "NoCommonEigenstate", 1: "UniqueGHZ"}.get(count, "Degenerate")


def check_m_set(d: Directions, m_set) -> int:
    """The listed patterns are exactly the vanishing patterns of d."""
    n = d.n
    require(len(set(m_set)) == len(m_set), "m_set has duplicates")
    require(
        all(len(m) == n and m[0] == "0" and not set(m) - {"0", "1"} for m in m_set),
        "m_set entry is not an n-bit string with m_1 = 0",
    )
    if d.nums is None:
        require(not m_set, f"uniform list lists {len(m_set)} patterns")
        return 0
    count = pattern_count(d.nums, d.q)
    require(len(m_set) == count, f"{len(m_set)} patterns listed, {count} vanish")
    if m_set:
        bits = np.frombuffer("".join(m_set).encode(), dtype=np.uint8).reshape(-1, n)
        sums = (1 - 2 * (bits.astype(np.int64) - 48)) @ np.asarray(d.nums)
        require(bool(np.all(sums % (2 * d.q) == 0)), "a listed pattern does not vanish")
    if d.planted is not None:
        require(d.planted in m_set, f"planted pattern {d.planted} missing")
    return count


def check_classify(d: Directions, out: dict) -> None:
    count = check_m_set(d, out["m_set"])
    require(out["case"] == expected_case(count), f"case {out['case']} for {count} patterns")
    require(out["mode"] == ("exact" if d.exact else "approx"), f"mode {out['mode']}")
    require(not out["warnings"], f"warnings {out['warnings']}")


def dense_states(n: int, states) -> np.ndarray:
    mat = np.zeros((1 << n, len(states)), dtype=np.complex128)
    for k, entries in enumerate(states):
        for e in entries:
            mat[e["index"], k] = complex(e["re"], e["im"])
    return mat


def check_solve(d: Directions, out: dict) -> None:
    count = check_m_set(d, out["m_set"])
    require(out["case"] == expected_case(count), f"case {out['case']} for {count} patterns")
    dim = out["dimension"]
    require(dim == len(out["m_set"]) == len(out["states"]), "dimension != len(m_set)")
    require(out["residuals"] <= RESIDUAL_TOL, f"residual {out['residuals']}")
    require(out["sector_dims"] == expected_sector_dims(d), f"sector_dims {out['sector_dims']}")
    if dim == 0:
        return
    n = d.n
    basis = dense_states(n, out["states"])
    even = even_indices(n)
    odd = np.setdiff1d(np.arange(1 << n), even)
    require(not np.any(basis[odd]), "a state has weight on odd-parity indices")
    require(
        np.allclose(np.linalg.norm(basis, axis=0), 1.0, atol=STATE_TOL), "a state is not normalized"
    )
    # any orthonormal basis of the span of GHZ-class states puts total weight
    # dim / 2^(n-1) on each even index; for dim = 1 that is |amp|^2 = 2^-(n-1)
    weight = np.sum(np.abs(basis[even]) ** 2, axis=1)
    require(
        np.allclose(weight, dim / even.size, rtol=0, atol=STATE_TOL),
        "even-index weight differs from dim / 2^(n-1)",
    )
    ours = np.stack([ghz_class_state(d, m) for m in out["m_set"]], axis=1)
    outside = basis - ours @ (ours.conj().T @ basis)
    require(
        float(np.max(np.linalg.norm(outside, axis=0))) <= RESIDUAL_TOL,
        "states leave the span of the GHZ-class states of m_set",
    )


def check_verify(d: Directions, out: dict) -> None:
    count = expected_sector_dims(d)[0]
    require(out["case"] == expected_case(count), f"case {out['case']} for {count} patterns")
    require(
        out["solver_dimension"] == out["oracle_dimension"] == count,
        f"solver {out['solver_dimension']}, oracle {out['oracle_dimension']}, patterns {count}",
    )
    require(out["subspace_distance"] <= RESIDUAL_TOL, f"subspace distance {out['subspace_distance']}")
    require(out["sector_dims"] == expected_sector_dims(d), f"sector_dims {out['sector_dims']}")
    res = out["identity_residuals"]
    require(max(res["odd"], res["even"]) <= STATE_TOL, f"identity residuals {res}")
    require(out["character_sum_deviation"] == 0, "character sums deviate")
    purity = out["purity"]
    require(purity["projector_dim"] == count, f"projector_dim {purity['projector_dim']}")
    require(purity["empty"] == (count == 0), "purity empty flag")
    if count == 1:
        require(purity["max_entropy"] <= RESIDUAL_TOL, f"entropy {purity['max_entropy']}")
        require(purity["reduced_state_fidelity"] >= 1.0 - STATE_TOL, "reduced-state fidelity")


def check_construct(n: int, target: np.ndarray, identity: bool, out: dict) -> None:
    require(out["case"] == "UniqueGHZ" and out["n"] == n, "case or n")
    require(out["residuals"] <= STATE_TOL, f"residual {out['residuals']}")
    listed = dense_states(n, [out["target_state"]])[:, 0]
    if identity:
        require(
            sorted(e["index"] for e in out["target_state"]) == [0, (1 << n) - 1],
            "target_state is not the GHZ state",
        )
    require(
        abs(np.linalg.norm(listed) - 1.0) <= STATE_TOL
        and abs(np.vdot(target, listed)) >= 1.0 - STATE_TOL,
        "target_state differs from the requested GHZ-class state",
    )
    fracs = [
        Fraction(a["theta"]["pi_num"], a["theta"]["pi_den"])
        for a in out["canonical_angles"]["angles"]
    ]
    q = math.lcm(*(f.denominator for f in fracs))
    require(
        pattern_count([int(f * q) for f in fracs], q) == 1,
        "canonical angles do not have exactly one vanishing pattern",
    )


def check_certify(stabilized: bool, shots: int, out: dict) -> None:
    require(out["count_a"] + out["count_b"] == shots == out["shots"], "round counts")
    if stabilized:
        require(
            out["pass"] and out["mean_a"] == 1.0 and out["mean_b"] == 1.0,
            f"stabilized state: pass {out['pass']}, means {out['mean_a']}, {out['mean_b']}",
        )
    else:
        require(not out["pass"], "non-stabilized state passed")


def check_mixture(expect_a: float, expect_b: float, report) -> None:
    """A mixture with weight on a non-stabilized state fails, and each
    empirical mean lies within six standard errors of its expectation."""
    require(not report.passed, "mixture with a non-stabilized component passed")
    for mean, count, expect in (
        (report.mean_a, report.count_a, expect_a),
        (report.mean_b, report.count_b, expect_b),
    ):
        bound = 6.0 * math.sqrt(max(1.0 - expect**2, 1e-12) / count)
        require(abs(mean - expect) <= bound, f"mean {mean} vs expectation {expect}")
