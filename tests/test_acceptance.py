"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with pytest -s).

Criteria 2, 3, and 9 share one stratified random sample of 200 direction
lists per party count in 2..8, solved once and cached.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from ghzstab import (
    CertificationConfig,
    DirectionList,
    GHZSpec,
    StabilizerCase,
    StateVector,
    brute_force_eigenspace,
    classify,
    product_observable,
    run_certification,
    sigma_z_product,
    solve_common_eigenspace,
    stabilizing_pair_for,
)
from ghzstab.bitstrings import bit_labels
from ghzstab.construct import canonical_angles, ghz_from_pattern
from ghzstab.linalg import subspace_distance
from ghzstab.solve import (
    character_sum_check,
    purity_security_check,
    sector_dimensions,
    sector_oracle_bases,
    trig_parity_identity_residuals,
)
from reference import canonical_stabilizer_generators, fidelity, stabilizer_dimension
from sampling import stratified_sample

SAMPLE_SEED = 20260808
SAMPLE_COUNT = 200
SAMPLE_PARTY_RANGE = range(2, 9)


@dataclass
class SolvedInstance:
    n: int
    directions: DirectionList
    case: StabilizerCase
    members: np.ndarray
    solver_dim: int
    oracle_dim: int
    distance: float
    basis_matrix: np.ndarray


_cache = {}


def solved_sample():
    if "sample" not in _cache:
        instances = []
        for n in SAMPLE_PARTY_RANGE:
            for d in stratified_sample(n, SAMPLE_COUNT, seed=SAMPLE_SEED):
                report = solve_common_eigenspace(d)
                oracle = brute_force_eigenspace(
                    product_observable(d), sigma_z_product(n)
                )[0]
                instances.append(
                    SolvedInstance(
                        n=n,
                        directions=d,
                        case=report.classification.case,
                        members=report.classification.patterns.bits,
                        solver_dim=report.dimension,
                        oracle_dim=oracle.shape[1],
                        distance=subspace_distance(report.basis, oracle),
                        basis_matrix=report.basis,
                    )
                )
        _cache["sample"] = instances
    return _cache["sample"]


def report_line(num, text):
    print(f"acceptance criterion {num}: PASS ({text})")


def test_criterion_1_epr_reproduction():
    start = time.perf_counter()
    d = DirectionList.from_rationals([(1, 2), (1, 2)])
    report = classify(d)
    assert report.case is StabilizerCase.UNIQUE_GHZ
    solved = solve_common_eigenspace(d)
    assert solved.dimension == 1
    epr = StateVector.ghz(2)
    fid = fidelity(StateVector(2, solved.basis[:, 0]), epr)
    assert fid >= 1 - 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_line(1, f"fidelity {fid:.12f}, {elapsed * 1000:.0f} ms")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    sample = solved_sample()
    assert len(sample) == SAMPLE_COUNT * len(SAMPLE_PARTY_RANGE)
    for inst in sample:
        assert inst.solver_dim == inst.oracle_dim, inst.directions
        assert inst.distance <= 1e-7, inst.directions
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    worst = max(inst.distance for inst in sample)
    report_line(
        2,
        f"{len(sample)} instances, dims agree, worst distance {worst:.2e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_3_classification_trichotomy():
    sample = solved_sample()
    counts = {case: 0 for case in StabilizerCase}
    for inst in sample:
        counts[inst.case] += 1
        if inst.case is StabilizerCase.NO_COMMON_EIGENSTATE:
            assert inst.solver_dim == 0
        elif inst.case is StabilizerCase.UNIQUE_GHZ:
            assert inst.solver_dim == 1
            state = ghz_from_pattern(inst.directions, int(inst.members[0]))
            solver_state = StateVector(inst.n, inst.basis_matrix[:, 0])
            assert fidelity(solver_state, state) >= 1 - 1e-9
        else:
            assert inst.solver_dim > 1 or len(inst.members) > 1
            assert inst.distance <= 1e-7
    # every branch of the trichotomy must actually be exercised
    assert all(counts[case] > 50 for case in StabilizerCase), counts
    # case (i) claims no common eigenstates of any eigenvalue pair: check all
    # four sign sectors on a subsample per party count
    checked = 0
    for n in SAMPLE_PARTY_RANGE:
        picked = [
            inst for inst in sample
            if inst.n == n and inst.case is StabilizerCase.NO_COMMON_EIGENSTATE
        ][:20]
        for inst in picked:
            oracle = sector_oracle_bases(inst.directions)
            assert tuple(b.shape[1] for b in oracle) == (0, 0, 0, 0)
            assert sector_dimensions(
                inst.directions, classify(inst.directions)
            ) == (0, 0, 0, 0)
            checked += 1
    report_line(
        3,
        f"case counts {[counts[c] for c in StabilizerCase]}, "
        f"{checked} all-sector checks",
    )


def test_criterion_4_construction_sweep():
    start = time.perf_counter()
    for n in range(2, 13):
        report = classify(canonical_angles(n))
        assert report.mode == "exact"
        assert report.case is StabilizerCase.UNIQUE_GHZ, n
    rng = np.random.default_rng(SAMPLE_SEED)
    trials = 0
    worst = 0.0
    for n in range(2, 10):
        for _ in range(50):
            spec = GHZSpec.random(n, rng)
            pair = stabilizing_pair_for(spec)
            worst = max(worst, pair.residual)
            assert pair.residual <= 1e-9
            # the construction decides uniqueness by the theorem; the oracle
            # checks it independently
            assert brute_force_eigenspace(pair.a, pair.b)[0].shape[1] == 1, n
            trials += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    report_line(
        4,
        f"canonical 2..12 unique, {trials} random pairs at oracle dim 1, "
        f"worst residual {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_5_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(SAMPLE_SEED + 5)
    worst = 0.0
    for n in range(1, 17):
        for _ in range(100):
            d = DirectionList.from_radians(rng.uniform(0, 2 * math.pi, size=n))
            odd, even = trig_parity_identity_residuals(d)
            worst = max(worst, odd, even)
            assert odd <= 1e-10 and even <= 1e-10
    for n in range(1, 13):
        assert character_sum_check(n, seed=n) == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report_line(
        5, f"worst identity residual {worst:.2e}, character sums exact, "
        f"{elapsed:.1f} s"
    )


def test_criterion_6_stabilizer_dimension_formula():
    for n in range(2, 9):
        gens = canonical_stabilizer_generators(n)
        for k in range(1, n + 1):
            assert stabilizer_dimension(gens[:k]) == 1 << (n - k)
    report_line(6, "2^(N-k) exact for N in 2..8, k in 1..N")


def test_criterion_7_security_property():
    unique_solved = solve_common_eigenspace(
        DirectionList.from_rationals([(1, 2), (1, 2)])
    )
    unique = purity_security_check(
        unique_solved, env_dim=8, trials=50, seed=SAMPLE_SEED,
    )
    assert unique_solved.classification.case is StabilizerCase.UNIQUE_GHZ
    assert unique.entropies.max() <= 1e-8
    degenerate_solved = solve_common_eigenspace(
        DirectionList.from_rationals([(1, 1), (1, 1), (0, 1)])
    )
    degenerate = purity_security_check(
        degenerate_solved, env_dim=8, trials=50, seed=SAMPLE_SEED,
    )
    assert degenerate_solved.dimension == 4
    assert any(e > 0.1 for e in degenerate.entropies)
    report_line(
        7,
        f"unique max entropy {unique.entropies.max():.2e}, degenerate max "
        f"{degenerate.entropies.max():.3f}",
    )


def test_criterion_8_certification_statistics():
    d = DirectionList.from_rationals([(1, 2), (1, 2)])
    state = StateVector(2, solve_common_eigenspace(d).basis[:, 0])
    cfg = CertificationConfig(shots=10_000, seed=SAMPLE_SEED)
    good = run_certification(state, d, cfg)
    assert good.mean_a == 1.0 and good.mean_b == 1.0
    assert good.passed

    d3 = canonical_angles(3)
    zero = StateVector.basis_state(3, 0)
    bad = run_certification(zero, d3, cfg)
    assert not bad.passed
    assert bad.mean_b == 1.0
    analytic = math.cos(2 * math.pi / 3) ** 3  # -1/8
    assert abs(bad.mean_a - analytic) <= 5 * bad.stderr_a
    report_line(
        8,
        f"eigenstate means exactly 1, |0..0> mean_a {bad.mean_a:.4f} vs "
        f"analytic {analytic:.4f}",
    )


def test_criterion_9_conjecture_audit():
    # non-gating: record how the degenerate eigenspace dimension compares
    # with the number of vanishing patterns; discrepancies are reported,
    # not failed
    sample = solved_sample()
    degenerate = [s for s in sample if s.case is StabilizerCase.DEGENERATE]
    assert degenerate, "sample contains no degenerate instances"
    agree = 0
    discrepancies = []
    for inst in degenerate:
        if inst.oracle_dim == len(inst.members):
            agree += 1
        else:
            discrepancies.append(
                (inst.n, bit_labels(inst.members, inst.n), inst.oracle_dim)
            )
    for n, members, dim in discrepancies[:20]:
        print(
            f"  audit: n={n} patterns={members} oracle_dim={dim} "
            f"(count {len(members)})"
        )
    report_line(
        9,
        f"{agree}/{len(degenerate)} degenerate instances have eigenspace "
        f"dimension equal to the pattern count; {len(discrepancies)} "
        "discrepancies logged",
    )
