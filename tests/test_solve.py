import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ghzstab import (
    DirectionList,
    StabilizerCase,
    brute_force_eigenspace,
    classify,
    product_observable,
    sigma_z_product,
    solve_common_eigenspace,
)
from ghzstab.angles import PI, Angle
from ghzstab.bitstrings import even_indices
from ghzstab.cli import main
from ghzstab.errors import DomainError, InternalConsistencyError, SizeError
from ghzstab.linalg import kron_all, subspace_distance
from ghzstab.observables import IDENTITY_2, SIGMA_Z, ProductObservable
from ghzstab.construct import GHZSpec, stabilizing_pair_for
import ghzstab.observables as observables_module
import ghzstab.solve as solve_module
from ghzstab.solve import (
    SECTORS,
    character_sum_check,
    purity_security_check,
    sector_dimensions,
    sector_oracle_bases,
    stabilization_limit,
    trig_parity_identity_residuals,
)
from reference import SIGMA_X, stacked_reference
from sampling import (
    degenerate_directions,
    radians,
    rationals,
    resonant_directions,
    stratified_sample,
    uniform_directions,
)


def oracle_dims(d, tol=1e-9):
    return tuple(b.shape[1] for b in sector_oracle_bases(d, tol))


def test_solver_size_cap():
    with pytest.raises(SizeError):
        solve_common_eigenspace(rationals([(1, 2)] * 13))
    with pytest.raises(SizeError, match="^13 parties exceed the dense cap of 12$"):
        character_sum_check(13)


def test_solve_epr():
    report = solve_common_eigenspace(rationals([(1, 2), (1, 2)]))
    assert report.dimension == 1
    assert report.classification.case is StabilizerCase.UNIQUE_GHZ
    v = report.basis[:, 0]
    epr = np.zeros(4, dtype=complex)
    epr[0] = epr[3] = 1 / math.sqrt(2)
    assert abs(np.vdot(epr, v)) >= 1 - 1e-10
    assert report.residual <= 1e-12


def test_solve_no_eigenstate():
    report = solve_common_eigenspace(rationals([(1, 2), (1, 3)]))
    assert report.dimension == 0
    assert report.basis.shape == (4, 0)


def test_solve_degenerate_all_z():
    report = solve_common_eigenspace(rationals([(1, 1), (1, 1), (0, 1)]))
    assert report.dimension == 4
    # every basis vector lives on even-parity indices
    odd_rows = np.delete(report.basis, even_indices(3), axis=0)
    assert np.max(np.abs(odd_rows)) <= 1e-10


@pytest.mark.parametrize(
    "d, dim",
    [
        pytest.param(rationals([(1, 1), (1, 1), (0, 1)]), 4, id="all_z"),
        pytest.param(rationals([(2, 3), (2, 3), (2, 3), (0, 1)]), 2, id="two_patterns"),
        pytest.param(rationals([(1, 1)] * 4), 8, id="all_pi_four_parties"),
        pytest.param(rationals([(0, 1), (0, 1)]), 2, id="pair_of_equal_observables"),
        # the oracle sees the phis only through the phase that makes A's
        # rotated factors real
        pytest.param(
            DirectionList.of(
                [Angle.exact(p, q) for p, q in
                 ((1, 3), (2, 3), (1, 4), (3, 4), (1, 6), (5, 6), (1, 2), (1, 2))],
                [Angle.radians(0.1 + 0.6 * k) for k in range(8)],
            ),
            12,
            id="n8_nonzero_phis",
        ),
    ],
)
def test_solver_spans_oracle_on_degenerate_inputs(d, dim):
    report = solve_common_eigenspace(d)
    oracle = brute_force_eigenspace(
        product_observable(d), sigma_z_product(d.n_parties)
    )[0]
    assert report.dimension == oracle.shape[1] == dim
    assert subspace_distance(report.basis, oracle) <= 1e-10
    gram = report.basis.conj().T @ report.basis
    assert np.allclose(gram, np.eye(dim), atol=1e-12)


def test_solver_limit_follows_tol():
    # both patterns score |sin(S/2)| = 5e-7 <= tol, so both states are
    # admitted with residual 1e-6, above the fixed floor of the limit
    d = radians([math.pi, math.pi + 1e-6])
    report = solve_common_eigenspace(d, tol=1e-6)
    assert report.dimension == 2
    assert abs(report.residual - 1e-6) <= 1e-12
    oracle = brute_force_eigenspace(product_observable(d), sigma_z_product(2), 1e-6)[0]
    assert oracle.shape[1] == 2
    purity = purity_security_check(report, env_dim=4, trials=5)
    assert len(purity.entropies) == 5
    assert purity.reduced_state_fidelity is None


def test_oracle_examples():
    z = ProductObservable([SIGMA_Z])
    basis = brute_force_eigenspace(z, z)[0]
    assert basis.shape == (2, 1)
    assert abs(abs(basis[0, 0]) - 1) <= 1e-12

    xx = ProductObservable([SIGMA_X] * 2)
    zz = sigma_z_product(2)
    basis = brute_force_eigenspace(xx, zz)[0]
    assert basis.shape == (4, 1)
    epr = np.zeros(4, dtype=complex)
    epr[0] = epr[3] = 1 / math.sqrt(2)
    assert abs(np.vdot(epr, basis[:, 0])) >= 1 - 1e-10

    x = ProductObservable([SIGMA_X])
    assert brute_force_eigenspace(x, z)[0].shape == (2, 0)


def assert_same_space(oracle, reference):
    assert oracle.shape == reference.shape
    assert subspace_distance(oracle, reference) <= 1e-10


def test_oracle_matches_stacked_null_space():
    for n in range(2, 6):
        for d in stratified_sample(n, 20, seed=11):
            a, b = product_observable(d), sigma_z_product(n)
            assert_same_space(
                brute_force_eigenspace(a, b)[0],
                stacked_reference(kron_all(a.mats), kron_all(b.mats)),
            )
            # radians, so every sector cuts at the default tol
            bases = sector_oracle_bases(d.in_mode("approx"))
            for (sa, sb), basis in zip(SECTORS, bases):
                assert_same_space(
                    basis,
                    stacked_reference(sa * kron_all(a.mats), sb * kron_all(b.mats)),
                )


def test_oracle_matches_stacked_null_space_on_rotated_pairs(rng):
    # B is conjugated by random local unitaries, so it is not diagonal
    for n in range(2, 6):
        for _ in range(4):
            pair = stabilizing_pair_for(GHZSpec.random(n, rng))
            oracle = brute_force_eigenspace(pair.a, pair.b)[0]
            assert_same_space(
                oracle, stacked_reference(kron_all(pair.a.mats), kron_all(pair.b.mats))
            )
            assert abs(np.vdot(pair.target.amplitudes, oracle[:, 0])) >= 1 - 1e-10
            minus_b = ProductObservable(
                np.concatenate([-pair.b.mats[:1], pair.b.mats[1:]])
            )
            flipped = brute_force_eigenspace(pair.a, minus_b)[0]
            assert_same_space(
                flipped, stacked_reference(kron_all(pair.a.mats), -kron_all(pair.b.mats))
            )


def stacked_sector(a, b, sa, sb, tol):
    # for each admitted 2-dimensional block the stacked null space holds the
    # bisector of the +1 eigenvectors of sA and sB, up to half the block's
    # angle from the oracle's vector; its component in the +1 eigenspace of
    # sB, (I + sB)/2 times it, is the oracle's vector
    ref = stacked_reference(sa * kron_all(a.mats), sb * kron_all(b.mats), tol)
    return np.linalg.qr(ref + sb * (kron_all(b.mats) @ ref))[0]


def assert_sectors_match_stacked(a, b, tol):
    bases = brute_force_eigenspace(a, b, tol)
    for (sa, sb), basis in zip(SECTORS, bases):
        assert_same_space(basis, stacked_sector(a, b, sa, sb, tol))
    return bases


# 0.75 is above 1/sqrt(2), where a block may count in two sectors; the
# stacked reference's own cut is borderline at tol 1
SECTOR_TOLS = pytest.mark.parametrize("tol", [1e-9, 0.3, 0.75])


@SECTOR_TOLS
def test_oracle_sectors_match_stacked_reference(tol):
    for n in range(2, 6):
        for d in stratified_sample(n, 20, seed=11):
            assert_sectors_match_stacked(product_observable(d), sigma_z_product(n), tol)


@SECTOR_TOLS
def test_oracle_sectors_match_stacked_reference_on_rotated_pairs(tol, rng):
    # B is conjugated by random local unitaries, so it is not diagonal; with
    # its last factor +-I, B's sign at an index skips that party's bit
    for n in range(2, 6):
        for _ in range(4):
            pair = stabilizing_pair_for(GHZSpec.random(n, rng))
            assert_sectors_match_stacked(pair.a, pair.b, tol)
            for factor in (IDENTITY_2, -IDENTITY_2):
                mats = pair.b.mats.copy()
                mats[-1] = factor
                assert_sectors_match_stacked(pair.a, ProductObservable(mats), tol)


@SECTOR_TOLS
def test_oracle_sectors_with_trivial_b(tol, rng):
    # B = +-I: one of B's eigenspaces is empty, so C has no rows or no
    # columns, and the sectors of that side are empty
    for n in range(1, 5):
        a = product_observable(uniform_directions(n, rng))
        for sign in (1, -1):
            mats = np.array([IDENTITY_2] * n)
            mats[0] *= sign
            bases = assert_sectors_match_stacked(a, ProductObservable(mats), tol)
            half = 1 << (n - 1)
            expected = [half, 0, half, 0] if sign > 0 else [0, half, 0, half]
            assert [x.shape[1] for x in bases] == expected


def test_solver_matches_oracle_on_stratified_sample():
    for n in range(2, 7):
        for d in stratified_sample(n, 30, seed=7):
            report = solve_common_eigenspace(d)
            oracle = brute_force_eigenspace(
                product_observable(d), sigma_z_product(n)
            )[0]
            assert report.dimension == oracle.shape[1]
            assert subspace_distance(report.basis, oracle) <= 1e-7


def test_solver_basis_even_support_and_residuals(rng):
    for _ in range(10):
        d = stratified_sample(4, 10, seed=int(rng.integers(1 << 30)))[5]
        report = solve_common_eigenspace(d)
        if report.dimension == 0:
            continue
        odd_rows = np.delete(report.basis, even_indices(4), axis=0)
        assert np.max(np.abs(odd_rows)) <= 1e-10
        assert report.residual <= 1e-8


def test_sector_dimensions_single_qubit():
    d = rationals([(0, 1)])
    assert sector_dimensions(d)[1] == oracle_dims(d) == (1, 0, 0, 1)


def test_sector_dimensions_bell():
    # the four Bell states, one per sector
    d = rationals([(1, 2), (1, 2)])
    assert sector_dimensions(d)[1] == oracle_dims(d) == (1, 1, 1, 1)


def test_sector_dimensions_empty_everywhere():
    d = rationals([(1, 2), (1, 3)])
    assert sector_dimensions(d)[1] == oracle_dims(d) == (0, 0, 0, 0)


@pytest.mark.parametrize(
    "d",
    [
        rationals(
            [(1, 3), (-2, 5), (7, 4)], [(1, 6), (3, 2), (-1, 5)]
        ),
        radians([0.7, -1.9, 2.4], [0.3, 4.1, -0.8]),
    ],
    ids=["exact", "radians"],
)
def test_sector_rule_flips_theta_1(d):
    # the derivation in sector_dimensions' docstring: (pi - theta_1,
    # phi_1 + pi) is -A, and sigma_X on party 1, which negates Z^N,
    # conjugates A to (pi - theta_1, -phi_1); both keep an exact list exact
    n = d.n_parties
    t1, p1 = d.thetas[0], d.phis[0]

    def dense(theta, phi):
        moved = DirectionList.of((theta,) + d.thetas[1:], (phi,) + d.phis[1:])
        assert moved.all_exact == d.all_exact
        return kron_all(product_observable(moved).mats)

    a = dense(t1, p1)
    x1 = kron_all([SIGMA_X] + [IDENTITY_2] * (n - 1))
    z = kron_all([SIGMA_Z] * n)
    assert np.max(np.abs(dense(PI - t1, p1 + PI) + a)) <= 1e-12
    assert np.max(np.abs(x1 @ a @ x1 - dense(PI - t1, -p1))) <= 1e-12
    assert np.array_equal(x1 @ z @ x1, -z)


def test_no_eigenstate_in_any_sector(rng):
    # classified case (i) means no common eigenstate of any eigenvalue pair
    found = 0
    for d in stratified_sample(3, 30, seed=13):
        if classify(d).case is StabilizerCase.NO_COMMON_EIGENSTATE:
            found += 1
            assert oracle_dims(d) == (0, 0, 0, 0)
            assert sector_dimensions(d)[1] == (0, 0, 0, 0)
    assert found >= 5


@st.composite
def exact_lists(draw):
    n = draw(st.integers(1, 6))
    den = draw(st.integers(1, 12))
    nums = draw(st.lists(st.integers(-2 * den, 2 * den), min_size=n, max_size=n))
    phis = draw(st.lists(st.integers(0, 2 * den - 1), min_size=n, max_size=n))
    return rationals(
        [(p, den) for p in nums], [(p, den) for p in phis]
    )


# theta_1 at the flip's edges: 0, its fixed point pi/2, pi, -pi and 4 pi
@settings(max_examples=60, deadline=None)
@given(exact_lists())
@example(rationals([(0, 1), (1, 3), (1, 3)]))
@example(rationals([(1, 2), (1, 3), (1, 3)]))
@example(rationals([(1, 1), (1, 3), (1, 3)]))
@example(rationals([(-1, 1), (1, 3), (1, 3)]))
@example(rationals([(4, 1), (1, 3), (1, 3)]))
def test_solver_matches_oracles_on_exact_lists(d):
    # the theorem as a property: dimension = vanishing-pattern count = oracle
    # dimension, with the same span, in every sign sector
    report = solve_common_eigenspace(d)
    oracle = brute_force_eigenspace(
        product_observable(d), sigma_z_product(d.n_parties)
    )[0]
    assert report.dimension == len(report.classification.patterns)
    assert report.dimension == oracle.shape[1]
    assert subspace_distance(report.basis, oracle) <= 1e-8
    assert sector_dimensions(d)[1] == oracle_dims(d)


@settings(max_examples=60, deadline=None)
@given(exact_lists())
@example(radians([0.0, math.pi / 3, math.pi / 3]))
@example(radians([math.pi, math.pi / 3, math.pi / 3]))
@example(radians([-math.pi, math.pi / 3, math.pi / 3]))
def test_sector_dimensions_match_oracles_on_radian_lists(d):
    # sector symmetry for radian thetas, away from the cut: as radians each
    # signed sum is k pi / den (den <= 12) up to rounding, so every score
    # |sin(S/2)| is about 1e-16 or at least sin(pi / 24)
    r = d.in_mode("approx")
    assert sector_dimensions(r)[1] == oracle_dims(r)


@st.composite
def near_threshold_lists(draw):
    # radian list with pattern m's signed sum eps away from 2 pi k, and tol
    # a factor 0.5-0.999 or 1.001-2 from that pattern's score |sin(eps/2)|
    n = draw(st.integers(2, 6))
    rest = draw(st.lists(st.floats(-math.pi, math.pi), min_size=n - 1, max_size=n - 1))
    m = draw(st.integers(0, (1 << (n - 1)) - 1))
    eps = 10.0 ** draw(st.floats(-8.0, 0.0))
    k = draw(st.integers(-1, 1))
    signed = sum(-t if (m >> (n - 2 - l)) & 1 else t for l, t in enumerate(rest))
    d = radians([2 * math.pi * k + eps - signed] + rest)
    factor = draw(st.one_of(st.floats(0.5, 0.999), st.floats(1.001, 2.0)))
    return d, min(math.sin(eps / 2) * factor, 0.9)


@settings(max_examples=80, deadline=None)
@given(near_threshold_lists())
def test_oracle_counts_with_classify_rule_near_threshold(case):
    # the oracle's singular-value cut admits |sin(S/2)| <= tol, as classify
    d, tol = case
    oracle = brute_force_eigenspace(
        product_observable(d), sigma_z_product(d.n_parties), tol
    )[0]
    assert oracle.shape[1] == len(classify(d, tol).patterns)


def test_oracle_keeps_blocks_at_the_largest_singular_value():
    # theta_1 - theta_2 = -pi/2 gives a block with |sin S| = 1, which the SVD
    # returns as 1 + 2e-16 here; from tol = 1/sqrt(2) on every block counts,
    # so no cut at 1 may drop it
    d = radians([math.pi / 4, 3 * math.pi / 4])
    for tol in (0.75, 1.0, 5.0):
        assert oracle_dims(d, tol) == sector_dimensions(d, tol)[1]


@st.composite
def radian_lists_at_any_tol(draw):
    n = draw(st.integers(1, 6))
    angle = st.floats(-2 * math.pi, 2 * math.pi)
    thetas = draw(st.lists(angle, min_size=n, max_size=n))
    phis = draw(st.lists(angle, min_size=n, max_size=n))
    tol = draw(st.floats(0.0, 5.0, exclude_min=True))
    return radians(thetas, phis), tol


@settings(max_examples=60, deadline=None)
@given(radian_lists_at_any_tol())
def test_oracle_sector_counts_match_classify_at_any_tol(case):
    # one SVD's cut and the compression eigenvalues count every sector by
    # classify's rule, past 1/sqrt(2) and past 1 too; a score within float
    # noise of tol may fall either way, so such draws are skipped
    d, tol = case
    thetas = np.array(d.theta_radians())
    signs = np.array(list(itertools.product((1, -1), repeat=d.n_parties - 1)))
    for first in (thetas[0], math.pi - thetas[0]):
        sums = first + signs @ thetas[1:]
        assume(np.min(np.abs(np.abs(np.sin(sums / 2)) - tol)) > 1e-9)
    assert oracle_dims(d, tol) == sector_dimensions(d, tol)[1]


@st.composite
def involution_factors(draw):
    # +-I, +-Z, or a spin observable whose off-diagonal entry has a complex
    # phase and any size in [0, 1], subnormal ones included
    kind = draw(st.sampled_from(["identity", "diagonal", "general"]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "identity":
        return sign * IDENTITY_2
    if kind == "diagonal":
        return sign * SIGMA_Z
    s = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([5e-324, 1e-310, 1e-160])))
    c = sign * math.sqrt(1.0 - s * s)
    p = draw(st.floats(-math.pi, math.pi))
    e = complex(math.cos(p), math.sin(p))
    return np.array([[c, s * e.conjugate()], [s * e, -c]])


@st.composite
def product_pairs(draw):
    n = draw(st.integers(1, 5))
    factors = st.lists(involution_factors(), min_size=n, max_size=n)
    return ProductObservable(draw(factors)), ProductObservable(draw(factors))


@settings(max_examples=150, deadline=None)
@given(product_pairs())
def test_oracle_sectors_are_orthonormal_and_stabilized_on_general_pairs(pair):
    # the oracle rephases B's frames so that A's factors are real, and its
    # SVD sees only float64; each sector's basis is orthonormal and fixed by
    # (sA A, sB B) up to the residual an admitted block may have
    a, b = pair
    svd = np.linalg.svd
    seen = []

    def recording(x, *args, **kwargs):
        seen.append(x.dtype)
        return svd(x, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(observables_module.np.linalg, "svd", recording)
        bases = brute_force_eigenspace(a, b)
    assert seen == [np.float64]
    limit = stabilization_limit(1e-9)
    for (sa, sb), basis in zip(SECTORS, bases):
        k = basis.shape[1]
        assert np.abs(basis.conj().T @ basis - np.eye(k)).max(initial=0.0) <= 1e-12
        for sign, op in ((sa, a), (sb, b)):
            residual = sign * op.apply(basis) - basis
            assert np.linalg.norm(residual, axis=0).max(initial=0.0) <= limit


# ---------------------------------------------------------------------------
# identities


def test_identity_residual_single_party():
    d = rationals([(1, 3)])
    odd, even = trig_parity_identity_residuals(d)
    assert odd <= 1e-15 and even <= 1e-15


def test_identity_even_sum_value():
    # N = 2, theta = (pi/2, pi/2): even-parity sum is (-i)^2 = -1 = cos(pi)
    d = rationals([(1, 2), (1, 2)])
    odd, even = trig_parity_identity_residuals(d)
    assert even <= 1e-12 and odd <= 1e-12


def test_identity_residuals_random(rng):
    for n in [1, 2, 5, 10, 16]:
        d = radians(rng.uniform(0, 2 * math.pi, size=n))
        odd, even = trig_parity_identity_residuals(d)
        assert odd <= 1e-10 and even <= 1e-10


def test_identity_survives_half_pi():
    # cos(theta) = 0 is fine: products are evaluated in sin/cos form
    d = rationals([(1, 2), (1, 2), (1, 2)])
    odd, even = trig_parity_identity_residuals(d)
    assert odd <= 1e-12 and even <= 1e-12


@pytest.mark.parametrize("n", [1, 3, 6, 10])
def test_character_sum_check_zero_deviation(n):
    assert character_sum_check(n, seed=3) == 0.0


def test_audits_reject_negative_seed():
    # numpy would raise its own ValueError for the seed
    d = rationals([(1, 2), (1, 2)])
    with pytest.raises(DomainError, match="seed"):
        character_sum_check(3, seed=-1)
    with pytest.raises(DomainError, match="seed"):
        purity_security_check(solve_common_eigenspace(d), seed=-1)


# ---------------------------------------------------------------------------
# purifications


def test_purity_unique_case():
    d = rationals([(1, 2), (1, 2)])
    solved = solve_common_eigenspace(d)
    report = purity_security_check(solved, env_dim=4, trials=20, seed=5)
    assert solved.classification.case is StabilizerCase.UNIQUE_GHZ
    assert report.entropies.max() <= 1e-8
    assert report.reduced_state_fidelity >= 1 - 1e-9


def test_purity_degenerate_case():
    d = rationals([(1, 1), (1, 1), (0, 1)])
    solved = solve_common_eigenspace(d)
    report = purity_security_check(solved, env_dim=4, trials=20, seed=5)
    assert solved.dimension == 4
    assert report.entropies.max() > 0.1
    assert report.reduced_state_fidelity is None


def test_purity_empty_case():
    d = rationals([(1, 2), (1, 3)])
    solved = solve_common_eigenspace(d)
    report = purity_security_check(solved, env_dim=4, trials=5)
    assert solved.dimension == 0
    assert len(report.entropies) == 0
    assert report.reduced_state_fidelity is None


@pytest.mark.parametrize(
    "d, env_dim",
    [
        (rationals([(1, 2), (1, 2)]), 4),
        (rationals([(1, 1), (1, 1), (0, 1)]), 4),
        (
            radians([0.4, 1.3, 2.2, 0.4 + 1.3 + 2.2 - 2 * math.pi]),
            4,
        ),
        (rationals([(1, 3)] * 6), 11),  # 11 patterns vanish: env_dim = d
    ],
    ids=["unique", "degenerate", "unique_radians", "degenerate_n6"],
)
def test_purity_batch_matches_per_draw_loop(d, env_dim):
    # reference: the same (dim, env_dim) coefficient draws, embedded in the
    # 2^n rows of the solver's basis, with their own SVD and overlap
    trials, seed = 7, 3
    solved = solve_common_eigenspace(d)
    assert solved.dimension <= env_dim
    report = purity_security_check(solved, env_dim=env_dim, trials=trials, seed=seed)
    basis = solved.basis
    shape = (solved.dimension, env_dim)
    rng = np.random.default_rng(seed)
    entropies, fidelities = [], []
    for _ in range(trials):
        proj = basis @ (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        proj /= np.linalg.norm(proj)
        probs = np.linalg.svd(proj, compute_uv=False) ** 2
        probs = probs[probs > 1e-15]
        entropies.append(float(-np.sum(probs * np.log2(probs))))
        fidelities.append(float(np.linalg.norm(basis[:, 0].conj() @ proj) ** 2))
    assert len(report.entropies) == trials
    assert np.max(np.abs(np.array(report.entropies) - entropies)) <= 1e-12
    if solved.classification.case is StabilizerCase.UNIQUE_GHZ:
        assert abs(report.reduced_state_fidelity - min(fidelities)) <= 1e-12
    else:
        assert report.reduced_state_fidelity is None
        assert report.entropies.max() > 0.1


def record_draw_sizes(monkeypatch):
    """The size of every normal draw of the generators made from now on."""
    sizes = []
    default_rng = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def normal(self, *args, size=None, **kwargs):
            sizes.append(size)
            return self.rng.normal(*args, size=size, **kwargs)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    monkeypatch.setattr(solve_module.np.random, "default_rng", Recording)
    return sizes


@pytest.mark.parametrize(
    "d, bits, per_batch",
    [
        (rationals([(1, 2), (1, 2)]), 3, 2),
        (rationals([(1, 1), (1, 1), (0, 1)]), 5, 2),
        (rationals([(1, 1), (1, 1), (0, 1)]), 3, 1),  # a draw exceeds the batch
    ],
    ids=["unique", "degenerate", "degenerate_one_per_batch"],
)
def test_purity_batches_continue_one_stream(d, bits, per_batch, monkeypatch):
    # with room for one or two (dim, 4) draws per batch, seven trials are
    # read in several batches, and exactly as in one batch of seven
    solved = solve_common_eigenspace(d)
    whole = purity_security_check(solved, env_dim=4, trials=7, seed=3)
    monkeypatch.setattr(solve_module, "PURITY_BATCH_BITS", bits)
    sizes = record_draw_sizes(monkeypatch)
    split = purity_security_check(solved, env_dim=4, trials=7, seed=3)
    batches = [per_batch] * (7 // per_batch) + [1] * (7 % per_batch)
    assert sizes == [(k, 2, solved.dimension, 4) for k in batches]
    assert np.array_equal(split.entropies, whole.entropies)
    assert split.reduced_state_fidelity == whole.reduced_state_fidelity


def test_purity_rejects_a_basis_that_is_not_orthonormal():
    # the audit reads each draw from its coefficients in the basis, which
    # stands for the projected draw only when the basis is an isometry
    d = rationals([(1, 1), (1, 1), (0, 1)])
    solved = solve_common_eigenspace(d)
    basis = solved.basis.copy()
    basis[:, 1] *= 1.01
    with pytest.raises(InternalConsistencyError, match="not orthonormal"):
        purity_security_check(dataclasses.replace(solved, basis=basis), env_dim=4)


def test_solver_rejects_an_eigenspace_that_is_not_stabilized(
    tmp_path, capsys, monkeypatch
):
    # the last column, tilted by eps towards a unit u orthogonal to the
    # basis, misses stabilization by 5e-8, above stabilization_limit(1e-9)
    # = 1.2e-8, while the columns stay orthonormal. solve's own per-state
    # check, the only stabilization check on the CLI's routes, refuses it,
    # and solve and verify exit 3
    d = rationals([(1, 1), (1, 1), (0, 1)])
    solved = solve_common_eigenspace(d)
    assert solved.dimension == 4
    assert stabilization_limit(solved.classification.tol) == pytest.approx(1.2e-8)
    basis = solved.basis.copy()
    rng = np.random.default_rng(0)
    u = rng.normal(size=basis.shape[0]) + 1j * rng.normal(size=basis.shape[0])
    u -= basis @ (basis.conj().T @ u)
    u /= np.linalg.norm(u)
    eps = 5e-8 / np.linalg.norm(product_observable(d).apply(u) - u)
    tilted = basis[:, -1] + eps * u
    basis[:, -1] = tilted / np.linalg.norm(tilted)
    assert np.abs(basis.conj().T @ basis - np.eye(4)).max() <= 1e-12
    monkeypatch.setattr(solve_module, "ghz_states", lambda d, bits: basis)
    with pytest.raises(InternalConsistencyError, match="fails stabilization check"):
        solve_common_eigenspace(d)
    path = tmp_path / "angles.json"
    path.write_text(json.dumps({
        "n": 3,
        "angles": [{"theta": {"pi_num": k, "pi_den": 1}} for k in (1, 1, 0)],
    }))
    for command in ("solve", "verify"):
        assert main([command, str(path)]) == 3, command
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith(
            "internal consistency error: solver basis fails stabilization check"
        )


@pytest.mark.parametrize(
    "d, env_dim",
    [
        (rationals([(1, 2), (1, 2)]), 4),
        (rationals([(1, 1), (1, 1), (0, 1)]), 8),
        (rationals([(1, 3)] * 6), 11),
    ],
    ids=["unique", "degenerate", "degenerate_n6"],
)
def test_purity_draws_only_in_the_solver_coordinates(d, env_dim, monkeypatch):
    # the audit draws once, (trials, 2, dim, env_dim): the real and imaginary
    # (dim, env_dim) coefficients of every trial; nothing has 2^n rows
    solved = solve_common_eigenspace(d)
    sizes = record_draw_sizes(monkeypatch)
    purity_security_check(solved, env_dim=env_dim, trials=3, seed=1)
    assert sizes == [(3, 2, solved.dimension, env_dim)]
    assert sizes[0][2] < 1 << d.n_parties  # rows of each trial's draw


@st.composite
def sampled_lists(draw):
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    make = draw(st.sampled_from(
        [uniform_directions, resonant_directions, degenerate_directions]
    ))
    return make(n, rng)


@settings(max_examples=60, deadline=None)
@given(sampled_lists(), st.integers(0, 4), st.integers(0, 2**16))
def test_purity_report_invariants(d, extra_env, seed):
    # what the audit's deleted checks claimed, as properties: solve's
    # per-state limit bounds the dense operators' spectral norms over
    # range(P) (so the audit need not take them), entropies stay within
    # log2 of the Schmidt rank, and a unique state leaks nothing
    solved = solve_common_eigenspace(d)
    env_dim = solved.dimension + extra_env
    report = purity_security_check(solved, env_dim=env_dim, trials=4, seed=seed)
    if solved.dimension == 0:
        assert len(report.entropies) == 0
        return
    basis = solved.basis
    a_dense = kron_all(product_observable(d).mats)
    z_dense = kron_all([SIGMA_Z] * d.n_parties)
    limit = stabilization_limit(solved.classification.tol)
    bound = math.sqrt(solved.dimension) * limit
    assert np.linalg.norm(a_dense @ basis - basis, 2) <= bound
    assert np.linalg.norm(z_dense @ basis - basis, 2) == 0.0
    top = math.log2(min(solved.dimension, env_dim)) + 1e-12
    assert all(0.0 <= e <= top for e in report.entropies)
    if solved.classification.case is StabilizerCase.UNIQUE_GHZ:
        assert abs(report.reduced_state_fidelity - 1.0) <= 1e-12
        assert report.entropies.max() <= 1e-12
    else:
        assert report.reduced_state_fidelity is None


def test_purity_env_too_small():
    with pytest.raises(DomainError):
        d = rationals([(1, 1), (1, 1), (0, 1)])
        purity_security_check(solve_common_eigenspace(d), env_dim=2, trials=5)


def test_purity_draw_size_cap():
    # one draw of 1 * (2^23 + 1) coefficients, 2^23 + 1 trials, or none, is
    # refused before any draw; a size past the 4300 digits that str()
    # converts is named by its digit count
    solved = solve_common_eigenspace(rationals([(1, 2), (1, 2)]))
    env, huge = (1 << 23) + 1, 10**4200
    digits = "an integer of 4201 digits"
    for kwargs, error, message in (
        ({"env_dim": env, "trials": 1}, SizeError,
         f"one purification of dim 1 * env_dim {env} = {env} coefficients "
         "exceeds 2^23"),
        ({"env_dim": 1, "trials": env}, SizeError, f"trials {env} exceeds 2^23"),
        ({"env_dim": huge, "trials": huge}, SizeError,
         f"one purification of dim 1 * env_dim {digits} = {digits} coefficients "
         "exceeds 2^23"),
        ({"trials": 10**400}, SizeError,
         "trials an integer of 401 digits exceeds 2^23"),
        ({"trials": 0}, DomainError, "trials must be >= 1, got 0"),
    ):
        with pytest.raises(error) as exc:
            purity_security_check(solved, **kwargs)
        assert str(exc.value) == message
