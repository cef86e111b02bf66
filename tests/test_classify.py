import math

import numpy as np
import pytest

from ghzstab import (
    Angle,
    BitString,
    DirectionList,
    StabilizerCase,
    brute_force_eigenspace,
    classify,
    pattern_condition,
    product_observable,
    sector_transform,
    sigma_z_product,
    sign_pattern_set,
    signed_angle_sum,
)
from ghzstab.errors import DomainError, ShapeError
from ghzstab.sampling import uniform_directions


def rationals(*pairs):
    return DirectionList.from_rationals(list(pairs))


def test_signed_angle_sum_examples():
    d = rationals((1, 2), (1, 2))
    assert signed_angle_sum(d, BitString.from_string("01")).pi_multiple == 0
    assert signed_angle_sum(d, BitString.from_string("00")).pi_multiple == 1
    d3 = rationals((2, 3), (2, 3), (2, 3))
    assert signed_angle_sum(d3, BitString.from_string("000")).pi_multiple == 2


def test_signed_angle_sum_shape_error():
    with pytest.raises(ShapeError):
        signed_angle_sum(rationals((1, 2)), BitString.from_string("01"))


def test_sign_pattern_set_epr():
    d = rationals((1, 2), (1, 2))
    patterns = sign_pattern_set(d)
    assert [str(m) for m in patterns.members] == ["01"]
    assert signed_angle_sum(d, patterns.members[0]).pi_multiple == 0
    assert [str(m.complement()) for m in patterns.members] == ["10"]


def test_sign_pattern_set_canonical_triple():
    d = rationals((2, 3), (2, 3), (2, 3))
    patterns = sign_pattern_set(d)
    assert [str(m) for m in patterns.members] == ["000"]
    assert signed_angle_sum(d, patterns.members[0]).pi_multiple == 2


def test_sign_pattern_set_degenerate_triple():
    # theta = (pi, pi, 0): every pattern with m_1 = 0 has sum 2*pi or 0,
    # matching the brute-force eigenspace dimension of 4
    d = rationals((1, 1), (1, 1), (0, 1))
    patterns = sign_pattern_set(d)
    assert [str(m) for m in patterns.members] == ["000", "001", "010", "011"]
    sums = sorted(signed_angle_sum(d, m).pi_multiple for m in patterns.members)
    assert sums == [0, 0, 2, 2]
    oracle = brute_force_eigenspace(product_observable(d), sigma_z_product(3))
    assert oracle.count == 4


def test_members_have_leading_zero(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        d = uniform_directions(n, rng)
        for m in sign_pattern_set(d).members:
            assert m.bit(1) == 0


def test_classify_trichotomy():
    # oracle dimensions computed first: 0, 1, 4
    no = rationals((1, 2), (1, 3))
    assert brute_force_eigenspace(product_observable(no), sigma_z_product(2)).count == 0
    assert classify(no).case is StabilizerCase.NO_COMMON_EIGENSTATE

    unique = rationals((1, 2), (1, 2))
    assert (
        brute_force_eigenspace(product_observable(unique), sigma_z_product(2)).count
        == 1
    )
    assert classify(unique).case is StabilizerCase.UNIQUE_GHZ

    deg = rationals((1, 1), (1, 1), (0, 1))
    assert classify(deg).case is StabilizerCase.DEGENERATE


def test_classify_mode_flags():
    exact = rationals((1, 2), (1, 2))
    assert classify(exact).mode == "exact"
    assert classify(exact, mode="approx").mode == "approx"
    mixed = DirectionList.of([Angle.exact(1, 2), Angle.radians(1.0)])
    assert classify(mixed).mode == "approx"
    with pytest.raises(DomainError):
        classify(mixed, mode="exact")


def test_exact_vs_approx_agreement(rng):
    for _ in range(40):
        n = int(rng.integers(2, 7))
        nums = rng.integers(0, 12, size=n)
        dens = rng.integers(1, 7, size=n)
        d = DirectionList.from_rationals(
            [(int(p), int(q)) for p, q in zip(nums, dens)]
        )
        exact_members = [str(m) for m in sign_pattern_set(d).members]
        d_float = DirectionList.of(
            [Angle.radians(t.to_radians()) for t in d.thetas], d.phis
        )
        approx_members = [str(m) for m in sign_pattern_set(d_float, tol=1e-9).members]
        assert exact_members == approx_members


def test_complement_symmetry_unrestricted(rng):
    # the vanishing condition is checked on all patterns, before the
    # leading-zero filter
    for _ in range(30):
        n = int(rng.integers(1, 6))
        d = uniform_directions(n, rng)
        for bits in range(1 << n):
            m = BitString(n, bits)
            assert pattern_condition(d, m) == pattern_condition(d, m.complement())


def test_condition_matches_membership(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        nums = rng.integers(0, 8, size=n)
        d = DirectionList.from_rationals([(int(p), 4) for p in nums])
        members = {m.bits for m in sign_pattern_set(d).members}
        for bits in range(1 << (n - 1)):
            held = pattern_condition(d, BitString(n, bits))
            assert held == (bits in members)


def test_bigint_path_matches_pattern_condition(rng, monkeypatch):
    # a common denominator >= 2^61 pushes the signed sums past int64, so the
    # enumeration runs on Python integers. One planted pattern vanishes, or
    # misses by pi / den; a decoupled party (theta 0 or pi) pairs it with a
    # second pattern.
    from ghzstab import _kernels

    calls = []
    bigint = _kernels.signed_sums_int
    monkeypatch.setattr(
        _kernels, "signed_sums_int", lambda v: calls.append(1) or bigint(v)
    )
    den = (1 << 61) + 1
    for k in range(24):
        n = int(rng.integers(3, 9))
        nums = [den + int(rng.integers(1, 1 << 60)) for _ in range(n)]
        if k % 2:
            nums[int(rng.integers(0, n - 1))] = int(rng.integers(0, 2)) * den
        signs = [1] + [int(s) for s in rng.choice([-1, 1], size=n - 1)]
        partial = sum(s * v for s, v in zip(signs[:-1], nums))
        near_miss = k % 3 == 2
        nums[-1] = (-signs[-1] * partial) % (2 * den) + near_miss
        d = DirectionList.from_rationals([(v, den) for v in nums])
        members = {m.bits for m in sign_pattern_set(d).members}
        admitted = {
            bits for bits in range(1 << (n - 1))
            if pattern_condition(d, BitString(n, bits))
        }
        assert members == admitted
        assert bool(members) != near_miss
    assert len(calls) == 24


def test_pattern_set_party_cap():
    from ghzstab.errors import SizeError

    d = DirectionList.from_rationals([(1, 2)] * 25)
    with pytest.raises(SizeError):
        sign_pattern_set(d)


def test_fragile_flag():
    eps = 5e-9  # sin(eps/2) between tol and 10*tol
    d = DirectionList.from_radians([math.pi / 2, math.pi / 2 + eps])
    report = classify(d, tol=1e-9)
    assert report.patterns.fragile
    assert report.warnings
    clean = classify(DirectionList.from_radians([math.pi / 2, math.pi / 2 + 0.3]))
    assert not clean.patterns.fragile and not clean.warnings


def test_sector_transform_identity_sector():
    d = rationals((1, 2), (1, 3))
    assert sector_transform(d, 1, 1) == d


def test_sector_transform_single_qubit_negation():
    d = rationals((0, 1))
    t = sector_transform(d, -1, 1)
    assert t.thetas[0].pi_multiple == 1  # -sigma_Z points along theta = pi
    full = product_observable(t).full.entries
    assert np.allclose(full, -np.diag([1.0, -1.0]), atol=1e-15)


def test_sector_transform_negates_full_observable():
    d = rationals((1, 2), (1, 2))
    t = sector_transform(d, -1, 1)
    orig = product_observable(d).full.entries
    flipped = product_observable(t).full.entries
    assert np.max(np.abs(flipped + orig)) <= 1e-12


def test_sector_transform_involution(rng):
    for sa, sb in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        for _ in range(5):
            d = uniform_directions(3, rng)
            twice = sector_transform(sector_transform(d, sa, sb), sa, sb)
            a = product_observable(d).full.entries
            b = product_observable(twice).full.entries
            assert np.max(np.abs(a - b)) <= 1e-12


def test_sector_transform_preserves_exactness():
    d = rationals((1, 2), (1, 3))
    t = sector_transform(d, -1, -1)
    assert t.all_exact
