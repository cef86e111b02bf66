import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzstab import (
    Angle,
    DirectionList,
    StabilizerCase,
    brute_force_eigenspace,
    classify,
    product_observable,
    sigma_z_product,
)
from ghzstab.bitstrings import bit_labels
from ghzstab.angles import PI
from ghzstab.classify import sector_dimensions, sign_pattern_set
from ghzstab.errors import DomainError
from reference import pattern_condition, signed_angle_sum
from sampling import radians, rationals, uniform_directions


def test_signed_angle_sum_examples():
    d = rationals([(1, 2), (1, 2)])
    assert signed_angle_sum(d, 0b01).pi_multiple == 0
    assert signed_angle_sum(d, 0b00).pi_multiple == 1
    d3 = rationals([(2, 3), (2, 3), (2, 3)])
    assert signed_angle_sum(d3, 0b000).pi_multiple == 2


def test_signed_angle_sum_range_error():
    # a pattern index has one bit per party: 0 <= m < 2^n
    d = rationals([(1, 2)])
    for m in (-1, 2):
        with pytest.raises(DomainError):
            signed_angle_sum(d, m)
        with pytest.raises(DomainError):
            pattern_condition(d, m)
    assert pattern_condition(d, 1) is False


def test_sign_pattern_set_epr():
    d = rationals([(1, 2), (1, 2)])
    patterns = sign_pattern_set(d)
    assert bit_labels(patterns.bits, 2) == ["01"]
    assert signed_angle_sum(d, int(patterns.bits[0])).pi_multiple == 0
    assert bit_labels(patterns.bits ^ 0b11, 2) == ["10"]


def test_sign_pattern_set_canonical_triple():
    d = rationals([(2, 3), (2, 3), (2, 3)])
    patterns = sign_pattern_set(d)
    assert bit_labels(patterns.bits, 3) == ["000"]
    assert signed_angle_sum(d, int(patterns.bits[0])).pi_multiple == 2


def test_sign_pattern_set_degenerate_triple():
    # theta = (pi, pi, 0): every pattern with m_1 = 0 has sum 2*pi or 0,
    # matching the brute-force eigenspace dimension of 4
    d = rationals([(1, 1), (1, 1), (0, 1)])
    patterns = sign_pattern_set(d)
    assert bit_labels(patterns.bits, 3) == ["000", "001", "010", "011"]
    sums = sorted(signed_angle_sum(d, m).pi_multiple for m in patterns.bits.tolist())
    assert sums == [0, 0, 2, 2]
    oracle = brute_force_eigenspace(product_observable(d), sigma_z_product(3))[0]
    assert oracle.shape == (8, 4)


def test_members_have_leading_zero(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        d = uniform_directions(n, rng)
        for m in sign_pattern_set(d).bits.tolist():
            assert m >> (n - 1) == 0


def test_classify_trichotomy():
    # oracle dimensions computed first: 0, 1, 4
    no = rationals([(1, 2), (1, 3)])
    assert (
        brute_force_eigenspace(product_observable(no), sigma_z_product(2))[0].shape[1]
        == 0
    )
    assert classify(no).case is StabilizerCase.NO_COMMON_EIGENSTATE

    unique = rationals([(1, 2), (1, 2)])
    assert (
        brute_force_eigenspace(product_observable(unique), sigma_z_product(2))[0].shape[1]
        == 1
    )
    assert classify(unique).case is StabilizerCase.UNIQUE_GHZ

    deg = rationals([(1, 1), (1, 1), (0, 1)])
    assert classify(deg).case is StabilizerCase.DEGENERATE


def test_classify_mode_flags():
    exact = rationals([(1, 2), (1, 2)])
    assert classify(exact).mode == "exact"
    assert classify(exact.in_mode("approx")).mode == "approx"
    mixed = DirectionList.of([Angle.exact(1, 2), Angle.radians(1.0)])
    assert classify(mixed).mode == "approx"
    with pytest.raises(DomainError):
        mixed.in_mode("exact")


def test_exact_vs_approx_agreement(rng):
    for _ in range(40):
        n = int(rng.integers(2, 7))
        nums = rng.integers(0, 12, size=n)
        dens = rng.integers(1, 7, size=n)
        d = rationals(
            [(int(p), int(q)) for p, q in zip(nums, dens)]
        )
        exact_members = sign_pattern_set(d).bits.tolist()
        d_float = DirectionList.of(
            [Angle.radians(t.to_radians()) for t in d.thetas], d.phis
        )
        approx_members = sign_pattern_set(d_float, tol=1e-9).bits.tolist()
        assert exact_members == approx_members


def test_complement_symmetry_unrestricted(rng):
    # the vanishing condition is checked on all patterns, before the
    # leading-zero filter
    for _ in range(30):
        n = int(rng.integers(1, 6))
        d = uniform_directions(n, rng)
        for m in range(1 << n):
            complement = m ^ ((1 << n) - 1)
            assert pattern_condition(d, m) == pattern_condition(d, complement)


def test_condition_matches_membership(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        nums = rng.integers(0, 8, size=n)
        d = rationals([(int(p), 4) for p in nums])
        members = set(sign_pattern_set(d).bits.tolist())
        for bits in range(1 << (n - 1)):
            held = pattern_condition(d, bits)
            assert held == (bits in members)


def test_bigint_path_matches_pattern_condition(rng, monkeypatch):
    # a common denominator >= 2^61 pushes the signed sums past int64, so the
    # half-sums run on Python integers, one kernel call per half. One planted
    # pattern vanishes, or misses by pi / den; a decoupled party (theta 0 or
    # pi) pairs it with a second pattern.
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
        d = rationals([(v, den) for v in nums])
        members = set(sign_pattern_set(d).bits.tolist())
        admitted = {
            bits for bits in range(1 << (n - 1)) if pattern_condition(d, bits)
        }
        assert members == admitted
        assert bool(members) != near_miss
    assert len(calls) == 48


def _enumerated(d, tol):
    """The whole-list reference: every signed sum by doubling, decided by
    the classify rule; returns (members, fragile)."""
    from ghzstab import _kernels

    if d.all_exact:
        fracs = [t.pi_multiple for t in d.thetas]
        den = math.lcm(*(f.denominator for f in fracs))
        nums = [int(f * den) for f in fracs]
        if sum(abs(v) for v in nums) < 1 << 60:
            sums = _kernels.signed_sums_i8(nums)
        else:
            sums = _kernels.signed_sums_int(nums)
        return np.nonzero(sums % (2 * den) == 0)[0], False
    score = np.abs(np.sin(_kernels.signed_sums_f8(d.theta_radians()) / 2.0))
    fragile = bool(np.any((score > tol) & (score <= 10.0 * tol)))
    return np.nonzero(score <= tol)[0], fragile


SIGN = st.sampled_from([-1, 1])


@st.composite
def exact_int64_lists(draw):
    n = draw(st.integers(1, 16))
    q = draw(st.integers(1, 40))
    nums = draw(st.lists(st.integers(-4 * q, 4 * q), min_size=n, max_size=n))
    return rationals([(v, q) for v in nums])


@st.composite
def bigint_lists(draw):
    # den >= 2^61; a planted pattern vanishes or misses by pi / den, and
    # decoupled parties (multiples of den) multiply the members
    n = draw(st.integers(1, 16))
    den = (1 << 61) + draw(st.integers(0, 1 << 40))
    nums = [
        draw(st.one_of(st.integers(0, 4 * den), st.sampled_from([0, den, 2 * den])))
        for _ in range(n)
    ]
    signs = [1] + draw(st.lists(SIGN, min_size=n - 1, max_size=n - 1))
    partial = sum(s * v for s, v in zip(signs[:-1], nums))
    if n > 1:
        nums[-1] = (-signs[-1] * partial) % (2 * den) + draw(st.sampled_from([0, 1]))
    return rationals([(v, den) for v in nums])


FLOAT_TOLS = (1e-9, 1e-6, 1e-3, 0.2, 1.5)


@st.composite
def float_lists(draw):
    # random radians with one planted pattern whose score is about 0.5, 1,
    # 5 or 10 times tol, or rational multiples of pi with many members
    n = draw(st.integers(1, 16))
    tol = draw(st.sampled_from(FLOAT_TOLS))
    if draw(st.booleans()):
        q = draw(st.integers(1, 31))
        ks = draw(st.lists(st.integers(-4 * q, 4 * q), min_size=n, max_size=n))
        return radians([k * math.pi / q for k in ks]), tol
    angle = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False)
    thetas = draw(st.lists(angle, min_size=n, max_size=n))
    if n > 1:
        signs = [1] + draw(st.lists(SIGN, min_size=n - 1, max_size=n - 1))
        offset = draw(st.sampled_from([0.5, 1.0, 5.0, 10.0])) * draw(SIGN)
        delta = math.copysign(2 * math.asin(min(abs(offset) * tol, 1.0)), offset)
        turns = 2 * math.pi * draw(st.integers(-2, 2))
        partial = sum(s * t for s, t in zip(signs[:-1], thetas))
        thetas[-1] = signs[-1] * (turns + delta - partial)
    return radians(thetas), tol


def _assert_matches_enumeration(d, tol):
    patterns = sign_pattern_set(d, tol)
    members, fragile = _enumerated(d, tol)
    assert patterns.bits.dtype == np.int64
    assert patterns.bits.tolist() == members.tolist()  # same members, same order
    assert patterns.fragile == fragile


@settings(max_examples=80, deadline=None)
@given(exact_int64_lists())
def test_half_sums_match_enumeration_on_exact_lists(d):
    _assert_matches_enumeration(d, 1e-9)


@settings(max_examples=40, deadline=None)
@given(bigint_lists())
def test_half_sums_match_enumeration_on_bigint_lists(d):
    _assert_matches_enumeration(d, 1e-9)


@settings(max_examples=150, deadline=None)
@given(float_lists())
def test_half_sums_match_enumeration_on_float_lists(case):
    _assert_matches_enumeration(*case)


def _wide_lists():
    """Lists at the sizes classify_wide runs, past the strategies' n <= 16:
    radian lists whose windows reach pi or more, and one exact list per
    integer lane with a planted vanishing pattern and a party of theta pi."""
    rng = np.random.default_rng(18)
    for n in (18, 20):
        for tol in (0.1, 0.2, 1.5):
            d = radians(rng.uniform(-4 * math.pi, 4 * math.pi, n))
            yield pytest.param(d, tol, id=f"radians-n{n}-tol{tol}")
    for n, den, lane in ((20, 12, "int64"), (18, (1 << 61) + 1, "bigint")):
        nums = [int(v) % (4 * den) for v in rng.integers(0, 1 << 62, n)]
        nums[n // 2] = den
        signs = [1] + [int(s) for s in rng.choice([-1, 1], size=n - 1)]
        partial = sum(s * v for s, v in zip(signs[:-1], nums))
        nums[-1] = (-signs[-1] * partial) % (2 * den)
        d = rationals([(v, den) for v in nums])
        yield pytest.param(d, 1e-9, id=f"{lane}-n{n}")


@pytest.mark.parametrize("d, tol", _wide_lists())
def test_half_sums_match_enumeration_on_wide_lists(d, tol):
    _assert_matches_enumeration(d, tol)


def test_half_sums_pass_at_most_half_the_parties_to_a_kernel(rng, monkeypatch):
    from ghzstab import _kernels

    lengths = []
    for name in ("signed_sums_f8", "signed_sums_i8", "signed_sums_int"):
        kernel = getattr(_kernels, name)
        monkeypatch.setattr(
            _kernels, name,
            lambda v, kernel=kernel: lengths.append(len(v)) or kernel(v),
        )
    for n in range(1, 21):
        lists = (
            rationals([(int(v), 7) for v in rng.integers(0, 28, n)]),
            rationals([(1 << 62, (1 << 61) + 1)] * n),
            radians(rng.uniform(0, 2 * math.pi, n)),
            radians(rng.uniform(0, 2 * math.pi, n)),
        )
        for d, tol in zip(lists, (1e-9, 1e-9, 1e-9, 1e-3)):
            lengths.clear()
            sign_pattern_set(d, tol)
            assert lengths and max(lengths) <= (n + 1) // 2 + 1, (n, lengths)


def test_pattern_set_party_cap():
    from ghzstab.errors import SizeError

    d = rationals([(1, 2)] * 25)
    with pytest.raises(SizeError):
        sign_pattern_set(d)


def test_fragile_flag():
    eps = 5e-9  # sin(eps/2) between tol and 10*tol
    d = radians([math.pi / 2, math.pi / 2 + eps])
    report = classify(d, tol=1e-9)
    assert report.patterns.fragile
    assert report.warnings
    clean = classify(radians([math.pi / 2, math.pi / 2 + 0.3]))
    assert not clean.patterns.fragile and not clean.warnings


@st.composite
def sector_lists(draw):
    """Exact, radian and mixed lists of 1 to 12 parties (the int64 and the
    bigint lane among the exact ones, multiples of pi / q and the flip's
    edges among the radians) at the tols where scores tie or nearly tie."""
    n = draw(st.integers(1, 12))
    den = draw(st.integers(1, 12) | st.just((1 << 61) + 1))
    q = draw(st.integers(1, 12))
    exact = st.builds(Angle.exact, st.integers(-4 * den, 4 * den), st.just(den))
    radian = st.builds(
        Angle.radians,
        st.sampled_from([0.0, math.pi, -math.pi, math.pi / 2, 4 * math.pi, 5e-324])
        | st.builds(lambda k: k * math.pi / q, st.integers(-4 * q, 4 * q))
        | st.floats(-4 * math.pi, 4 * math.pi),
    )
    form = draw(st.sampled_from([exact, radian, exact | radian]))
    thetas = draw(st.lists(form, min_size=n, max_size=n))
    tol = draw(st.sampled_from([1e-300, 1e-15, 1e-9, 0.5, 1 / math.sqrt(2), 1.0]))
    return DirectionList.of(thetas), tol


@settings(max_examples=300, deadline=None)
@given(sector_lists())
def test_flipped_count_is_the_count_of_the_flipped_list(case):
    # the count read from the shared ring is the one classify gives on the
    # list with theta_1 flipped, bit for bit even where a score ties tol,
    # and the symmetric sectors repeat the two counts
    d, tol = case
    report, (same, flipped, flipped_again, same_again) = sector_dimensions(d, tol)
    moved = DirectionList.of((PI - d.thetas[0],) + d.thetas[1:], d.phis)
    assert same == len(classify(d, tol).patterns)
    assert flipped == len(classify(moved, tol).patterns)
    assert (flipped_again, same_again) == (flipped, same)
    assert report.patterns.bits.tolist() == classify(d, tol).patterns.bits.tolist()

