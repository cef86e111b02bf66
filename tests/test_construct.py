import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ghzstab import (
    Angle,
    DirectionList,
    GHZSpec,
    StabilizerCase,
    StateVector,
    brute_force_eigenspace,
    classify,
    product_observable,
    sigma_z_product,
    solve_common_eigenspace,
    stabilizing_pair_for,
)
from ghzstab.bitstrings import bit_labels, even_indices
from ghzstab.construct import (
    canonical_angles,
    ghz_from_pattern,
    ghz_states,
    pattern_phases,
)
from ghzstab.errors import DomainError, InternalConsistencyError, PreconditionError
from ghzstab.linalg import apply_locals, kron_all, subspace_distance
from reference import fidelity
from sampling import rationals


def single_party_reduced(state: StateVector, party: int) -> np.ndarray:
    """2x2 reduced density matrix of one party (1-based index)."""
    t = np.moveaxis(state.amplitudes.reshape((2,) * state.n_qubits), party - 1, 0)
    t = t.reshape(2, -1)
    return t @ t.conj().T


def test_canonical_angles_recipes():
    d3 = canonical_angles(3)
    assert [t.pi_multiple for t in d3.thetas] == [Fraction(2, 3)] * 3
    d4 = canonical_angles(4)
    assert [t.pi_multiple for t in d4.thetas] == [
        Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(5, 4),
    ]
    with pytest.raises(DomainError):
        canonical_angles(1)


@pytest.mark.parametrize("n", range(2, 25))
def test_canonical_angles_meet_the_pigeonhole_gap(n):
    # with theta_l = k_l pi / q, a pattern's signed sum is r pi / q and its
    # score |sin(r pi / 2q)|; counting patterns by r mod 2q in integers
    # shows exactly one vanishing pattern, the zero string, and a smallest
    # nonzero score of sin(pi/n), the pigeonhole bound on the prefix sums
    fracs = [t.pi_multiple for t in canonical_angles(n).thetas]
    q = math.lcm(*(f.denominator for f in fracs))
    ks = [int(f * q) for f in fracs]
    counts = [0] * (2 * q)
    counts[ks[0] % (2 * q)] = 1  # party 1 takes the + sign
    for k in ks[1:]:
        counts = [
            counts[(r - k) % (2 * q)] + counts[(r + k) % (2 * q)]
            for r in range(2 * q)
        ]
    assert sum(counts) == 1 << (n - 1)
    assert counts[0] == 1 and sum(ks) % (2 * q) == 0
    gap = min(min(r, 2 * q - r) for r in range(1, 2 * q) if counts[r])
    assert Fraction(gap, 2 * q) == Fraction(1, n)
    # stabilizing_pair_for's one GHZ_FRAME rests on phis of exactly 0, so
    # that pattern 0's phase is exactly i on every party
    d = canonical_angles(n)
    assert [p.pi_multiple for p in d.phis] == [0] * n
    assert np.array_equal(pattern_phases(d, 0), np.full(n, 1j))


@pytest.mark.parametrize("n", range(2, 13))
def test_canonical_angles_classify_unique(n):
    report = classify(canonical_angles(n))
    assert report.mode == "exact"
    assert report.case is StabilizerCase.UNIQUE_GHZ
    assert report.patterns.bits.tolist() == [0]


def test_canonical_five_pattern():
    patterns = classify(canonical_angles(5)).patterns
    assert bit_labels(patterns.bits, 5) == ["00000"]


def test_bitstring_phase_examples():
    # amplitude of index j in the zero pattern's state, times sqrt(2): the
    # product of i e^{i phi_l} over the set bits of j
    def amps(phis):
        d = DirectionList.of([Angle.exact(1, 2)] * 2, phis)
        return ghz_from_pattern(d, 0).amplitudes * math.sqrt(2)

    zero = Angle.exact(0)
    assert amps([zero, zero])[0b00] == pytest.approx(1)
    assert amps([zero, zero])[0b11] == pytest.approx(-1)
    assert amps([Angle.exact(1, 2), zero])[0b11] == pytest.approx(-1j)


def test_ghz_from_pattern_epr():
    d = rationals([(1, 2), (1, 2)])
    state = ghz_from_pattern(d, 0b01)
    epr = np.zeros(4, dtype=complex)
    epr[0] = epr[3] = 1 / math.sqrt(2)
    assert np.allclose(state.amplitudes, epr, atol=1e-12)


def test_ghz_from_pattern_minus():
    d = rationals([(1, 2), (1, 2)])
    state = ghz_from_pattern(d, 0b00)
    expected = np.zeros(4, dtype=complex)
    expected[0], expected[3] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_ghz_from_pattern_requires_leading_zero():
    d = rationals([(1, 2), (1, 2)])
    with pytest.raises(PreconditionError):
        ghz_from_pattern(d, 0b10)
    for m in (-1, 4):
        with pytest.raises(DomainError):
            ghz_from_pattern(d, m)


def test_ghz_from_pattern_maximally_mixed_marginals(rng):
    for n in [2, 3, 4]:
        d = DirectionList.of(
            [Angle.radians(rng.uniform(0, 2 * math.pi)) for _ in range(n)],
            [Angle.radians(rng.uniform(0, 2 * math.pi)) for _ in range(n)],
        )
        m = int(rng.integers(0, 1 << (n - 1)))
        state = ghz_from_pattern(d, m)
        for party in range(1, n + 1):
            rho = single_party_reduced(state, party)
            assert np.allclose(rho, np.eye(2) / 2, atol=1e-10)


def test_ghz_states_match_the_per_pattern_product_bit_for_bit(rng):
    # reference: one pattern at a time, the product of its phases over the
    # set bits of each even-parity index; tobytes also compares signed zeros
    for n in (1, 2, 5, 8):
        d = DirectionList.of(
            [Angle.radians(rng.uniform(0, 2 * math.pi)) for _ in range(n)],
            [Angle.exact(int(k), 2) for k in rng.integers(0, 4, size=n)],
        )
        bits = np.arange(1 << (n - 1), dtype=np.int64)
        states = ghz_states(d, bits)
        s0 = even_indices(n)
        for m in bits.tolist():
            phis = np.array(d.phi_radians())
            signs = np.array([1 - 2 * ((m >> (n - l)) & 1) for l in range(1, n + 1)])
            phases = 1j * signs * (np.cos(phis) + 1j * np.sin(phis))
            vals = np.ones(s0.size, dtype=np.complex128)
            for l in range(n):
                bit = (s0 >> (n - 1 - l)) & 1
                vals = vals * np.where(bit == 1, phases[l], 1.0)
            expected = np.zeros(1 << n, dtype=np.complex128)
            expected[s0] = vals / math.sqrt(s0.size)
            assert states[:, m].tobytes() == expected.tobytes()
            single = ghz_from_pattern(d, m).amplitudes
            assert single.tobytes() == expected.tobytes()


def test_solver_state_matches_pattern_state():
    for n in range(2, 10):
        d = canonical_angles(n)
        report = solve_common_eigenspace(d)
        assert report.dimension == 1
        state = ghz_from_pattern(d, int(report.classification.patterns.bits[0]))
        assert fidelity(StateVector(n, report.basis[:, 0]), state) >= 1 - 1e-9


def test_parity_rotation_identity():
    # |0..0> + |1..1> under |0> -> |0>+|1>, |1> -> |0>-|1> on every party
    # is twice the even-parity indicator
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128)
    for n in range(1, 11):
        ghz = np.zeros(1 << n, dtype=np.complex128)
        ghz[0] = ghz[-1] = 1.0
        image = apply_locals(np.stack([h] * n), ghz)
        s0 = even_indices(n)
        expected = np.zeros(1 << n, dtype=complex)
        expected[s0] = 2.0
        assert np.array_equal(image, expected)


def test_local_phase_basis_unitary():
    d = rationals([(2, 3), (2, 3), (2, 3)])
    for phase in pattern_phases(d, 0):
        u = np.diag([1.0, phase])
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        assert abs(abs(phase) - 1.0) <= 1e-12


def test_ghz_spec_validation():
    for n, units, message in (
        (2, np.array([np.eye(2), 2 * np.eye(2)], dtype=complex), "not unitary"),
        (3, np.array([np.eye(2)] * 2, dtype=complex),
         "expected 3 local unitaries, got 2"),
        (2, np.zeros((2, 3, 3), dtype=complex), "local unitaries must be 2x2"),
    ):
        with pytest.raises(DomainError, match=message):
            GHZSpec(n, units)
    spec = GHZSpec.identity(3)
    assert np.allclose(
        spec.to_state().amplitudes, StateVector.ghz(3).amplitudes
    )


def test_ghz_spec_rejects_non_finite_entries():
    # a NaN entry makes the unitarity defect NaN, which no bound rejects
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="not unitary"):
            GHZSpec(2, np.array([[[value, 0], [0, 1]], np.eye(2)], dtype=complex))


def test_ghz_spec_marginals(rng):
    spec = GHZSpec.random(4, rng)
    state = spec.to_state()
    for party in range(1, 5):
        rho = single_party_reduced(state, party)
        eigs = np.linalg.eigvalsh(rho)
        assert np.allclose(eigs, [0.5, 0.5], atol=1e-10)


def test_stabilizing_pair_identity_spec():
    pair = stabilizing_pair_for(GHZSpec.identity(2))
    ghz = StateVector.ghz(2)
    assert fidelity(pair.target, ghz) >= 1 - 1e-12
    assert pair.residual <= 1e-9
    oracle = brute_force_eigenspace(pair.a, pair.b)[0]
    assert oracle.shape == (4, 1)
    assert fidelity(StateVector(2, oracle[:, 0]), ghz) >= 1 - 1e-9


def test_stabilizing_pair_hadamard_spec():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    pair = stabilizing_pair_for(GHZSpec(3, np.array([h, h, h])))
    s0 = even_indices(3)
    expected = np.zeros(8, dtype=complex)
    expected[s0] = 0.5
    assert abs(np.vdot(expected, pair.target.amplitudes)) >= 1 - 1e-12
    assert brute_force_eigenspace(pair.a, pair.b)[0].shape == (8, 1)


def test_stabilizing_pair_checks_its_recipe(monkeypatch):
    # a recipe that leaves more than the zero pattern vanishing, or frames
    # that miss the target, are internal faults (exit 3), not a pair
    import ghzstab.construct as construct

    for name, broken, message in (
        ("canonical_angles", lambda n: rationals([(0, 1)] * n),
         "canonical angles for n=3 vanish on patterns [0, 1, 2, 3] (4 in all)"),
        # the frame of phase -1 instead of i on every party
        ("GHZ_FRAME", np.array([[1, 1], [-1, 1]]) / math.sqrt(2.0),
         "constructed pair misses its target: residual 1.500e+00"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(construct, name, broken)
            with pytest.raises(InternalConsistencyError, match=re.escape(message)):
                stabilizing_pair_for(GHZSpec.identity(3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stabilizing_pair_random_specs(n, rng):
    for _ in range(5):
        spec = GHZSpec.random(n, rng)
        pair = stabilizing_pair_for(spec)
        assert pair.residual <= 1e-9
        a_full = kron_all(pair.a.mats)
        t = pair.target.amplitudes
        assert np.linalg.norm(a_full @ t - t) <= 1e-9


def test_canonical_any_phi_still_unique(rng):
    # for odd party counts the recipe tolerates arbitrary phases
    for n in [3, 5, 7]:
        d = canonical_angles(n)
        phis = [Angle.radians(rng.uniform(0, 2 * math.pi)) for _ in range(n)]
        d_phi = DirectionList.of(d.thetas, phis)
        assert classify(d_phi).case is StabilizerCase.UNIQUE_GHZ
        assert solve_common_eigenspace(d_phi).dimension == 1


def test_lu_covariance(rng):
    # conjugating both observables by local unitaries maps the eigenspace
    # by the same unitaries
    from ghzstab.linalg import apply_locals
    from ghzstab.observables import ProductObservable

    d = rationals([(1, 2), (1, 2)])
    base_a = product_observable(d)
    base_b = sigma_z_product(2)
    for _ in range(5):
        spec = GHZSpec.random(2, rng)
        v = spec.local_unitaries
        conj_a = ProductObservable(
            [v[l] @ base_a.mats[l] @ v[l].conj().T for l in range(2)]
        )
        conj_b = ProductObservable(
            [v[l] @ base_b.mats[l] @ v[l].conj().T for l in range(2)]
        )
        original = brute_force_eigenspace(base_a, base_b)[0]
        rotated = brute_force_eigenspace(conj_a, conj_b)[0]
        assert subspace_distance(rotated, apply_locals(v, original)) <= 1e-7
