import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzstab import (
    Angle,
    CertificationConfig,
    DirectionList,
    StateVector,
    run_certification,
    solve_common_eigenspace,
)
from ghzstab import certify as certify_module
from ghzstab.bitstrings import parity_of
from ghzstab import observables as observables_module
from ghzstab.certify import Ensemble, expectation, parity_expectation
from ghzstab.observables import product_observable, sigma_z_product
from ghzstab.construct import canonical_angles, ghz_from_pattern
from ghzstab.errors import DomainError, ShapeError
from reference import (
    certification_by_two_applies,
    joint_outcome_probabilities,
    sequential_outcome_probabilities,
)
from sampling import uniform_directions


def rationals(*pairs):
    return DirectionList.from_rationals(list(pairs))


EPR_DIRECTIONS = rationals((1, 2), (1, 2))
EPR = StateVector.ghz(2)


def odd_weight(probs):
    """Probability of product outcome -1: the joint outcomes (bit 1 = -1)
    with an odd number of -1s."""
    idx = np.arange(probs.size)
    return float(probs[parity_of(idx) == 1].sum())


def test_measure_round_eigenstate_always_plus_one():
    # the stabilized state puts no weight on product outcome -1
    probs = joint_outcome_probabilities(EPR, EPR_DIRECTIONS)
    assert odd_weight(probs) <= 1e-12
    assert abs(probs.sum() - 1.0) <= 1e-12


def test_measure_round_zero_expectation_state():
    # |00> under XX: product is +-1 with equal probability
    state = StateVector.basis_state(2, 0)
    probs = joint_outcome_probabilities(state, EPR_DIRECTIONS)
    assert abs(odd_weight(probs) - 0.5) <= 1e-12


def test_measure_round_z_eigenstate():
    # |00> measured along z on both parties: outcome (+1, +1) always
    d = rationals((0, 1), (0, 1))
    state = StateVector.basis_state(2, 0)
    probs = joint_outcome_probabilities(state, d)
    assert abs(probs[0b00] - 1.0) <= 1e-12


def test_product_mean_of_born_probabilities_is_the_expectation(rng):
    # run_certification draws from expectation alone; the Born law of the
    # joint outcomes must give the same product mean
    for n in range(1, 7):
        for _ in range(5):
            d = uniform_directions(n, rng)
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            state = StateVector.from_amplitudes(amps).normalize()
            probs = joint_outcome_probabilities(state, d)
            mean = 1.0 - 2.0 * odd_weight(probs)
            assert abs(mean - expectation(state, product_observable(d))) <= 1e-12


def test_sequential_matches_joint_probabilities(rng):
    # chain-rule collapse probabilities equal the direct Born rule
    for n in [1, 2, 3, 4]:
        d = uniform_directions(n, rng)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector.from_amplitudes(amps).normalize()
        seq = sequential_outcome_probabilities(state, d)
        joint = joint_outcome_probabilities(state, d)
        assert np.max(np.abs(seq - joint)) <= 1e-12
        assert abs(joint.sum() - 1.0) <= 1e-12


def test_empirical_matches_analytic_expectation(rng):
    # fixed-seed battery: empirical mean within 5/sqrt(shots) of <A>
    shots = 4000
    for seed in [11, 12]:
        for n in [2, 3]:
            d = uniform_directions(n, np.random.default_rng(seed))
            amps = np.random.default_rng(seed + 1).normal(size=1 << n) + 0j
            state = StateVector.from_amplitudes(amps).normalize()
            cfg = CertificationConfig(shots=shots, a_fraction=0.99, seed=seed)
            report = run_certification(state, d, cfg)
            expected = expectation(state, product_observable(d))
            assert abs(report.mean_a - expected) <= 5 / math.sqrt(report.count_a)


def test_unique_state_passes_exactly():
    report = run_certification(
        EPR, EPR_DIRECTIONS, CertificationConfig(shots=10_000, seed=1)
    )
    assert report.mean_a == 1.0 and report.mean_b == 1.0
    assert report.stderr_a == 0.0 and report.stderr_b == 0.0
    assert report.passed


def test_stabilized_state_passes_exactly_at_twenty_parties():
    # E_A reads 1 + 2e-16 here; 2^20 amplitudes are beyond the dense cap,
    # which only kron_all enforces
    d = canonical_angles(20)
    state = ghz_from_pattern(d, 0)
    report = run_certification(
        state, d, CertificationConfig(shots=10**6, seed=5)
    )
    assert report.count_a + report.count_b == 10**6
    assert report.mean_a == 1.0 and report.mean_b == 1.0
    assert report.stderr_a == 0.0 and report.stderr_b == 0.0
    assert report.passed


@st.composite
def stabilized_lists(draw):
    """An exact list with a planted vanishing pattern and random phis;
    parties of theta 0 or pi make it degenerate."""
    n = draw(st.integers(2, 8))
    q = draw(st.integers(1, 12))
    nums = draw(st.lists(
        st.one_of(st.integers(-4 * q, 4 * q), st.sampled_from([0, q])),
        min_size=n, max_size=n,
    ))
    signs = [1] + draw(st.lists(st.sampled_from([-1, 1]), min_size=n - 1, max_size=n - 1))
    partial = sum(s * v for s, v in zip(signs[:-1], nums))
    nums[-1] = (-signs[-1] * partial) % (2 * q)
    phis = draw(st.lists(st.floats(-math.pi, math.pi), min_size=n, max_size=n))
    return DirectionList.of(
        [Angle.exact(v, q) for v in nums], [Angle.radians(p) for p in phis]
    )


@settings(max_examples=60, deadline=None)
@given(stabilized_lists(), st.integers(0, 2**32 - 1))
def test_stabilized_states_certify_with_means_of_exactly_one(d, seed):
    # any unit combination of the solver's basis is a common +1 eigenstate,
    # so no round ever reads -1, for the exact list and its radian copy
    rng = np.random.default_rng(seed)
    for listed in (d, d.in_mode("approx")):
        basis = solve_common_eigenspace(listed).basis
        c = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
        state = StateVector(d.n_parties, basis @ (c / np.linalg.norm(c)))
        report = run_certification(
            state, listed, CertificationConfig(shots=2000, seed=seed)
        )
        assert report.mean_a == report.mean_b == 1.0, (listed, report)
        assert report.passed


def test_born_probability_is_clipped():
    # a norm off by 1e-15 puts (1 + E) / 2 above 1, which binomial rejects
    state = StateVector(2, EPR.amplitudes * (1 + 1e-15))
    report = run_certification(
        state, EPR_DIRECTIONS, CertificationConfig(shots=1000, seed=6)
    )
    assert report.mean_a == 1.0 and report.mean_b == 1.0


def test_all_zero_state_fails_with_known_mean():
    # canonical triple: <000|A|000> = prod cos(2pi/3) = -1/8
    d = canonical_angles(3)
    state = StateVector.basis_state(3, 0)
    report = run_certification(
        state, d, CertificationConfig(shots=10_000, seed=2)
    )
    assert report.mean_b == 1.0
    assert abs(report.mean_a - (-1 / 8)) <= 5 * report.stderr_a
    assert not report.passed


def test_ensemble_uniform_basis_traceless_mean():
    # equal-frequency computational basis states: mean_a tracks tr(A)/2^n = 0
    d = EPR_DIRECTIONS
    ens = Ensemble(
        states=tuple(StateVector.basis_state(2, i) for i in range(4)),
        weights=(0.25,) * 4,
        sampling="cycle",
    )
    report = run_certification(ens, d, CertificationConfig(shots=8000, seed=3))
    assert abs(report.mean_a) <= 5 * report.stderr_a
    assert not report.passed


def test_ensemble_cycle_counts_are_exact():
    # |0>, |1>, |1> measured along z give products +1, -1, -1 in both
    # settings; 3k + 2 shots cycle k + 1, k + 1 and k rounds through them
    zero, one = StateVector.basis_state(1, 0), StateVector.basis_state(1, 1)
    ens = Ensemble(states=(zero, one, one), weights=(0.5, 0.25, 0.25),
                   sampling="cycle")
    d = rationals((0, 1))
    for k in (0, 1, 333):
        report = run_certification(
            ens, d, CertificationConfig(shots=3 * k + 2, seed=k)
        )
        total = sum(
            round(mean * count)
            for mean, count in ((report.mean_a, report.count_a),
                                (report.mean_b, report.count_b))
            if count
        )
        assert report.count_a + report.count_b == 3 * k + 2
        assert total == (k + 1) - (k + 1) - k


def test_ensemble_random_sampling():
    ens = Ensemble(
        states=(StateVector.basis_state(1, 0), StateVector.basis_state(1, 1)),
        weights=(0.5, 0.5),
    )
    d = rationals((0, 1))
    report = run_certification(ens, d, CertificationConfig(shots=4000, seed=4))
    # z-measurement of an even mixture of |0> and |1>: mean near 0
    assert abs(report.mean_a) <= 5 * report.stderr_a


def test_pure_state_is_a_one_component_ensemble(rng):
    # a one-component multinomial draws nothing from the generator, so the
    # pure route, its random ensemble and its cycled ensemble read one stream
    d = canonical_angles(3)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector.from_amplitudes(amps).normalize()
    for shots in (1, 2, 7, 10**4):
        for seed in (0, 1, 3, 42):
            cfg = CertificationConfig(shots=shots, seed=seed)
            pure = run_certification(state, d, cfg)
            for sampling in ("random", "cycle"):
                ens = Ensemble(states=(state,), weights=(1.0,), sampling=sampling)
                other = run_certification(ens, d, cfg)
                # repr compares every field exactly, a NaN stderr included
                assert repr(other) == repr(pure), (shots, seed, sampling)


def test_each_setting_is_built_once_per_run(monkeypatch):
    # setting A's observable serves every component of a mixture, and <Z^N>
    # is read off the Born probabilities, so no Z^N operator is built
    calls = {"product_observable": 0, "sigma_z_product": 0, "ProductObservable": 0}
    for module, name in (
        (certify_module, "product_observable"),
        (observables_module, "sigma_z_product"),
        (observables_module, "ProductObservable"),
    ):
        built = getattr(module, name)

        def counted(*args, name=name, built=built):
            calls[name] += 1
            return built(*args)

        monkeypatch.setattr(module, name, counted)
    assert not hasattr(certify_module, "sigma_z_product")
    ens = Ensemble(
        states=(EPR, StateVector.basis_state(2, 0)), weights=(0.5, 0.5)
    )
    run_certification(ens, EPR_DIRECTIONS, CertificationConfig(shots=100, seed=1))
    assert calls == {"product_observable": 1, "sigma_z_product": 0, "ProductObservable": 1}


def planted_ghz(n, rng):
    """An exact list on which a random pattern m (m_1 = 0) vanishes, with
    random phis, and its GHZ-class state ghz_from_pattern(d, m)."""
    q = int(rng.integers(1, 13))
    m = int(rng.integers(1 << (n - 1)))
    signs = 1 - 2 * ((m >> np.arange(n - 1, -1, -1)) & 1)
    nums = [int(v) for v in rng.integers(-4 * q, 4 * q + 1, size=n)]
    partial = sum(int(s) * v for s, v in zip(signs[:-1], nums))
    nums[-1] = (-int(signs[-1]) * partial) % (2 * q)
    phis = rng.uniform(-math.pi, math.pi, size=n)
    d = DirectionList.of(
        [Angle.exact(v, q) for v in nums], [Angle.radians(p) for p in phis]
    )
    return d, ghz_from_pattern(d, m)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 12),
    st.sampled_from(["random", "basis", "ghz"]),
    st.integers(0, 2**32 - 1),
)
def test_parity_expectation_is_the_z_product_expectation(n, kind, seed):
    # the n halvings of |psi|^2 give <Z^N> without building Z^N
    rng = np.random.default_rng(seed)
    if kind == "random":
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector.from_amplitudes(amps).normalize()
    elif kind == "basis":
        j = int(rng.integers(1 << n))
        state = StateVector.basis_state(n, j)
    else:
        d, state = planted_ghz(n, rng)
    z = parity_expectation(state)
    assert abs(z - expectation(state, sigma_z_product(n))) <= 1e-12
    if kind == "basis":
        assert z == (-1.0) ** int(parity_of(np.array([j]))[0])
    elif kind == "ghz":
        # an even-parity state: within ulps of 1, and both means stay 1
        assert abs(z - 1.0) <= 1e-15
        report = run_certification(state, d, CertificationConfig(shots=2000, seed=seed))
        assert report.mean_a == report.mean_b == 1.0, (d, report)


def test_report_equals_the_two_apply_route(rng):
    # <Z^N> from the halvings gives the parent route's report field for
    # field, on pure states and on mixtures under both samplings
    for n in (1, 2, 3, 5, 8):
        d = uniform_directions(n, rng)
        _, ghz = planted_ghz(n, rng)
        states = [
            StateVector.from_amplitudes(
                rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            ).normalize(),
            StateVector.basis_state(n, int(rng.integers(1 << n))),
            ghz,
        ]
        inputs = list(states)
        for k in (2, 3):
            weights = rng.dirichlet(np.ones(k))
            for sampling in ("random", "cycle"):
                inputs.append(
                    Ensemble(tuple(states[:k]), tuple(weights.tolist()), sampling)
                )
        for state in inputs:
            for shots, seed in ((1, 0), (7, 3), (2000, 11), (10**5, 42)):
                cfg = CertificationConfig(shots=shots, seed=seed)
                got = run_certification(state, d, cfg)
                want = certification_by_two_applies(state, d, cfg)
                assert repr(got) == repr(want), (n, state, shots, seed)


def test_ensemble_validation():
    with pytest.raises(DomainError, match="at least one state"):
        Ensemble(states=(), weights=())
    with pytest.raises(ShapeError, match="differ in length"):
        Ensemble(states=(EPR,), weights=(0.5, 0.5))
    with pytest.raises(DomainError):
        Ensemble(states=(EPR,), weights=(0.5,))
    with pytest.raises(DomainError):
        Ensemble(states=(EPR,), weights=(1.0,), sampling="bogus")
    with pytest.raises(DomainError):
        Ensemble(states=(EPR, EPR), weights=(1.5, -0.5))
    with pytest.raises(DomainError):
        Ensemble(states=(EPR,), weights=(math.nan,))


def test_qubit_count_must_match_directions():
    # every route checks the count itself; unchecked, the chain rule walks
    # the wrong parties and returns a plausible distribution
    ghz3 = StateVector.ghz(3)
    with pytest.raises(ShapeError):
        expectation(ghz3, product_observable(EPR_DIRECTIONS))
    for fn in (joint_outcome_probabilities, sequential_outcome_probabilities):
        with pytest.raises(ShapeError):
            fn(ghz3, EPR_DIRECTIONS)
    for state in (ghz3, Ensemble(states=(EPR, ghz3), weights=(0.5, 0.5))):
        with pytest.raises(ShapeError, match="3 qubits, directions 2"):
            run_certification(state, EPR_DIRECTIONS)


def test_report_is_deterministic():
    cfg = CertificationConfig(shots=3000, seed=42)
    a = run_certification(EPR, EPR_DIRECTIONS, cfg)
    b = run_certification(EPR, EPR_DIRECTIONS, cfg)
    assert a == b


def test_local_marginals_unbiased_product_certain():
    # unique stabilized state: each party's outcome is a fair coin, yet the
    # product is +1 in every round for both settings
    d = EPR_DIRECTIONS
    state = StateVector(2, solve_common_eigenspace(d).basis[:, 0])
    z_axis = rationals((0, 1), (0, 1))
    for setting in (d, z_axis):
        probs = joint_outcome_probabilities(state, setting).reshape(2, 2)
        assert odd_weight(probs.ravel()) <= 1e-12
        for marginal in (probs.sum(axis=1), probs.sum(axis=0)):
            assert np.max(np.abs(marginal - 0.5)) <= 1e-12


def test_config_validation():
    with pytest.raises(DomainError):
        CertificationConfig(shots=0)
    with pytest.raises(DomainError):
        CertificationConfig(shots=2**63)
    with pytest.raises(DomainError):
        CertificationConfig(a_fraction=1.5)
    with pytest.raises(DomainError):
        CertificationConfig(pass_threshold=0.0)
    with pytest.raises(DomainError):
        CertificationConfig(seed=-1)
