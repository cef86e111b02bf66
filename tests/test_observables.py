import math

import numpy as np
import pytest

from ghzstab import (
    Angle,
    DirectionList,
    StateVector,
    brute_force_eigenspace,
    product_observable,
    sigma_z_product,
)
from ghzstab.errors import DomainError, PreconditionError, ShapeError, SizeError
from ghzstab.observables import IDENTITY_2, SIGMA_Z, ProductObservable
from ghzstab.linalg import kron_all
from reference import (
    SIGMA_X,
    SIGMA_Y,
    canonical_stabilizer_generators,
    spin_frames,
    stabilizer_dimension,
)
from sampling import rationals


HALF_PI = Angle.exact(1, 2)
ZERO = Angle.exact(0)


def spin_factor(theta: Angle, phi: Angle) -> np.ndarray:
    """The one-party spin observable, as product_observable builds it."""
    return product_observable(DirectionList.of([theta], [phi])).mats[0]


def test_local_observable_pauli_axes():
    assert np.allclose(spin_factor(HALF_PI, ZERO), SIGMA_X, atol=1e-15)
    assert np.allclose(spin_factor(ZERO, Angle.radians(1.3)), SIGMA_Z,
                       atol=1e-15)
    assert np.allclose(spin_factor(HALF_PI, HALF_PI), SIGMA_Y,
                       atol=1e-15)


def test_local_observable_properties(rng):
    for _ in range(50):
        theta = Angle.radians(rng.uniform(0, 2 * math.pi))
        phi = Angle.radians(rng.uniform(0, 2 * math.pi))
        op = spin_factor(theta, phi)
        assert op.shape == (2, 2)
        assert np.max(np.abs(op - op.conj().T)) <= 1e-12
        assert np.max(np.abs(op @ op - np.eye(2))) <= 1e-12
        assert abs(np.trace(op)) <= 1e-12


def test_spin_eigenvectors(rng):
    # column 0 of party l's frame is the +1 eigenvector, column 1 the -1 one
    d = DirectionList.of(
        [Angle.radians(t) for t in rng.uniform(0, 2 * math.pi, size=50)],
        [Angle.radians(p) for p in rng.uniform(0, 2 * math.pi, size=50)],
    )
    frames = spin_frames(d)
    assert frames.shape == (50, 2, 2) and frames.dtype == np.complex128
    for frame, op in zip(frames, product_observable(d).mats):
        assert np.max(np.abs(op @ frame - frame * [1, -1])) <= 1e-12
        assert np.max(np.abs(frame.conj().T @ frame - np.eye(2))) <= 1e-12


def test_spin_up_special_points():
    up = spin_frames(DirectionList.of([ZERO, HALF_PI, Angle.exact(1)]))[:, :, 0]
    assert np.allclose(up[0], [1, 0])
    assert np.allclose(up[1], [1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert abs(abs(up[2, 1]) - 1.0) <= 1e-12 and abs(up[2, 0]) <= 1e-12


def test_product_observable_xx():
    d = DirectionList.of([HALF_PI, HALF_PI])
    obs = product_observable(d)
    assert np.allclose(kron_all(obs.mats), np.kron(SIGMA_X, SIGMA_X), atol=1e-15)


def test_product_observable_single_party():
    obs = product_observable(DirectionList.of([ZERO]))
    assert np.allclose(kron_all(obs.mats), SIGMA_Z, atol=1e-15)


def test_product_observable_involution():
    d = rationals([(2, 3)] * 3)
    full = kron_all(product_observable(d).mats)
    assert np.max(np.abs(full @ full - np.eye(8))) <= 1e-12
    assert np.max(np.abs(full - full.conj().T)) <= 1e-12


def test_product_observable_party_cap():
    # the cap applies where dense storage happens, not to the observable
    obs = ProductObservable([SIGMA_Z] * 15)
    with pytest.raises(SizeError):
        kron_all(obs.mats)


def test_sigma_z_product_parity_pattern():
    assert np.allclose(kron_all(sigma_z_product(1).mats), SIGMA_Z)
    assert np.allclose(
        np.diag(kron_all(sigma_z_product(2).mats)), [1, -1, -1, 1]
    )
    assert np.allclose(
        np.diag(kron_all(sigma_z_product(3).mats)), [1, -1, -1, 1, -1, 1, 1, -1]
    )


def test_party_counts_are_checked():
    with pytest.raises(DomainError, match="n must be >= 1, got 0"):
        sigma_z_product(0)
    with pytest.raises(ShapeError, match="party counts differ: 2 vs 3"):
        brute_force_eigenspace(sigma_z_product(2), sigma_z_product(3))


def test_canonical_generators_n2():
    gens = canonical_stabilizer_generators(2)
    assert np.array_equal(kron_all(gens[0].mats).real, np.fliplr(np.eye(4)))
    assert np.array_equal(kron_all(gens[1].mats).real, np.diag([1, -1, -1, 1]))
    assert stabilizer_dimension(gens) == 1


def test_canonical_generators_n3_strings():
    gens = canonical_stabilizer_generators(3)
    x, z, eye = SIGMA_X, SIGMA_Z, IDENTITY_2
    expected = [
        np.kron(np.kron(x, x), x),
        np.kron(np.kron(z, z), eye),
        np.kron(np.kron(z, eye), z),
    ]
    for g, e in zip(gens, expected):
        assert np.array_equal(kron_all(g.mats), e)


@pytest.mark.parametrize("n", range(2, 9))
def test_canonical_generators_commute_exactly(n):
    gens = canonical_stabilizer_generators(n)
    mats = [kron_all(g.mats) for g in gens]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert np.array_equal(mats[i] @ mats[j], mats[j] @ mats[i])


@pytest.mark.parametrize("n", range(2, 9))
def test_ghz_stabilized_by_canonical_generators(n):
    ghz = StateVector.ghz(n)
    for g in canonical_stabilizer_generators(n):
        assert np.linalg.norm(g.apply(ghz.amplitudes) - ghz.amplitudes) <= 1e-12


def test_stabilizer_dimension_formula():
    gens = canonical_stabilizer_generators(3)
    assert stabilizer_dimension(gens) == 1
    assert stabilizer_dimension(gens[:2]) == 2
    assert stabilizer_dimension([], n=4) == 16


def test_stabilizer_dimension_noncommuting_rejected():
    x = ProductObservable([SIGMA_X])
    z = ProductObservable([SIGMA_Z])
    with pytest.raises(PreconditionError):
        stabilizer_dimension([x, z])


def test_generators_require_two_parties():
    with pytest.raises(DomainError):
        canonical_stabilizer_generators(1)


def test_product_observable_rejects_bad_factors():
    # shape, Hermiticity (1e-12) and involution (1e-10) are checked together
    # on the (n, 2, 2) array
    cases = [
        ([], "at least one factor"),
        (np.zeros((2, 3, 3)), "must be 2x2"),
        (SIGMA_Z, "must be 2x2"),
        ([SIGMA_Z, np.array([[0, 1], [0, 0]])], "Hermitian involutions"),
        ([SIGMA_Z, SIGMA_X + 1e-11j * SIGMA_Y], "Hermitian involutions"),
        ([SIGMA_X, 2 * SIGMA_Z], "Hermitian involutions"),
        ([SIGMA_X, (1 + 1e-9) * SIGMA_Z], "Hermitian involutions"),
    ]
    for mats, message in cases:
        with pytest.raises(DomainError, match=message):
            ProductObservable(mats)
    # inside both tolerances the factor is accepted, and the input is copied
    mats = np.stack([SIGMA_X, (1 + 1e-12) * SIGMA_Z])
    obs = ProductObservable(mats)
    mats[0] = SIGMA_Z
    assert np.array_equal(obs.mats[0], SIGMA_X)
