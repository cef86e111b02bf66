import math

import numpy as np
import pytest

from ghzstab import (
    Angle,
    DirectionList,
    StateVector,
    canonical_stabilizer_generators,
    local_observable,
    product_observable,
    sigma_z_product,
    spin_down_eigenvector,
    spin_up_eigenvector,
    stabilizer_dimension,
)
from ghzstab.errors import DomainError, PreconditionError, SizeError
from ghzstab.observables import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, ProductObservable
from ghzstab.linalg import Operator


HALF_PI = Angle.exact(1, 2)
ZERO = Angle.exact(0)


def test_local_observable_pauli_axes():
    assert np.allclose(local_observable(HALF_PI, ZERO).entries, SIGMA_X, atol=1e-15)
    assert np.allclose(local_observable(ZERO, Angle.radians(1.3)).entries, SIGMA_Z,
                       atol=1e-15)
    assert np.allclose(local_observable(HALF_PI, HALF_PI).entries, SIGMA_Y,
                       atol=1e-15)


def test_local_observable_properties(rng):
    for _ in range(50):
        theta = Angle.radians(rng.uniform(0, 2 * math.pi))
        phi = Angle.radians(rng.uniform(0, 2 * math.pi))
        op = local_observable(theta, phi)
        assert op.is_hermitian(1e-12)
        assert op.is_involution(1e-12)
        assert abs(np.trace(op.entries)) <= 1e-12


def test_spin_eigenvectors(rng):
    for _ in range(50):
        theta = Angle.radians(rng.uniform(0, 2 * math.pi))
        phi = Angle.radians(rng.uniform(0, 2 * math.pi))
        op = local_observable(theta, phi)
        up = spin_up_eigenvector(theta, phi)
        down = spin_down_eigenvector(theta, phi)
        assert np.linalg.norm(op.entries @ up.amplitudes - up.amplitudes) <= 1e-12
        assert np.linalg.norm(op.entries @ down.amplitudes + down.amplitudes) <= 1e-12
        assert abs(np.vdot(up.amplitudes, down.amplitudes)) <= 1e-12


def test_spin_up_special_points():
    assert np.allclose(spin_up_eigenvector(ZERO, ZERO).amplitudes, [1, 0])
    assert np.allclose(
        spin_up_eigenvector(HALF_PI, ZERO).amplitudes,
        [1 / math.sqrt(2), 1 / math.sqrt(2)],
    )
    up = spin_up_eigenvector(Angle.exact(1), ZERO).amplitudes
    assert abs(abs(up[1]) - 1.0) <= 1e-12 and abs(up[0]) <= 1e-12


def test_product_observable_xx():
    d = DirectionList.of([HALF_PI, HALF_PI])
    obs = product_observable(d)
    assert np.allclose(obs.full.entries, np.kron(SIGMA_X, SIGMA_X), atol=1e-15)


def test_product_observable_single_party():
    obs = product_observable(DirectionList.of([ZERO]))
    assert np.allclose(obs.full.entries, SIGMA_Z, atol=1e-15)


def test_product_observable_involution():
    d = DirectionList.from_rationals([(2, 3)] * 3)
    full = product_observable(d).full.entries
    assert np.max(np.abs(full @ full - np.eye(8))) <= 1e-12
    assert np.max(np.abs(full - full.conj().T)) <= 1e-12


def test_product_observable_party_cap():
    # the cap applies where dense storage happens, not to the observable
    obs = ProductObservable([Operator.from_entries(SIGMA_Z)] * 15)
    with pytest.raises(SizeError):
        obs.full


def test_sigma_z_product_parity_pattern():
    assert np.allclose(sigma_z_product(1).full.entries, SIGMA_Z)
    assert np.allclose(
        np.diag(sigma_z_product(2).full.entries), [1, -1, -1, 1]
    )
    assert np.allclose(
        np.diag(sigma_z_product(3).full.entries), [1, -1, -1, 1, -1, 1, 1, -1]
    )


def test_canonical_generators_n2():
    gens = canonical_stabilizer_generators(2)
    assert np.array_equal(gens[0].full.entries.real, np.fliplr(np.eye(4)))
    assert np.array_equal(gens[1].full.entries.real, np.diag([1, -1, -1, 1]))
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
        assert np.array_equal(g.full.entries, e)


@pytest.mark.parametrize("n", range(2, 9))
def test_canonical_generators_commute_exactly(n):
    gens = canonical_stabilizer_generators(n)
    mats = [g.full.entries for g in gens]
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
    x = ProductObservable([Operator.from_entries(SIGMA_X)])
    z = ProductObservable([Operator.from_entries(SIGMA_Z)])
    with pytest.raises(PreconditionError):
        stabilizer_dimension([x, z])


def test_generators_require_two_parties():
    with pytest.raises(DomainError):
        canonical_stabilizer_generators(1)
