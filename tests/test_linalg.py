import math

import numpy as np
import pytest

from ghzstab import (
    Operator,
    StateVector,
    SubspaceBasis,
    fidelity,
    kron,
    null_space,
    subspace_distance,
)
from ghzstab.errors import ShapeError, SizeError
from ghzstab.linalg import apply_locals, single_party_reduced
from ghzstab.observables import SIGMA_X, SIGMA_Z


def _op(arr):
    return Operator.from_entries(arr)


def _random_operator(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return _op(m)


def test_kron_pauli_z():
    out = kron(_op(SIGMA_Z), _op(SIGMA_Z))
    assert np.array_equal(out.entries, np.diag([1, -1, -1, 1]))


def test_kron_identity():
    out = kron(Operator.identity(2), Operator.identity(2))
    assert np.array_equal(out.entries, np.eye(4))


def test_kron_pauli_x():
    out = kron(_op(SIGMA_X), _op(SIGMA_X))
    assert np.array_equal(out.entries, np.fliplr(np.eye(4)))


def test_kron_index_convention():
    # first factor owns the most significant index block
    a = _op(np.diag([1.0, 2.0]))
    b = _op(np.diag([3.0, 5.0]))
    out = kron(a, b)
    assert np.allclose(np.diag(out.entries), [3, 5, 6, 10])


def test_kron_size_cap(monkeypatch):
    import ghzstab.linalg as linalg

    monkeypatch.setattr(linalg, "MAX_DENSE_PARTIES", 3)
    with pytest.raises(SizeError):
        kron(Operator.identity(4), Operator.identity(4))
    assert kron(Operator.identity(4), Operator.identity(2)).dim == 8


def test_kron_mixed_product_rule(rng):
    for dim in [2, 4]:
        a, b = _random_operator(rng, dim), _random_operator(rng, dim)
        c, d = _random_operator(rng, dim), _random_operator(rng, dim)
        left = kron(a, b).entries @ kron(c, d).entries
        right = kron(_op(a.entries @ c.entries), _op(b.entries @ d.entries)).entries
        assert np.max(np.abs(left - right)) <= 1e-12 * np.max(np.abs(left))


def test_null_space_zero_matrix():
    basis = null_space(_op(np.zeros((4, 4))), 1e-10)
    assert basis.count == 4
    assert basis.gram_defect() <= 1e-12


def test_null_space_sigma_z_minus_identity():
    basis = null_space(_op(SIGMA_Z - np.eye(2)), 1e-10)
    assert basis.count == 1
    assert abs(abs(basis.matrix[0, 0]) - 1.0) <= 1e-12


def test_null_space_full_rank():
    assert null_space(Operator.identity(4), 1e-10).count == 0


def test_null_space_residual_bound(rng):
    # null_space also takes plain rectangular arrays of any dimension
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        r = int(rng.integers(1, dim))
        a = rng.normal(size=(dim, r)) @ rng.normal(size=(r, dim))
        tol = 1e-9
        basis = null_space(a.astype(np.complex128), tol)
        assert basis.count == dim - r
        norm_a = np.linalg.norm(a, 2)
        for k in range(basis.count):
            assert np.linalg.norm(a @ basis.matrix[:, k]) <= 10 * tol * norm_a
    # a wide matrix needs the full SVD: a thin one drops its null vectors
    wide = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    basis = null_space(wide, 1e-9)
    assert basis.count == 3
    assert basis.gram_defect() <= 1e-12
    assert np.linalg.norm(wide @ basis.matrix) <= 1e-12


def test_rank_nullity(rng):
    # well-separated singular values: rank + nullity = dim
    for _ in range(10):
        dim = int(rng.integers(2, 10))
        r = int(rng.integers(0, dim + 1))
        u, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        v, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        svals = np.zeros(dim)
        svals[:r] = rng.uniform(0.5, 2.0, size=r)
        a = (u * svals) @ v.T
        basis = null_space(a.astype(np.complex128))
        assert basis.count + r == dim


def test_fidelity_basics():
    zero = StateVector.basis_state(1, 0)
    one = StateVector.basis_state(1, 1)
    plus = StateVector.from_amplitudes([1, 1]).normalize()
    assert fidelity(zero, zero) == pytest.approx(1.0)
    assert fidelity(zero, one) == pytest.approx(0.0)
    assert fidelity(zero, plus) == pytest.approx(1 / math.sqrt(2))


def test_fidelity_symmetry_and_phase(rng):
    for _ in range(20):
        u = StateVector.from_amplitudes(
            rng.normal(size=4) + 1j * rng.normal(size=4)
        ).normalize()
        v = StateVector.from_amplitudes(
            rng.normal(size=4) + 1j * rng.normal(size=4)
        ).normalize()
        assert fidelity(u, v) == pytest.approx(fidelity(v, u))
        phased = StateVector.from_amplitudes(u.amplitudes * np.exp(0.7j))
        assert fidelity(phased, v) == pytest.approx(fidelity(u, v))


def test_fidelity_shape_error():
    with pytest.raises(ShapeError):
        fidelity(StateVector.basis_state(1, 0), StateVector.basis_state(2, 0))


def test_subspace_distance_identical_and_orthogonal():
    e0 = SubspaceBasis.from_vectors([StateVector.basis_state(1, 0)])
    e1 = SubspaceBasis.from_vectors([StateVector.basis_state(1, 1)])
    assert subspace_distance(e0, e0) == 0.0
    assert subspace_distance(e0, e1) == pytest.approx(1.0)


def test_subspace_distance_oblique():
    # projector difference between span{|0>} and span{(|0>+|1>)/sqrt 2}
    # has eigenvalues +-1/sqrt(2): trace 0, det -1/2
    e0 = SubspaceBasis.from_vectors([StateVector.basis_state(1, 0)])
    plus = SubspaceBasis.from_vectors(
        [StateVector.from_amplitudes([1, 1]).normalize()]
    )
    assert subspace_distance(e0, plus) == pytest.approx(1 / math.sqrt(2))


def test_subspace_distance_empty():
    a = SubspaceBasis.empty(4)
    b = SubspaceBasis.empty(4)
    assert subspace_distance(a, b) == 0.0
    with pytest.raises(ShapeError):
        subspace_distance(a, SubspaceBasis.empty(2))


def test_apply_locals_matches_kron(rng):
    for n in [1, 2, 3, 4]:
        mats = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        full = mats[0]
        for l in range(1, n):
            full = np.kron(full, mats[l])
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        assert np.allclose(apply_locals(mats, v), full @ v, atol=1e-12)
        cols = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
        assert np.allclose(apply_locals(mats, cols), full @ cols, atol=1e-12)


def test_single_party_reduced_ghz():
    ghz = StateVector.ghz(3)
    for party in (1, 2, 3):
        rho = single_party_reduced(ghz, party)
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_normalize():
    v = StateVector.from_amplitudes([3, 4]).normalize()
    assert abs(v.norm() - 1.0) <= 1e-12
