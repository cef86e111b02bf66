import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzstab import StateVector
from ghzstab.errors import DomainError, ShapeError, SizeError
from ghzstab.linalg import apply_locals, kron_all, subspace_distance
from ghzstab.observables import SIGMA_Z
from reference import SIGMA_X, fidelity, null_space, subspace_distance_by_svd
from sampling import basis_state, normalized


def _random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def test_kron_pauli_z():
    out = kron_all([SIGMA_Z, SIGMA_Z])
    assert np.array_equal(out, np.diag([1, -1, -1, 1]))


def test_kron_identity():
    out = kron_all([np.eye(2), np.eye(2)])
    assert np.array_equal(out, np.eye(4))


def test_kron_pauli_x():
    out = kron_all([SIGMA_X, SIGMA_X])
    assert np.array_equal(out, np.fliplr(np.eye(4)))


def test_kron_index_convention():
    # first factor owns the most significant index block
    out = kron_all([np.diag([1.0, 2.0]), np.diag([3.0, 5.0])])
    assert np.allclose(np.diag(out), [3, 5, 6, 10])
    out = kron_all(np.stack([np.diag([1.0, 2.0]), np.eye(2), np.diag([1.0, 3.0])]))
    assert np.allclose(np.diag(out), [1, 3, 1, 3, 2, 6, 2, 6])


def test_kron_size_cap(monkeypatch):
    import ghzstab.linalg as linalg

    monkeypatch.setattr(linalg, "MAX_DENSE_PARTIES", 3)
    with pytest.raises(SizeError):
        kron_all([np.eye(4), np.eye(4)])
    with pytest.raises(SizeError):
        kron_all([np.eye(2)] * 4)
    assert kron_all([np.eye(4), np.eye(2)]).shape == (8, 8)
    with pytest.raises(DomainError):
        kron_all([])
    for size in (0, 3, 6):
        with pytest.raises(ShapeError, match=f"dimension {size} is not a power of two"):
            kron_all([np.eye(2), np.zeros((size, size))])


def test_kron_mixed_product_rule(rng):
    for dim in [2, 4]:
        a, b = _random_matrix(rng, dim), _random_matrix(rng, dim)
        c, d = _random_matrix(rng, dim), _random_matrix(rng, dim)
        left = kron_all([a, b]) @ kron_all([c, d])
        right = kron_all([a @ c, b @ d])
        assert np.max(np.abs(left - right)) <= 1e-12 * np.max(np.abs(left))


def test_null_space_zero_matrix():
    basis = null_space(np.zeros((4, 4)), 1e-10)
    assert basis.shape == (4, 4) and basis.dtype == np.complex128
    assert np.allclose(basis.conj().T @ basis, np.eye(4), rtol=0, atol=1e-12)


def test_null_space_sigma_z_minus_identity():
    basis = null_space(SIGMA_Z - np.eye(2), 1e-10)
    assert basis.shape == (2, 1)
    assert abs(abs(basis[0, 0]) - 1.0) <= 1e-12


def test_null_space_full_rank():
    assert null_space(np.eye(4), 1e-10).shape == (4, 0)


def test_null_space_residual_bound(rng):
    # null_space also takes plain rectangular arrays of any dimension
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        r = int(rng.integers(1, dim))
        a = rng.normal(size=(dim, r)) @ rng.normal(size=(r, dim))
        tol = 1e-9
        basis = null_space(a.astype(np.complex128), tol)
        assert basis.shape == (dim, dim - r)
        norm_a = np.linalg.norm(a, 2)
        for k in range(basis.shape[1]):
            assert np.linalg.norm(a @ basis[:, k]) <= 10 * tol * norm_a
    # a wide matrix needs the full SVD: a thin one drops its null vectors
    wide = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    basis = null_space(wide, 1e-9)
    assert basis.shape == (5, 3)
    assert np.allclose(basis.conj().T @ basis, np.eye(3), rtol=0, atol=1e-12)
    assert np.linalg.norm(wide @ basis) <= 1e-12


def test_tall_null_space_matches_thin_svd(rng):
    # a tall input goes through the SVD of its QR factor R; the thin SVD of
    # the input itself is the reference
    def thin_svd(a, tol):
        _, s, vh = np.linalg.svd(a, full_matrices=False)
        return s, vh[int(np.sum(s > tol)):].conj().T

    for rows, cols, rank in ((64, 32, 32), (64, 32, 20), (40, 12, 1), (9, 8, 0)):
        left = rng.normal(size=(rows, rank)) + 1j * rng.normal(size=(rows, rank))
        right = rng.normal(size=(rank, cols)) + 1j * rng.normal(size=(rank, cols))
        a = left @ right
        s_ref, ref = thin_svd(a, 1e-9)
        r = np.linalg.qr(a, mode="r")
        s_qr = np.linalg.svd(r, compute_uv=False)
        assert np.allclose(s_qr, s_ref, rtol=0, atol=1e-12 * s_ref.max(initial=1.0))
        basis = null_space(a, 1e-9)
        assert basis.shape == ref.shape == (cols, cols - rank)
        assert subspace_distance(basis, ref) <= 1e-12


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
        assert basis.shape[1] + r == dim


def test_fidelity_basics():
    zero = basis_state(1, 0)
    one = basis_state(1, 1)
    plus = normalized([1, 1])
    assert fidelity(zero, zero) == pytest.approx(1.0)
    assert fidelity(zero, one) == pytest.approx(0.0)
    assert fidelity(zero, plus) == pytest.approx(1 / math.sqrt(2))


def test_fidelity_symmetry_and_phase(rng):
    for _ in range(20):
        u = normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
        v = normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
        assert fidelity(u, v) == pytest.approx(fidelity(v, u))
        phased = StateVector(2, u.amplitudes * np.exp(0.7j))
        assert fidelity(phased, v) == pytest.approx(fidelity(u, v))


def test_fidelity_shape_error():
    with pytest.raises(ShapeError):
        fidelity(basis_state(1, 0), basis_state(2, 0))


def _span(*vectors):
    return np.column_stack(vectors).astype(np.complex128)


def test_subspace_distance_identical_and_orthogonal():
    e0 = _span([1, 0])
    e1 = _span([0, 1])
    assert subspace_distance(e0, e0) == 0.0
    assert subspace_distance(e0, e1) == pytest.approx(1.0)


def test_subspace_distance_oblique():
    # projector difference between span{|0>} and span{(|0>+|1>)/sqrt 2}
    # has eigenvalues +-1/sqrt(2): trace 0, det -1/2
    e0 = _span([1, 0])
    plus = _span(normalized([1, 1]).amplitudes)
    assert subspace_distance(e0, plus) == pytest.approx(1 / math.sqrt(2))


def test_subspace_distance_empty():
    a = np.zeros((4, 0), dtype=np.complex128)
    b = np.zeros((4, 0), dtype=np.complex128)
    assert subspace_distance(a, b) == 0.0
    with pytest.raises(ShapeError):
        subspace_distance(a, np.zeros((2, 0), dtype=np.complex128))
    with pytest.raises(ShapeError):
        subspace_distance(np.eye(4, 1), np.eye(2, 1))


def _random_basis(rng, dim, count):
    g = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    return np.linalg.qr(g)[0]


def test_subspace_distance_matches_projector_norm(rng):
    # reference: the operator norm of the projector difference, the old route
    for dim, count in [(2, 1), (8, 3), (16, 8), (32, 5)]:
        for scale in (1.0, 1e-3, 1e-9):
            a = _random_basis(rng, dim, count)
            # b is a tilted by about scale, so small distances are covered
            tilt = a + scale * (
                rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
            )
            b = np.linalg.qr(tilt)[0]
            pa = a @ a.conj().T
            pb = b @ b.conj().T
            expected = np.linalg.norm(pa - pb, 2)
            assert abs(subspace_distance(a, b) - expected) <= 1e-12
    for dim, ca, cb in [(4, 0, 1), (8, 3, 2), (16, 1, 8)]:
        a, b = _random_basis(rng, dim, ca), _random_basis(rng, dim, cb)
        assert subspace_distance(a, b) == 1.0
        assert subspace_distance(b, a) == 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 64),
    st.integers(1, 64),
    st.sampled_from(["random", "equal", "rotated"]),
    st.integers(0, 2**32 - 1),
)
def test_subspace_distance_matches_the_svd_route(dim, count, kind, seed):
    # the top eigenvalue of the residual's Gram against the residual's
    # spectral norm by SVD, on unrelated bases (distance near 1), equal
    # ones (near 0) and one rotated by 1e-8 (about 1e-8)
    rng = np.random.default_rng(seed)
    count = min(count, dim)
    a = _random_basis(rng, dim, count)
    if kind == "random":
        b = _random_basis(rng, dim, count)
    elif kind == "equal":
        b = a.copy()
    else:  # the Cayley transform of k, anti-Hermitian with norm 1e-8
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        k = 1e-8 * (g - g.conj().T) / np.linalg.norm(g - g.conj().T, 2)
        b = np.linalg.solve(np.eye(dim) - k, (np.eye(dim) + k) @ a)
        assert subspace_distance_by_svd(a, b) <= 3e-8
    assert abs(subspace_distance(a, b) - subspace_distance_by_svd(a, b)) <= 1e-14
    assert subspace_distance(a, b[:, 1:]) == subspace_distance(a[:, 1:], b) == 1.0
    assert subspace_distance(a[:, :0], b[:, :0]) == 0.0


def test_apply_locals_matches_kron(rng):
    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for n in range(1, 10):
        dim = 1 << n
        mats = gaussian(n, 2, 2)
        full = kron_all(mats)
        wide = gaussian(dim, 2 * dim)
        inputs = [
            gaussian(dim),
            gaussian(dim, 1),
            gaussian(dim, 3),
            gaussian(dim, dim),
            wide[:, ::2],  # a non-contiguous column slice
            np.asfortranarray(gaussian(dim, 3)),
            rng.normal(size=dim),
            rng.normal(size=(dim, 3)),
        ]
        for amps in inputs:
            got = apply_locals(mats, amps)
            want = full @ amps
            assert got.shape == amps.shape, (n, amps.shape)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (
                n, amps.shape,
            )
            assert got.flags.c_contiguous and not np.shares_memory(got, amps)


def test_state_vector_rejects_bad_lengths():
    with pytest.raises(ShapeError, match=re.escape("length 2^2, got (3,)")):
        StateVector(2, np.zeros(3, dtype=complex))
