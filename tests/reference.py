"""Dense references for the oracle tests: a rank-revealing null space and
the common eigenspace as the null space of a stacked matrix."""

from __future__ import annotations

import math

import numpy as np

from ghzstab.errors import ShapeError
from ghzstab.linalg import DEFAULT_TOL


def null_space(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical null space of a matrix, square or
    rectangular, as the columns of a complex (cols, k) array.

    Singular values at or below tol count as zero.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ShapeError(f"null_space needs a matrix, got shape {arr.shape}")
    rows, cols = arr.shape
    if rows > cols:
        # R of a QR has the singular values and right singular vectors of a
        # tall input, and its SVD builds no U as large as the input
        arr = np.linalg.qr(arr, mode="r")
    # a square input has all cols right singular vectors in the thin SVD
    _, s, vh = np.linalg.svd(arr, full_matrices=rows < cols)
    rank = int(np.sum(s > tol))
    return np.ascontiguousarray(vh[rank:].conj().T)


def stacked_reference(a_full, b_full, tol=1e-9):
    """The common +1 eigenspace of two dense involutions as the null space
    of [(A - I); (B - I)], whose near-null singular value on a 2-dimensional
    block is 2 sqrt(2) |sin(S / 4)|; the cut admits |sin(S/2)| <= tol."""
    eye = np.eye(a_full.shape[0])
    cut = 2.0 * math.sqrt(2.0) * math.sin(math.asin(min(tol, 1.0)) / 2.0)
    return null_space(np.vstack([a_full - eye, b_full - eye]), cut)


def parse_state_records(data: dict) -> np.ndarray:
    """The normalized amplitudes of a valid state file, stored record by
    record as complex(re, im), with the scaling of cli.parse_state_file."""
    vec = np.zeros(1 << data["n"], dtype=np.complex128)
    for rec in data["amplitudes"]:
        re, im = rec.get("re", 0.0), rec.get("im", 0.0)
        vec[rec["index"]] = complex(float(re), float(im))
    parts = vec.view(np.float64)
    parts /= np.abs(parts).max()
    return vec / np.linalg.norm(vec)
