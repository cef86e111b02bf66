"""Basis and pattern indices as n-bit integers, party l at bit n - l (party 1
the most significant): the even-parity class and "0101" labels."""

from __future__ import annotations

import numpy as np

from .errors import SizeError
from .linalg import MAX_PARTIES


def even_indices(n: int) -> np.ndarray:
    """The 2^(n-1) basis indices of even bit parity, ascending, as int64."""
    if not 1 <= n <= MAX_PARTIES:
        raise SizeError(f"n must be in 1..{MAX_PARTIES}, got {n}")
    idx = np.arange(1 << n, dtype=np.int64)
    return idx[parity_of(idx) == 0]


def bit_labels(values: np.ndarray, n: int) -> list[str]:
    """format(v, f"0{n}b") for each entry of an array of integers in
    [0, 2^n), n <= 64: n characters, party 1 (the most significant bit)
    leftmost."""
    raw = np.asarray(values, dtype=">u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(raw, axis=1)[:, 64 - n:]
    codes = (bits + np.uint8(ord("0"))).astype(np.uint32)  # UCS-4, one per character
    return codes.view(f"U{n}").ravel().tolist()


def parity_of(values: np.ndarray) -> np.ndarray:
    """Bit parity of each entry of an integer array."""
    return (np.bitwise_count(values.astype(np.uint64)) & 1).astype(np.int64)
