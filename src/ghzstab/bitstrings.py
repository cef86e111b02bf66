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


def _bits(values: np.ndarray, n: int) -> np.ndarray:
    """The bits of each entry of an array of integers in [0, 2^n), n <= 64,
    as a (k, n) array of 0 and 1, party 1 (the most significant bit) in
    column 0; only the ceil(n / 8) low bytes of each entry are unpacked."""
    width = -(-n // 8)
    raw = np.asarray(values, dtype=">u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(raw[:, 8 - width :], axis=1)[:, 8 * width - n :]


def bit_labels(values: np.ndarray, n: int) -> list[str]:
    """format(v, f"0{n}b") for each entry of an array of integers in
    [0, 2^n), n <= 64: n characters, party 1 (the most significant bit)
    leftmost."""
    codes = (_bits(values, n) + np.uint8(ord("0"))).astype(np.uint32)  # UCS-4
    return codes.view(f"U{n}").ravel().tolist()


def bit_labels_json(values: np.ndarray, n: int) -> str:
    """json.dumps(bit_labels(values, n)), written as bytes in one pass: each
    label is a row of n + 4 bytes, '"', its bits, '"', ',' and ' ', and the
    last row's separator is dropped."""
    bits = _bits(values, n)
    rows = np.empty((bits.shape[0], n + 4), dtype=np.uint8)
    rows[:] = np.frombuffer(b'"' + b"0" * n + b'", ', dtype=np.uint8)
    np.add(bits, np.uint8(ord("0")), out=rows[:, 1 : n + 1])
    return "[" + rows.ravel()[:-2].tobytes().decode("ascii") + "]"


def parity_of(values: np.ndarray) -> np.ndarray:
    """Bit parity of each entry of an integer array."""
    return (np.bitwise_count(values.astype(np.uint64)) & 1).astype(np.int64)
