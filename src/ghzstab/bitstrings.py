"""Basis and pattern indices as n-bit integers, party l at bit n - l (party 1
the most significant): the even-parity class and "0101" labels."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import SizeError
from .linalg import MAX_PARTIES

LABEL_CHUNK = 1 << 16  # labels per piece of bit_labels_json


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


def bit_labels_json(values: np.ndarray, n: int) -> Iterator[str]:
    """json.dumps(bit_labels(values, n)) in pieces of at most LABEL_CHUNK
    labels, n <= 32. Each piece is one byte buffer, decoded once: a label is a
    slot of n + 4 bytes, '"', its bits, '"', ',' and ' ', the first piece
    opens with '[', and the last slot's separator becomes ']'. Each label's
    bits are copied in as one n-byte field, with no loop per row."""
    values = np.asarray(values)
    if values.size == 0:
        yield "[]"
        return
    # a value's low n bits of the 32 unpacked, and a label's n bits in its slot
    bits_field = np.dtype(
        {"names": ["b"], "formats": [f"V{n}"], "offsets": [32 - n], "itemsize": 32}
    )
    slot = np.dtype(
        {"names": ["b"], "formats": [f"V{n}"], "offsets": [1], "itemsize": n + 4}
    )
    row = bytearray(b'"' + b"0" * n + b'", ')
    for start in range(0, values.size, LABEL_CHUNK):
        chunk = values[start : start + LABEL_CHUNK]
        bits = np.unpackbits(chunk.astype(">u4").view(np.uint8))
        bits += np.uint8(ord("0"))
        head = b"[" if start == 0 else b""
        buf = bytearray(head) + row * chunk.size
        slots = np.frombuffer(buf, dtype=slot, offset=len(head))
        slots["b"] = bits.view(bits_field)["b"]
        end = len(buf)
        if start + LABEL_CHUNK >= values.size:  # the last piece closes the list
            buf[-2] = ord("]")
            end -= 1
        yield str(memoryview(buf)[:end], "ascii")


def parity_of(values: np.ndarray) -> np.ndarray:
    """Bit parity of each entry of an integer array."""
    return (np.bitwise_count(values.astype(np.uint64)) & 1).astype(np.int64)
