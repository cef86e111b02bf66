"""N-bit strings with party 1 at the most significant position, and their
even/odd parity classes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeError
from .linalg import MAX_PARTIES


@dataclass(frozen=True)
class BitString:
    """Bit string of length n; party l occupies bit position n - l."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise DomainError(f"bits {self.bits} out of range for n={self.n}")

    def bit(self, party: int) -> int:
        """Bit of party number `party` (1-based, party 1 most significant)."""
        if not 1 <= party <= self.n:
            raise DomainError(f"party {party} out of range 1..{self.n}")
        return (self.bits >> (self.n - party)) & 1

    @property
    def parity(self) -> int:
        return bin(self.bits).count("1") & 1

    def complement(self) -> "BitString":
        return BitString(self.n, self.bits ^ ((1 << self.n) - 1))

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n}b")

    @classmethod
    def from_string(cls, text: str) -> "BitString":
        if not text or set(text) - {"0", "1"}:
            raise DomainError(f"not a bit string: {text!r}")
        return cls(len(text), int(text, 2))


@dataclass(frozen=True)
class ParityClasses:
    """Even- and odd-parity basis index lists, ascending."""

    n: int
    s0: np.ndarray
    s1: np.ndarray


def parity_classes(n: int) -> ParityClasses:
    """Partition all 2^n basis indices by the XOR-parity of their bits."""
    if not 1 <= n <= MAX_PARTIES:
        raise SizeError(f"n must be in 1..{MAX_PARTIES}, got {n}")
    idx = np.arange(1 << n, dtype=np.int64)
    par = parity_of(idx)
    return ParityClasses(n=n, s0=idx[par == 0], s1=idx[par == 1])


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
