"""Numeric kernels in plain numpy: signed angle sums over sign patterns,
parity-split product sums and group character sums."""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# signed sums theta_1 + sum_{l>=2} (-1)^{bit_l(m)} theta_l over all
# m in [0, 2^{n-1}); bit of party l sits at position n - l.

def _signed_sums(vals: np.ndarray) -> np.ndarray:
    out = vals[:1].copy()
    for l in range(1, vals.size):
        nxt = np.empty(out.size * 2, dtype=vals.dtype)
        nxt[0::2] = out + vals[l]
        nxt[1::2] = out - vals[l]
        out = nxt
    return out


def signed_sums_f8(vals) -> np.ndarray:
    return _signed_sums(np.asarray(vals, dtype=np.float64))


def signed_sums_i8(vals) -> np.ndarray:
    return _signed_sums(np.asarray(vals, dtype=np.int64))


def signed_sums_int(vals) -> np.ndarray:
    """Exact Python integers (object array), for sums beyond int64."""
    return _signed_sums(np.asarray(vals, dtype=object))


# ---------------------------------------------------------------------------
# direct enumeration of sum_j prod_l cos^{1-j_l} (-i sin)^{j_l}
# split by the parity of j, over all j in Z_2^n

def parity_product_sums(cos_t: np.ndarray, msin_t: np.ndarray):
    n = cos_t.size
    terms = np.ones(1, dtype=np.complex128)
    for l in range(n):
        nxt = np.empty(terms.size * 2, dtype=np.complex128)
        nxt[0::2] = terms * cos_t[l]
        nxt[1::2] = terms * msin_t[l]
        terms = nxt
    par = np.bitwise_count(np.arange(terms.size, dtype=np.uint64)) & 1
    even = terms[par == 0].sum()
    odd = terms[par == 1].sum()
    return even, odd


# ---------------------------------------------------------------------------
# group character sums sum_m (-1)^{m . v}; only v mod 2 matters

def character_sums(vbits: np.ndarray, n: int) -> np.ndarray:
    """The sums for each v, from one (samples, 2^n) block of the parities of
    v & m; callers bound n by the dense cap."""
    v = np.asarray(vbits, dtype=np.uint64).reshape(-1, 1)
    m = np.arange(1 << n, dtype=np.uint64)
    odd = (np.bitwise_count(v & m) & 1).sum(axis=1, dtype=np.int64)
    return (1 << n) - 2 * odd
